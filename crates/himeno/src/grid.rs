//! Grid sizes, initialization, and the stencil definition.

/// Floating-point operations per stencil point (the benchmark's own
/// accounting, used for its MFLOPS metric).
pub const FLOPS_PER_POINT: f64 = 34.0;

/// Jacobi relaxation factor.
pub const OMEGA: f32 = 0.8;

/// Device-memory traffic per stencil point in bytes: the 14
/// coefficient/state arrays are streamed (13 reads + 1 write of 4 bytes
/// each) and the 19-point neighborhood of `p` re-fetches planes with
/// imperfect cache reuse. 200 B/point calibrates the computation-to-
/// communication balance so that, on the Cichlid preset, one halo
/// exchange hides under a half-domain kernel at 2 nodes but not at 4 —
/// reproducing exactly where the paper's Fig. 9(a) comp/comm ratio
/// crosses 1 (and hence where the clMPI-vs-hand-optimized gap appears).
pub const BYTES_PER_POINT: usize = 200;

/// Standard Himeno grid sizes (`mimax × mjmax × mkmax`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridSize {
    /// 33 × 33 × 65 — test size.
    Xs,
    /// 65 × 65 × 129.
    S,
    /// 129 × 129 × 257 — the size evaluated in the paper (Fig. 9).
    M,
    /// 257 × 257 × 513.
    L,
    /// Custom (mimax, mjmax, mkmax).
    Custom(usize, usize, usize),
}

impl GridSize {
    /// (mimax, mjmax, mkmax).
    pub fn dims(self) -> (usize, usize, usize) {
        match self {
            GridSize::Xs => (33, 33, 65),
            GridSize::S => (65, 65, 129),
            GridSize::M => (129, 129, 257),
            GridSize::L => (257, 257, 513),
            GridSize::Custom(i, j, k) => (i, j, k),
        }
    }

    /// Number of interior (updated) points.
    pub fn interior_points(self) -> usize {
        let (mi, mj, mk) = self.dims();
        (mi - 2) * (mj - 2) * (mk - 2)
    }

    /// Parse "xs"/"s"/"m"/"l" (case-insensitive).
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "xs" => Some(GridSize::Xs),
            "s" => Some(GridSize::S),
            "m" => Some(GridSize::M),
            "l" => Some(GridSize::L),
            _ => None,
        }
    }
}

/// A full (undecomposed) grid with the benchmark's standard coefficients.
/// The distributed variants slice plane ranges out of this to initialize
/// their slabs, so every implementation starts from identical data.
pub struct HimenoGrid {
    /// Grid dimensions.
    pub size: GridSize,
    /// Pressure, `mimax` planes of `mjmax × mkmax`.
    pub p: Vec<f32>,
}

impl HimenoGrid {
    /// Standard initialization: `p = (i²)/(mimax−1)²` along the first
    /// axis; coefficients are the benchmark constants (a=1,1,1,1/6; b=0;
    /// c=1; bnd=1; wrk1=0) and are generated on the fly by the kernels.
    pub fn new(size: GridSize) -> Self {
        let (mi, mj, mk) = size.dims();
        let denom = ((mi - 1) * (mi - 1)) as f32;
        let mut p = vec![0.0f32; mi * mj * mk];
        for i in 0..mi {
            let v = (i * i) as f32 / denom;
            p[i * mj * mk..(i + 1) * mj * mk].fill(v);
        }
        HimenoGrid { size, p }
    }

    /// Copy planes `[lo, hi)` of `p` (each `mjmax × mkmax` floats).
    pub fn planes(&self, lo: usize, hi: usize) -> &[f32] {
        let (_, mj, mk) = self.size.dims();
        &self.p[lo * mj * mk..hi * mj * mk]
    }
}

/// Initialize planes `[lo, hi)` of the standard grid directly, without
/// materializing the whole field: bit-identical to
/// `HimenoGrid::new(size).planes(lo, hi)` but O(slab) in memory, which is
/// what keeps 256-rank scale runs (each rank holding a few planes of a
/// 17 MB grid) feasible in one process.
pub fn init_planes(size: GridSize, lo: usize, hi: usize) -> Vec<f32> {
    let (_, mj, mk) = size.dims();
    let mut p = vec![0.0f32; (hi - lo) * mj * mk];
    fill_planes(&mut p, size, lo);
    p
}

/// [`init_planes`] in place: `p` holds whole planes of the standard grid
/// starting at plane `lo`. A rank fills its device buffers through this,
/// so slab set-up allocates and copies nothing.
pub fn fill_planes(p: &mut [f32], size: GridSize, lo: usize) {
    let (mi, mj, mk) = size.dims();
    let denom = ((mi - 1) * (mi - 1)) as f32;
    debug_assert_eq!(p.len() % (mj * mk), 0, "whole planes");
    for (i, plane) in (lo..).zip(p.chunks_exact_mut(mj * mk)) {
        plane.fill((i * i) as f32 / denom);
    }
}

/// One Jacobi sweep over planes `i_lo..i_hi` (local indices, interior
/// only) of a slab shaped `(planes, mjmax, mkmax)`: reads `old`, writes
/// `new` for those planes, and returns the partial `gosa`.
///
/// This is the exact Himeno update with the benchmark's constant
/// coefficients folded in (a0..a2 = 1, a3 = 1/6, b = 0, c = 1, bnd = 1,
/// wrk1 = 0), which leaves the full 19-point data dependence intact while
/// avoiding 11 all-constant array streams in host memory. The *device
/// time* model still charges the full array traffic via
/// [`BYTES_PER_POINT`].
///
/// Never inlined: this loop nest is where a Himeno repetition's host
/// time goes, and whether rustc folds it into its callers depends on how
/// it happens to partition the crate — which moved, and cost the
/// reference solve 8%, when generic `simtime` code instantiated here
/// grew by a few instructions (PR 16). Standing alone it compiles the
/// same whatever changes around it.
#[inline(never)]
pub fn jacobi_sweep(
    old: &[f32],
    new: &mut [f32],
    mj: usize,
    mk: usize,
    i_lo: usize,
    i_hi: usize,
) -> f64 {
    const A3: f32 = 1.0 / 6.0;
    let plane = mj * mk;
    let mut gosa = 0.0f64;
    for i in i_lo..i_hi {
        for j in 1..mj - 1 {
            let base = i * plane + j * mk;
            for k in 1..mk - 1 {
                let c = base + k;
                let s0 = old[c + plane]          // a0 * p[i+1][j][k]
                    + old[c + mk]                // a1 * p[i][j+1][k]
                    + old[c + 1]                 // a2 * p[i][j][k+1]
                    + old[c - plane]             // c0 * p[i-1][j][k]
                    + old[c - mk]                // c1 * p[i][j-1][k]
                    + old[c - 1]; // c2 * p[i][j][k-1]
                let ss = s0 * A3 - old[c]; // (s0*a3 - p) * bnd
                gosa += (ss * ss) as f64;
                new[c] = old[c] + OMEGA * ss;
            }
        }
    }
    gosa
}

/// Copy the non-interior shell of `old` into `new` for planes
/// `i_lo..i_hi` (the stencil leaves boundaries untouched; with double
/// buffering they must be carried forward explicitly once).
pub fn copy_shell(old: &[f32], new: &mut [f32], mj: usize, mk: usize, i_lo: usize, i_hi: usize) {
    let plane = mj * mk;
    for i in i_lo..i_hi {
        let (o, n) = (
            &old[i * plane..(i + 1) * plane],
            &mut new[i * plane..(i + 1) * plane],
        );
        // j = 0 and j = mj-1 rows.
        n[..mk].copy_from_slice(&o[..mk]);
        n[(mj - 1) * mk..].copy_from_slice(&o[(mj - 1) * mk..]);
        // k = 0 and k = mk-1 columns.
        for j in 1..mj - 1 {
            n[j * mk] = o[j * mk];
            n[j * mk + mk - 1] = o[j * mk + mk - 1];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_and_interior_counts() {
        assert_eq!(GridSize::M.dims(), (129, 129, 257));
        assert_eq!(GridSize::Xs.interior_points(), 31 * 31 * 63);
        assert_eq!(GridSize::by_name("m"), Some(GridSize::M));
        assert_eq!(GridSize::by_name("xl"), None);
    }

    #[test]
    fn init_is_quadratic_in_i() {
        let g = HimenoGrid::new(GridSize::Xs);
        let (mi, mj, mk) = GridSize::Xs.dims();
        assert_eq!(g.p[0], 0.0);
        let last = g.p[(mi - 1) * mj * mk];
        assert!((last - 1.0).abs() < 1e-6, "p at i=mimax-1 is 1.0");
        let mid = g.p[(mi / 2) * mj * mk];
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn sweep_reduces_gosa_over_iterations() {
        let size = GridSize::Custom(17, 17, 17);
        let (mi, mj, mk) = size.dims();
        let g = HimenoGrid::new(size);
        let mut old = g.p.clone();
        let mut new = g.p.clone();
        let mut last = f64::MAX;
        for _ in 0..5 {
            let gosa = jacobi_sweep(&old, &mut new, mj, mk, 1, mi - 1);
            assert!(gosa < last, "residual decreases");
            last = gosa;
            std::mem::swap(&mut old, &mut new);
        }
        assert!(last > 0.0);
    }

    #[test]
    fn sweep_touches_only_interior() {
        let size = GridSize::Custom(9, 9, 9);
        let (mi, mj, mk) = size.dims();
        let g = HimenoGrid::new(size);
        let mut new = vec![-1.0f32; g.p.len()];
        jacobi_sweep(&g.p, &mut new, mj, mk, 1, mi - 1);
        // Boundary untouched (still -1), interior written.
        assert_eq!(new[0], -1.0);
        assert_ne!(new[(mj + 1) * mk + 1], -1.0);
    }

    #[test]
    fn init_planes_matches_full_grid() {
        let size = GridSize::Xs;
        let g = HimenoGrid::new(size);
        let (mi, _, _) = size.dims();
        for (lo, hi) in [(0, 2), (5, 9), (mi - 3, mi)] {
            assert_eq!(init_planes(size, lo, hi), g.planes(lo, hi));
        }
    }

    #[test]
    fn copy_shell_preserves_boundaries() {
        let size = GridSize::Custom(5, 5, 5);
        let (mi, mj, mk) = size.dims();
        let g = HimenoGrid::new(size);
        let mut new = vec![0.0f32; g.p.len()];
        copy_shell(&g.p, &mut new, mj, mk, 0, mi);
        assert_eq!(new[1], g.p[1]); // j=0 row copied
        assert_eq!(new[(2 * mj) * mk + 3], g.p[(2 * mj) * mk + 3]);
        assert_eq!(new[(2 * mj + 2) * mk + 2], 0.0, "interior not copied");
    }
}
