//! Grid sizes, initialization, and the stencil definition.

use std::ops::Range;

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

    /// Number of interior (updated) points: zero if any dimension is
    /// below 3.
    pub fn interior_points(self) -> usize {
        let (mi, mj, mk) = self.dims();
        mi.saturating_sub(2) * mj.saturating_sub(2) * mk.saturating_sub(2)
    }

    /// [`dims`](Self::dims) for a solve. Every `run_himeno*` entry point
    /// and `reference_jacobi` start here, on the caller's thread and
    /// before a world exists: a grid with a dimension below 3 has no
    /// interior point, and the `mk - 2` / `mj - 2` further down would
    /// wrap on it inside a rank.
    pub(crate) fn solve_dims(self) -> (usize, usize, usize) {
        let (mi, mj, mk) = self.dims();
        assert!(
            mi >= 3 && mj >= 3 && mk >= 3,
            "Himeno grid {mi}x{mj}x{mk} has no interior point: every dimension must be at least 3"
        );
        (mi, mj, mk)
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
/// Each `(i, j)` row of `mk - 2` points is two passes. The first is
/// elementwise over seven equal-length windows of `old` and one of `new`:
/// no iteration reads what another wrote, so rustc vectorises it, and
/// every lane performs the `f32` operations of the scalar loop on the
/// same operands (Rust never contracts `a * b + c` to an FMA). It parks
/// `ss * ss`, still `f32`, in `sq`. The second is [`add_row`]: by
/// definition the `f64` residual plus `sq` one element at a time in `k`
/// order — the order the sum has always had, so `gosa` keeps its bits —
/// and summed in lanes only where a certificate proves no partial sum
/// rounds. `tests::jacobi_sweep_spec` is the scalar loop this is diffed
/// against.
///
/// Never inlined. On this form the attribute changes no instruction
/// (`nm` and the disassembly are the same with and without it: DESIGN.md
/// §14, "Host kernels"); it stays so that a change elsewhere in the crate
/// cannot fold the nest into a caller, which in PR 16 slowed it by a
/// sixth.
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
    let n = mk - 2;
    let mut sq = vec![0.0f32; n];
    let mut gosa = 0.0f64;
    for i in i_lo..i_hi {
        for j in 1..mj - 1 {
            let c = i * plane + j * mk + 1;
            let row = |at: usize| &old[at..at + n];
            // a0..a2 * p[i+1], p[j+1], p[k+1]; c0..c2 * p[i-1], p[j-1], p[k-1]
            let (ip, jp, kp) = (row(c + plane), row(c + mk), row(c + 1));
            let (im, jm, km) = (row(c - plane), row(c - mk), row(c - 1));
            let (centre, out) = (row(c), &mut new[c..c + n]);
            for k in 0..n {
                let s0 = ip[k] + jp[k] + kp[k] + im[k] + jm[k] + km[k];
                let ss = s0 * A3 - centre[k]; // (s0*a3 - p) * bnd
                sq[k] = ss * ss;
                out[k] = centre[k] + OMEGA * ss;
            }
            gosa = add_row(gosa, &sq);
        }
    }
    gosa
}

/// The sum of `|p|` as `f64` over the interior of `planes` of a field
/// shaped `(_, mj, mk)`, in `(i, j, k)` order: every `(i, j)` row without
/// its first and last `k` goes through `add_row`, so the sum has the bits
/// of one accumulator in that order.
pub fn interior_checksum(p: &[f32], mj: usize, mk: usize, planes: Range<usize>) -> f64 {
    let mut abs = vec![0.0f32; mk - 2];
    let mut sum = 0.0;
    for i in planes {
        for j in 1..mj - 1 {
            let row = (i * mj + j) * mk + 1;
            for (a, x) in abs.iter_mut().zip(&p[row..row + mk - 2]) {
                *a = x.abs();
            }
            sum = add_row(sum, &abs);
        }
    }
    sum
}

/// `acc` plus every element of `row` as `f64`, and by definition what
/// `for &x in row { acc += x as f64 }` returns, bit for bit, for any
/// input. The row is added in eight lanes when [`lanes`] proves that no
/// partial sum rounds, and in row order otherwise.
pub fn add_row(acc: f64, row: &[f32]) -> f64 {
    lanes(acc, row).unwrap_or_else(|| k_order(acc, row))
}

/// The definition of [`add_row`], and its fallback.
fn k_order(mut acc: f64, row: &[f32]) -> f64 {
    for &x in row {
        acc += x as f64;
    }
    acc
}

/// `acc` plus `row` summed in eight `f64` lanes, or `None` unless that is
/// provably the row-order sum.
///
/// **The certificate.** Let `acc ≥ 0` and every `x` be a positive `f32`,
/// `lo` the smallest. Let `unit = min(lsb(acc), ulp32(lo))`, where
/// `lsb(acc)` is the value of `acc`'s lowest set bit (`∞` for 0) and
/// `ulp32(x) = 2^(max(e, 1) − 150)` for `x`'s biased exponent `e`. Every
/// `x ≥ lo` has an exponent at least `lo`'s, so `acc` and every `x` (exact
/// in `f64`) are integer multiples of `unit`, and so is every partial sum
/// in any order: the row-order prefixes, the lanes, their combination and
/// `acc + s`. No term is negative, so each partial sum is at most the true
/// total `T`. If `T < 2⁵³·unit`, each partial sum is an integer below 2⁵³
/// times a power of two no smaller than 2⁻¹⁰⁷⁴, so it is exact in `f64`:
/// no addition rounds, and every order returns the positive number `T`.
///
/// The check is `acc + s < 2⁵²·unit` on the computed sum. When `T <
/// 2⁵³·unit` the computed sum is `T`, so a pass means `T < 2⁵²·unit`. When
/// `T ≥ 2⁵³·unit` it fails: rounding to nearest is monotone and `2⁵³·unit`
/// is representable, so every computed partial sum is at least the smaller
/// of its exact value and `2⁵³·unit`. That alone makes `2⁵³·unit` a sound
/// bound; the factor two is margin, and is also what the plain error
/// bound needs for rows under 2⁵¹ terms (the computed sum then exceeds
/// `T·e^(−1/4)`).
///
/// The bit patterns of non-negative `f32` are ordered like their values,
/// so the minimum is taken over `x.to_bits() as i32`, a packed `i32` min
/// on SSE2. A negative input or a NaN with its sign set makes that minimum
/// negative and fails `lo > 0`, and so does a zero; a positive NaN or an
/// `inf` makes `s` non-finite; an empty row leaves `lo` a NaN. All of them
/// fall back, as does an `acc` that is negative or NaN.
fn lanes(acc: f64, row: &[f32]) -> Option<f64> {
    const LANES: usize = 8;
    let mut sum = [0.0f64; LANES];
    let mut min = [i32::MAX; LANES];
    let chunks = row.chunks_exact(LANES);
    let rest = chunks.remainder();
    for chunk in chunks {
        for l in 0..LANES {
            sum[l] += chunk[l] as f64;
            min[l] = min[l].min(chunk[l].to_bits() as i32);
        }
    }
    for ((s, m), &x) in sum.iter_mut().zip(&mut min).zip(rest) {
        *s += x as f64;
        *m = (*m).min(x.to_bits() as i32);
    }
    let s: f64 = sum.iter().sum();
    let lo = f32::from_bits(min.into_iter().fold(i32::MAX, i32::min) as u32);
    if !(acc >= 0.0 && lo > 0.0 && s.is_finite()) {
        return None;
    }
    // log2(unit): `acc`'s lowest set bit, `lo`'s ulp.
    let bits = acc.to_bits();
    let e = (bits >> 52 & 0x7ff) as i32;
    let significand = bits & ((1 << 52) - 1) | u64::from(e > 0) << 52;
    let acc_lsb = match significand.trailing_zeros() {
        64 => i32::MAX,
        tz => e.max(1) - 1075 + tz as i32,
    };
    let lo_ulp = ((lo.to_bits() >> 23) as i32).max(1) - 150;
    // 52 + log2(unit) lies in [-1022, 157]: a normal power of two.
    let bound = f64::from_bits(((1023 + 52 + acc_lsb.min(lo_ulp)) as u64) << 52);
    let total = acc + s;
    (total < bound).then_some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_and_interior_counts() {
        assert_eq!(GridSize::M.dims(), (129, 129, 257));
        assert_eq!(GridSize::Xs.interior_points(), 31 * 31 * 63);
        for (mi, mj, mk) in [(9, 3, 2), (9, 3, 1), (9, 3, 0), (2, 3, 3)] {
            assert_eq!(GridSize::Custom(mi, mj, mk).interior_points(), 0);
        }
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

    /// The scalar loop nest that defines `jacobi_sweep`: which `f32`
    /// operations happen on which operands, and in which order the
    /// residual is summed.
    fn jacobi_sweep_spec(
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

    /// 7 row lengths x 32 seeded cases against the scalar spec, bit for
    /// bit. The fields differ in every cell and span twenty binary orders
    /// of magnitude: the standard init is constant in `j` and `k`, so on it
    /// a swapped neighbour or a reordered residual sum would change nothing.
    #[test]
    fn sweep_matches_the_scalar_spec_bit_for_bit() {
        const SENTINEL: u32 = 0xc442_4000; // -777.0, which no update produces
        let mut rng = simtime::XorShift64::new(22);
        for row in [1, 2, 3, 5, 9, 63, 255] {
            for case in 0..32 {
                let (mj, mk) = ([3, 3, 4, 7][case % 4], row + 2);
                let planes = rng.gen_range_usize(3, 7);
                // One case in four is an empty range, one a single plane,
                // one the whole slab, one anything.
                let i_lo = rng.gen_range_usize(1, planes - 1);
                let (i_lo, i_hi) = match case / 4 % 4 {
                    0 => (i_lo, i_lo),
                    1 => (i_lo, i_lo + 1),
                    2 => (1, planes - 1),
                    _ => (i_lo, rng.gen_range_usize(i_lo, planes)),
                };
                let old: Vec<f32> = (0..planes * mj * mk)
                    .map(|_| {
                        let scale = 1.0 / (1u32 << rng.gen_range_usize(0, 21)) as f32;
                        (rng.next_f32() - 0.5) * scale
                    })
                    .collect();
                let mut want = vec![f32::from_bits(SENTINEL); old.len()];
                let mut got = want.clone();
                let want_gosa = jacobi_sweep_spec(&old, &mut want, mj, mk, i_lo, i_hi);
                let got_gosa = jacobi_sweep(&old, &mut got, mj, mk, i_lo, i_hi);
                let what =
                    format!("row {row} case {case}: {planes}x{mj}x{mk}, planes {i_lo}..{i_hi}");
                assert_eq!(got_gosa.to_bits(), want_gosa.to_bits(), "gosa, {what}");
                if i_lo == i_hi {
                    assert_eq!(got_gosa.to_bits(), 0.0f64.to_bits(), "empty range, {what}");
                }
                for (c, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "cell {c}, {what}");
                    let (i, j, k) = (c / (mj * mk), c / mk % mj, c % mk);
                    let updated = (i_lo..i_hi).contains(&i)
                        && (1..mj - 1).contains(&j)
                        && (1..mk - 1).contains(&k);
                    assert_eq!(
                        g.to_bits() != SENTINEL,
                        updated,
                        "cell {c} = ({i},{j},{k}), {what}"
                    );
                }
            }
        }
    }

    /// `2^e` for `e` in the normal `f64` range.
    fn pow2(e: i32) -> f64 {
        f64::from_bits(((1023 + e) as u64) << 52)
    }

    /// Seeded rows against the `k`-order loop, bit for bit. Accumulators
    /// of every shape the certificate reads — zero, subnormal, an odd last
    /// bit, one ulp below a power of two, a power of two (and exact
    /// round-half-even ties at its ulp), negative, `-0.0`, NaN and `inf` —
    /// over row lengths 0..=17, 255 and 1,029 of values spanning up to
    /// forty binary orders, with zeros, `f32` subnormals, `inf`, NaN and
    /// negatives mixed in. Both paths must be taken often.
    #[test]
    fn add_row_is_the_k_order_sum_bit_for_bit() {
        let mut rng = simtime::XorShift64::new(28);
        let (mut lane_rows, mut k_rows) = (0, 0);
        for len in (0..=17).chain([255, 1029]) {
            for case in 0..1000 {
                let e = rng.gen_range_usize(0, 81) as i32 - 40;
                let acc = match case % 6 {
                    0 => 0.0,
                    1 => f64::from_bits(rng.gen_range_u64(1, 1 << 52)),
                    2 => f64::from_bits((pow2(e) * (1.0 + rng.next_f64())).to_bits() | 1),
                    3 => f64::from_bits(pow2(e).to_bits() - 1),
                    4 => pow2(e),
                    _ => [-0.0, -pow2(e), f64::NAN, f64::INFINITY][case / 6 % 4],
                };
                // The row's binary orders: its first value's, `low`, near
                // `acc`'s (or anywhere for a zero or subnormal `acc`), up
                // to `low + span`.
                let low = if case % 6 < 2 {
                    rng.gen_range_usize(0, 121) as i32 - 80
                } else {
                    e - rng.gen_range_usize(0, 57) as i32
                };
                let span = [0, 1, 3, 8, 20, 40][rng.gen_range_usize(0, 6)];
                let mut row: Vec<f32> = (0..len)
                    .map(|i| {
                        let order = match i {
                            0 => low,
                            _ => low + rng.gen_range_usize(0, span + 1) as i32,
                        };
                        (pow2(order) * (1.0 + rng.next_f64())) as f32
                    })
                    .collect();
                if case % 6 == 4 && rng.gen_bool(0.25) {
                    // Every add is an exact tie at `acc`'s ulp (or one and
                    // a half of it).
                    let half_ulp = pow2(e - 53) as f32;
                    row.fill(half_ulp * [1.0, 3.0][rng.gen_range_usize(0, 2)]);
                }
                if len > 0 && rng.gen_bool(0.3) {
                    let at = rng.gen_range_usize(0, len);
                    let subnormal = f32::from_bits(rng.gen_range_u64(1, 1 << 23) as u32);
                    match rng.gen_range_usize(0, 6) {
                        0 => row[at] = 0.0,
                        1 => row[at] = subnormal,
                        2 => row[at] = f32::INFINITY,
                        3 => row[at] = [f32::NAN, -f32::NAN][rng.gen_range_usize(0, 2)],
                        _ => row.iter_mut().for_each(|x| {
                            if rng.gen_bool(0.5) {
                                *x = -*x;
                            }
                        }),
                    }
                }
                let want = k_order(acc, &row);
                let got = add_row(acc, &row);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "len {len} case {case}: acc {acc:e}, row {row:?}"
                );
                match lanes(acc, &row) {
                    Some(_) => lane_rows += 1,
                    None => k_rows += 1,
                }
            }
        }
        assert!(
            lane_rows >= 100 && k_rows >= 100,
            "lanes {lane_rows}, k order {k_rows}"
        );
    }

    /// The shape `himeno_paper` runs: Himeno M over 8 ranks, each slab
    /// swept as two halves, so 16 plane blocks whose residuals start at
    /// zero. A certificate that always failed would keep the bits and lose
    /// the speed: over 4 sweeps, at least 99% of the rows take the lanes.
    #[test]
    fn the_eight_rank_m_shape_takes_the_lane_path() {
        const A3: f32 = 1.0 / 6.0;
        let (ranks, iters) = (8, 4);
        let (mi, mj, mk) = GridSize::M.dims();
        let plane = mj * mk;
        let mut blocks = Vec::new();
        let mut start = 1;
        for r in 0..ranks {
            let n = (mi - 2) / ranks + usize::from(r < (mi - 2) % ranks);
            blocks.extend([(start, start + n / 2), (start + n / 2, start + n)]);
            start += n;
        }
        let mut old = HimenoGrid::new(GridSize::M).p;
        let mut new = old.clone();
        let mut sq = vec![0.0f32; mk - 2];
        let (mut rows, mut lane_rows) = (0, 0);
        for _ in 0..iters {
            for &(i_lo, i_hi) in &blocks {
                let mut gosa = 0.0;
                for i in i_lo..i_hi {
                    for j in 1..mj - 1 {
                        for (k, s) in (1..mk - 1).zip(&mut sq) {
                            let c = i * plane + j * mk + k;
                            let s0 = old[c + plane]
                                + old[c + mk]
                                + old[c + 1]
                                + old[c - plane]
                                + old[c - mk]
                                + old[c - 1];
                            let ss = s0 * A3 - old[c];
                            *s = ss * ss;
                        }
                        rows += 1;
                        lane_rows += usize::from(lanes(gosa, &sq).is_some());
                        gosa = add_row(gosa, &sq);
                    }
                }
                let swept = jacobi_sweep(&old, &mut new, mj, mk, i_lo, i_hi);
                assert_eq!(swept.to_bits(), gosa.to_bits(), "planes {i_lo}..{i_hi}");
            }
            std::mem::swap(&mut old, &mut new);
        }
        assert_eq!(rows, iters * (mi - 2) * (mj - 2));
        assert!(
            lane_rows * 100 >= rows * 99,
            "{lane_rows} of {rows} rows took the lanes"
        );
    }
}
