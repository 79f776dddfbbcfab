//! Single-threaded reference solver used to validate every distributed
//! variant.

use crate::grid::{jacobi_sweep, GridSize, HimenoGrid};

/// Result of the reference run: final pressure field and last residual.
pub struct ReferenceResult {
    /// Final pressure field (`mimax × mjmax × mkmax`).
    pub p: Vec<f32>,
    /// `gosa` of the final iteration.
    pub gosa: f64,
}

/// Run `iters` Jacobi sweeps on a full grid, double-buffered exactly like
/// the distributed variants (so results are bitwise comparable). Both
/// buffers start as the initial field and a sweep writes interior points
/// only, so nothing has to carry the boundary shell forward. Panics if
/// `size` has a dimension below 3 (no interior point).
pub fn reference_jacobi(size: GridSize, iters: usize) -> ReferenceResult {
    let (mi, mj, mk) = size.solve_dims();
    let mut old = HimenoGrid::new(size).p;
    let mut new = old.clone();
    let mut gosa = 0.0;
    for _ in 0..iters {
        gosa = jacobi_sweep(&old, &mut new, mj, mk, 1, mi - 1);
        std::mem::swap(&mut old, &mut new);
    }
    ReferenceResult { p: old, gosa }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_converges() {
        let r1 = reference_jacobi(GridSize::Custom(17, 17, 33), 1);
        let r10 = reference_jacobi(GridSize::Custom(17, 17, 33), 10);
        assert!(r10.gosa < r1.gosa, "residual shrinks with iterations");
    }

    #[test]
    fn reference_is_deterministic() {
        let a = reference_jacobi(GridSize::Xs, 3);
        let b = reference_jacobi(GridSize::Xs, 3);
        assert_eq!(a.p, b.p);
        assert_eq!(a.gosa, b.gosa);
    }

    /// Both buffers start as the initial field and a sweep writes interior
    /// points only: an odd and an even iteration count return one buffer
    /// each, and either's shell is still the initial field's.
    #[test]
    fn the_shell_of_both_buffers_stays_the_initial_field() {
        let size = GridSize::Custom(7, 6, 5);
        let (mi, mj, mk) = size.dims();
        let init = HimenoGrid::new(size).p;
        for iters in [3, 4] {
            let r = reference_jacobi(size, iters);
            for (c, (got, want)) in r.p.iter().zip(&init).enumerate() {
                let (i, j, k) = (c / (mj * mk), c / mk % mj, c % mk);
                let interior = (1..mi - 1).contains(&i)
                    && (1..mj - 1).contains(&j)
                    && (1..mk - 1).contains(&k);
                assert_eq!(got != want, interior, "{iters} sweeps, ({i},{j},{k})");
            }
        }
    }
}
