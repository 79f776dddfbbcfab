//! A halo plane that clMPI receives lands where it arrived, and a kernel
//! reads it there when it landed whole, as one extent. Chunks that do not
//! tile a plane one to one take the other path: the kernel's view copies
//! them in first. Both must give the same bits.

use clmpi::{SystemConfig, TransferStrategy};
use himeno::{
    interior_checksum, reference_jacobi, run_himeno, GridSize, HaloMode, HimenoConfig, Variant,
};

/// A forced `Pipelined` chunk smaller than the plane lands each ghost
/// plane as several extents. The runs give the bits of the run whose
/// planes land whole, on overlap slabs and on 1-plane slabs (whose
/// kernels read both ghosts); and those bits match the serial reference.
#[test]
fn halos_in_chunks_that_do_not_tile_a_plane_give_the_same_bits() {
    let iters = 4;
    for (size, nodes) in [(GridSize::Xs, 4), (GridSize::Custom(9, 9, 17), 7)] {
        let (mi, mj, mk) = size.dims();
        let plane_bytes = mj * mk * 4;
        let run = |strategy| {
            let mut sys = SystemConfig::ricc();
            sys.cluster.nodes = sys.cluster.nodes.max(nodes);
            let cfg = HimenoConfig {
                size,
                iters,
                sys,
                nodes,
                strategy: Some(strategy),
                halo: HaloMode::Plane,
            };
            run_himeno(Variant::ClMpi, cfg)
        };
        let whole = run(TransferStrategy::Pinned);
        let reference = reference_jacobi(size, iters);
        let ref_sum = interior_checksum(&reference.p, mj, mk, 1..mi - 1);
        assert!(
            (whole.checksum - ref_sum).abs() / ref_sum < 1e-10
                && (whole.gosa - reference.gosa).abs() / reference.gosa < 1e-9,
            "{size:?} x{nodes}: whole planes must match the serial reference"
        );
        for chunk in [1_000, plane_bytes / 2 + 2, plane_bytes - 4] {
            let r = run(TransferStrategy::Pipelined(chunk));
            let what =
                format!("{size:?} x{nodes}, {chunk}-byte chunks of {plane_bytes}-byte planes");
            assert_eq!(
                r.checksum.to_bits(),
                whole.checksum.to_bits(),
                "{what}: checksum"
            );
            assert_eq!(r.gosa.to_bits(), whole.gosa.to_bits(), "{what}: gosa");
        }
    }
}
