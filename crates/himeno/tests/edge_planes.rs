//! A slab's edge planes — ghosts `0` and `n + 1`, and planes `1` and `n`,
//! which its neighbours receive — are allocations of their own, landed in
//! its buffers; the planes between them live in the buffers' words. A
//! slab of one plane has no words at all (plane 1 is plane `n`), one of
//! two has planes 1 and `n` side by side, one of three has one word plane
//! between them. Every variant must give the serial reference's bits on
//! each shape.

use clmpi::{PackMode, SystemConfig};
use himeno::{
    interior_checksum, reference_jacobi, run_himeno, GridSize, HaloMode, HimenoConfig, Variant,
};

/// The reference field's interior checksum summed rank by rank over
/// `nodes` contiguous slabs, in rank order: the order `run_himeno` adds
/// its ranks' checksums in, so equal fields give equal bits.
fn reference_by_rank(size: GridSize, iters: usize, nodes: usize) -> (f64, f64) {
    let r = reference_jacobi(size, iters);
    let (mi, mj, mk) = size.dims();
    let (base, rem) = ((mi - 2) / nodes, (mi - 2) % nodes);
    let checksum = (0..nodes)
        .map(|rank| {
            let start = 1 + rank * base + rank.min(rem);
            let n = base + usize::from(rank < rem);
            interior_checksum(&r.p, mj, mk, start..start + n)
        })
        .sum();
    (checksum, r.gosa)
}

#[test]
fn slabs_of_one_two_and_three_planes_give_the_reference_bits() {
    // Six interior planes: 6 ranks of one plane, 3 of two, 2 of three,
    // and 4 ranks of two, two, one and one.
    let size = GridSize::Custom(8, 9, 17);
    let variants = [
        Variant::Serial,
        Variant::HandOptimized,
        Variant::ClMpi,
        Variant::ClMpiBlocked,
        Variant::GpuAwareMpi,
    ];
    let systems = [
        SystemConfig::cichlid as fn() -> SystemConfig,
        SystemConfig::ricc,
    ];
    let mut runs = 0;
    for nodes in [6, 3, 2, 4] {
        for iters in [3, 4] {
            let (want, want_gosa) = reference_by_rank(size, iters, nodes);
            for sys in systems {
                let mut sys = sys();
                sys.cluster.nodes = sys.cluster.nodes.max(nodes);
                let halos = [HaloMode::Plane, HaloMode::Datatype(PackMode::HostPack)];
                for (variant, halo) in variants
                    .into_iter()
                    .flat_map(|v| halos.map(|h| (v, h)))
                    .filter(|&(v, h)| h == HaloMode::Plane || v == Variant::ClMpi)
                {
                    let cfg = HimenoConfig {
                        size,
                        iters,
                        sys: sys.clone(),
                        nodes,
                        strategy: None,
                        halo,
                    };
                    let r = run_himeno(variant, cfg);
                    let what = format!("{} {halo:?} x{nodes}, {iters} iterations", variant.name());
                    assert_eq!(r.checksum.to_bits(), want.to_bits(), "{what}: checksum");
                    assert!(
                        (r.gosa - want_gosa).abs() / want_gosa < 1e-9,
                        "{what}: gosa {} vs reference {want_gosa}",
                        r.gosa
                    );
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, 4 * 2 * 2 * 6);
}
