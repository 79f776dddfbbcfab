//! Cross-variant validation: every implementation must produce the same
//! physics as the single-threaded reference, and their relative timing
//! must reflect the paper's overlap story.

use clmpi::obs::{chrome_trace, fnv1a, ObsSummary};
use clmpi::{PackMode, SystemConfig};
use himeno::{
    interior_checksum, reference_jacobi, run_himeno, GridSize, HaloMode, HimenoConfig, Variant,
};

fn cfg(sys: SystemConfig, nodes: usize, iters: usize) -> HimenoConfig {
    HimenoConfig {
        size: GridSize::Xs,
        iters,
        sys,
        nodes,
        strategy: None,
        halo: Default::default(),
    }
}

fn reference_checksum(size: GridSize, iters: usize) -> (f64, f64) {
    let r = reference_jacobi(size, iters);
    let (mi, mj, mk) = size.dims();
    (interior_checksum(&r.p, mj, mk, 1..mi - 1), r.gosa)
}

fn assert_matches_reference(variant: Variant, nodes: usize) {
    let iters = 4;
    let res = run_himeno(variant, cfg(SystemConfig::cichlid(), nodes, iters));
    let (ref_sum, ref_gosa) = reference_checksum(GridSize::Xs, iters);
    let rel_p = (res.checksum - ref_sum).abs() / ref_sum;
    let rel_g = (res.gosa - ref_gosa).abs() / ref_gosa;
    assert!(
        rel_p < 1e-10,
        "{} x{nodes}: checksum {} vs reference {}",
        variant.name(),
        res.checksum,
        ref_sum
    );
    assert!(
        rel_g < 1e-9,
        "{} x{nodes}: gosa {} vs reference {}",
        variant.name(),
        res.gosa,
        ref_gosa
    );
}

#[test]
fn serial_matches_reference_1_node() {
    assert_matches_reference(Variant::Serial, 1);
}

#[test]
fn serial_matches_reference_4_nodes() {
    assert_matches_reference(Variant::Serial, 4);
}

#[test]
fn hand_optimized_matches_reference_2_nodes() {
    assert_matches_reference(Variant::HandOptimized, 2);
}

#[test]
fn hand_optimized_matches_reference_4_nodes() {
    assert_matches_reference(Variant::HandOptimized, 4);
}

#[test]
fn clmpi_matches_reference_2_nodes() {
    assert_matches_reference(Variant::ClMpi, 2);
}

#[test]
fn clmpi_matches_reference_4_nodes() {
    assert_matches_reference(Variant::ClMpi, 4);
}

#[test]
fn clmpi_matches_reference_3_nodes_uneven_split() {
    assert_matches_reference(Variant::ClMpi, 3);
}

#[test]
fn gpu_aware_matches_reference_4_nodes() {
    assert_matches_reference(Variant::GpuAwareMpi, 4);
}

#[test]
fn gpu_aware_matches_reference_3_nodes() {
    assert_matches_reference(Variant::GpuAwareMpi, 3);
}

#[test]
fn degenerate_slabs_match_reference() {
    // 10 ranks over a 7-plane interior (base == 0): ranks 0–6 own a
    // single plane each — ha == 1, so the B half is empty, the whole
    // slab is one "A" kernel, and the same plane is sent in both
    // directions — and ranks 7–9 own zero planes. Every variant must
    // still reproduce the serial reference's physics, in both slab
    // shapes at once.
    let size = GridSize::Custom(9, 9, 17);
    let iters = 4;
    let (ref_sum, ref_gosa) = reference_checksum(size, iters);
    for variant in [
        Variant::Serial,
        Variant::HandOptimized,
        Variant::ClMpi,
        Variant::ClMpiBlocked,
        Variant::GpuAwareMpi,
    ] {
        // 5 ranks: n = [2,2,1,1,1] — a 2-plane slab neighbors a 1-plane
        // slab, covering the mixed overlap/degenerate edge protocol.
        for nodes in [5usize, 7, 10] {
            // Cichlid's cost model scaled out to admit the 10-rank world.
            let mut sys = SystemConfig::cichlid();
            sys.cluster.nodes = sys.cluster.nodes.max(nodes);
            let res = run_himeno(
                variant,
                HimenoConfig {
                    size,
                    iters,
                    sys,
                    nodes,
                    strategy: None,
                    halo: Default::default(),
                },
            );
            let rel_p = (res.checksum - ref_sum).abs() / ref_sum;
            let rel_g = (res.gosa - ref_gosa).abs() / ref_gosa;
            assert!(
                rel_p < 1e-10,
                "{} x{nodes} degenerate: checksum {} vs reference {}",
                variant.name(),
                res.checksum,
                ref_sum
            );
            assert!(
                rel_g < 1e-9,
                "{} x{nodes} degenerate: gosa {} vs reference {}",
                variant.name(),
                res.gosa,
                ref_gosa
            );
        }
    }
}

#[test]
fn gpu_aware_sits_between_serial_and_clmpi() {
    // §II's argument: GPU-aware MPI gets the optimized transfers (beats
    // a serial joint code) but keeps the host-blocking serialization
    // (loses to clMPI when communication matters).
    let iters = 6;
    let serial = run_himeno(Variant::Serial, cfg(SystemConfig::cichlid(), 4, iters));
    let gpu = run_himeno(Variant::GpuAwareMpi, cfg(SystemConfig::cichlid(), 4, iters));
    let cl = run_himeno(Variant::ClMpi, cfg(SystemConfig::cichlid(), 4, iters));
    assert!(
        gpu.gflops > serial.gflops,
        "gpu-aware {} > serial {}",
        gpu.gflops,
        serial.gflops
    );
    assert!(
        cl.gflops > gpu.gflops,
        "clMPI {} > gpu-aware {}",
        cl.gflops,
        gpu.gflops
    );
}

#[test]
fn overlap_beats_serial_on_cichlid_4_nodes() {
    // The Fig. 9(a) ordering at 4 nodes: serial < hand-optimized ≤ clMPI.
    let iters = 6;
    let serial = run_himeno(Variant::Serial, cfg(SystemConfig::cichlid(), 4, iters));
    let hand = run_himeno(
        Variant::HandOptimized,
        cfg(SystemConfig::cichlid(), 4, iters),
    );
    let cl = run_himeno(Variant::ClMpi, cfg(SystemConfig::cichlid(), 4, iters));
    assert!(
        hand.gflops > serial.gflops,
        "hand {} > serial {}",
        hand.gflops,
        serial.gflops
    );
    assert!(
        cl.gflops > hand.gflops,
        "clMPI {} > hand {} when communication is exposed",
        cl.gflops,
        hand.gflops
    );
}

#[test]
fn comp_comm_ratio_reported_by_serial() {
    let res = run_himeno(Variant::Serial, cfg(SystemConfig::cichlid(), 2, 3));
    assert!(res.comp_ns > 0);
    assert!(res.comm_ns > 0);
}

#[test]
fn single_node_variants_agree_on_gflops_scale() {
    // With no communication, all variants are compute-bound and should be
    // within a few percent of each other.
    let iters = 3;
    let s = run_himeno(Variant::Serial, cfg(SystemConfig::ricc(), 1, iters));
    let c = run_himeno(Variant::ClMpi, cfg(SystemConfig::ricc(), 1, iters));
    // On the tiny XS grid the clMPI variant pays one extra kernel launch
    // per iteration (two half-kernels vs one full kernel), which is a
    // visible fraction of a ~60 µs iteration; on M it vanishes.
    let ratio = s.gflops / c.gflops;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "serial {} vs clMPI {} on one node",
        s.gflops,
        c.gflops
    );
}

/// `(pack mode, [elapsed_ns, sched_events, ObsSummary::hash])` of the
/// datatype halo on 4 RICC ranks. Recorded on the event core and
/// reproduced by the thread-per-machine executor before that executor
/// was retired.
#[rustfmt::skip]
const DATATYPE_HALO: &[(PackMode, [u64; 3])] = &[
    (PackMode::HostPack, [3350382, 196, 0x0d06d5cc056913d7]),
    (PackMode::DevicePack, [769854, 196, 0x16fab215aa323dd4]),
    (PackMode::PipelinedPack, [769854, 196, 0x16fab215aa323dd4]),
];

#[test]
fn datatype_halo_is_bitwise_identical_and_reproduces_its_rows() {
    // The strided-face exchange (interior Subarray per plane) must not
    // change the physics at all: same decomposition, same arithmetic,
    // same summation order — so checksum and gosa are *bitwise* equal to
    // the contiguous-plane baseline, which itself matches the serial
    // reference. Verified under every pack mode, each of which also
    // reproduces its committed schedule fingerprint.
    let iters = 4;
    let nodes = 4;
    let run = |halo: HaloMode| {
        let mut c = cfg(SystemConfig::ricc(), nodes, iters);
        c.halo = halo;
        run_himeno(Variant::ClMpi, c)
    };
    let (ref_sum, ref_gosa) = reference_checksum(GridSize::Xs, iters);
    let base = run(HaloMode::Plane);
    assert!((base.checksum - ref_sum).abs() / ref_sum < 1e-10);
    let mut table = String::new();
    let mut moved = 0;
    for &(pack, want) in DATATYPE_HALO {
        let r = run(HaloMode::Datatype(pack));
        assert_eq!(
            r.checksum.to_bits(),
            base.checksum.to_bits(),
            "{} halo: checksum must be bitwise identical",
            pack.name()
        );
        assert_eq!(
            r.gosa.to_bits(),
            base.gosa.to_bits(),
            "{} halo: gosa must be bitwise identical",
            pack.name()
        );
        assert!(
            (r.checksum - ref_sum).abs() / ref_sum < 1e-10
                && (r.gosa - ref_gosa).abs() / ref_gosa < 1e-9,
            "{} halo: must match the serial reference",
            pack.name()
        );
        let got = [
            r.elapsed_ns,
            r.sched_events,
            ObsSummary::from_trace(&r.trace).hash(),
        ];
        moved += usize::from(got != want);
        let mark = if got == want { "" } else { " // moved" };
        table.push_str(&format!(
            "    (PackMode::{pack:?}, [{}, {}, {:#018x}]),{mark}\n",
            got[0], got[1], got[2]
        ));
    }
    assert_eq!(
        moved, 0,
        "{moved} committed row(s) moved; measured:\n{table}"
    );
}

#[test]
fn device_pack_halo_beats_host_pack_halo() {
    // The interior face of an Xs plane is 31 noncontiguous rows, so the
    // host-pack path stages 31 PCIe hops per exchange while device-pack
    // runs one pack kernel and a single hop. Device-pack must win.
    // (Full-plane stays the default: for a face this small and nearly
    // dense, the extra pack/unpack kernel launches cost more than the
    // shell bytes they avoid sending.)
    let iters = 4;
    let time = |halo: HaloMode| {
        let mut c = cfg(SystemConfig::cichlid(), 4, iters);
        c.halo = halo;
        run_himeno(Variant::ClMpi, c).elapsed_ns
    };
    let host = time(HaloMode::Datatype(PackMode::HostPack));
    let device = time(HaloMode::Datatype(PackMode::DevicePack));
    assert!(
        device < host,
        "device-pack face ({device}) must beat host-pack face ({host})"
    );
}

/// One pinned run: variant, world, halo mode, and the four numbers it
/// must reproduce — `[elapsed_ns, sched_events, ObsSummary::hash,
/// fnv1a(chrome_trace)]`. World `0` is Himeno S on 4 Cichlid nodes (every
/// slab ≥ 15 planes); any other value is that many ranks over the 7-plane
/// interior of `degenerate_slabs_match_reference` (3: slabs of 3, 2, 2
/// planes; 5: 2, 2, 1, 1, 1; 7: all 1; 10: seven of 1 and three of 0).
type Golden = (Variant, usize, HaloMode, [u64; 4]);

const PLANE: HaloMode = HaloMode::Plane;
const DEVICE_PACK: HaloMode = HaloMode::Datatype(PackMode::DevicePack);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    (Variant::Serial, 0, PLANE, [4583086, 208, 0x08cd6f3b01758eff, 0x618f8d5c952b2732]),
    (Variant::HandOptimized, 0, PLANE, [3154104, 272, 0x7fcee4d88d02b975, 0x333f3d0d5bc3f5dc]),
    (Variant::ClMpi, 0, PLANE, [2753576, 196, 0xe7bc5961e910a03c, 0x7c6f1d637c6a488f]),
    (Variant::ClMpiBlocked, 0, PLANE, [2963576, 196, 0xb42b20f8acf6b8a2, 0x4ab54a8836a9586d]),
    (Variant::GpuAwareMpi, 0, PLANE, [3123576, 176, 0x51510b92d835f900, 0xecc23967a57cdd13]),
    (Variant::Serial, 3, PLANE, [843049, 144, 0x9614f591e5b70149, 0x7c7059f1652ca608]),
    (Variant::HandOptimized, 3, PLANE, [812004, 192, 0x5a6250c03b8ed3af, 0x51678a179b7eb814]),
    (Variant::ClMpi, 3, PLANE, [637775, 143, 0xe4febd178fd0fc02, 0x1d940982c1357064]),
    (Variant::ClMpiBlocked, 3, PLANE, [693755, 143, 0xef861436e5f03b08, 0xf00a95a05d08a167]),
    (Variant::GpuAwareMpi, 3, PLANE, [805692, 128, 0xc05a0a9ff65216f2, 0x0754ff6734923e8d]),
    (Variant::Serial, 5, PLANE, [1228149, 272, 0x1799b354ac591056, 0xa0fc070f13ada5d8]),
    (Variant::HandOptimized, 5, PLANE, [1008015, 316, 0x6afa7e51e9500668, 0x41956b4284a448c0]),
    (Variant::ClMpi, 5, PLANE, [935465, 213, 0x631ceeffb56ac039, 0x37568792fdc2d040]),
    (Variant::ClMpiBlocked, 5, PLANE, [945047, 213, 0x141f629eaac737a4, 0x21584630c8724295]),
    (Variant::GpuAwareMpi, 5, PLANE, [1058319, 188, 0x55449bc957f0afee, 0xdde73f7ad652b0eb]),
    (Variant::Serial, 7, PLANE, [1454633, 400, 0x712430c080bd03ba, 0x265490a80c0e8093]),
    (Variant::HandOptimized, 7, PLANE, [1051846, 428, 0xa4b2a0436e4dd824, 0xe70caed6f69b3c13]),
    (Variant::ClMpi, 7, PLANE, [1015883, 271, 0x85544a36a7747804, 0x64f1d968f3a11f57]),
    (Variant::ClMpiBlocked, 7, PLANE, [1070256, 271, 0xb17cabf060e1285b, 0xf3d8e9c4087deff0]),
    (Variant::GpuAwareMpi, 7, PLANE, [1090256, 236, 0xe185554fcd77f8a5, 0x88eef1a98f4509a4]),
    (Variant::Serial, 10, PLANE, [1534633, 448, 0x62644dd665eee530, 0xe12f05428a915309]),
    (Variant::HandOptimized, 10, PLANE, [1139858, 488, 0xff9c25828b5249d1, 0x8c1395a601c503af]),
    (Variant::ClMpi, 10, PLANE, [1141528, 346, 0x58f0ab3fac01aadf, 0x69b74f9398dc4d6d]),
    (Variant::ClMpiBlocked, 10, PLANE, [1150692, 346, 0x381e760ed0e403f4, 0x6add08ba88f58bb6]),
    (Variant::GpuAwareMpi, 10, PLANE, [1170692, 296, 0xd0acd6903849ca60, 0x75de1859a1bdb31a]),
    (Variant::ClMpi, 0, DEVICE_PACK, [2730918, 196, 0x31463ab963c4fc36, 0x87cf04536d2d697c]),
    (Variant::ClMpi, 5, DEVICE_PACK, [1247956, 213, 0xa6cf38af6a3fd882, 0x0f3bad583de7afbc]),
];

#[test]
fn every_variant_reproduces_its_pinned_schedule() {
    // The enqueue order and the wait lists of every variant are bytes:
    // they fix op ids, child-span order, virtual time and the scheduler's
    // transition count. Checksums cannot see a reordered enqueue; these
    // fingerprints can. Independent of the scheduler's poll order (CI
    // runs it under 32 `SIM_PERMUTE_SEED` seeds).
    let iters = 4;
    let mut table = String::new();
    let mut moved = 0;
    for &(variant, world, halo, want) in GOLDEN {
        let mut sys = SystemConfig::cichlid();
        let (size, nodes) = match world {
            0 => (GridSize::S, 4),
            n => (GridSize::Custom(9, 9, 17), n),
        };
        sys.cluster.nodes = sys.cluster.nodes.max(nodes);
        let res = run_himeno(
            variant,
            HimenoConfig {
                size,
                iters,
                sys,
                nodes,
                strategy: None,
                halo,
            },
        );
        let got = [
            res.elapsed_ns,
            res.sched_events,
            ObsSummary::from_trace(&res.trace).hash(),
            fnv1a(chrome_trace(&res.trace).as_bytes()),
        ];
        moved += usize::from(got != want);
        table.push_str(&format!(
            "    (Variant::{variant:?}, {world}, {}, [{}, {}, {:#018x}, {:#018x}]),{}\n",
            if halo == PLANE {
                "PLANE"
            } else {
                "DEVICE_PACK"
            },
            got[0],
            got[1],
            got[2],
            got[3],
            if got == want { "" } else { " // moved" }
        ));
    }
    assert_eq!(moved, 0, "{moved} pinned run(s) moved; measured:\n{table}");
}
