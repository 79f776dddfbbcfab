//! Property-style tests on the transfer layer: deterministically seeded
//! case generation (a local xorshift replaces the external `proptest` /
//! `rand` dependencies so the workspace builds fully offline). Arbitrary
//! sizes, offsets and strategies must deliver bytes intact with sane
//! timing — and fault-injected runs must be exactly reproducible.

use clmpi_repro::clmpi::{data_plane_faults, ClMpi, SystemConfig, TransferStrategy};
use clmpi_repro::himeno::{run_himeno_with_faults, GridSize, HimenoConfig, Variant};
use clmpi_repro::minimpi::{run_world_faulty, run_world_sized, FaultPlan};
use clmpi_repro::simtime::XorShift64;

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = XorShift64::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn arb_strategy(rng: &mut XorShift64) -> TransferStrategy {
    match rng.next_u64() % 4 {
        0 => TransferStrategy::Pinned,
        1 => TransferStrategy::Mapped,
        2 => TransferStrategy::Auto,
        _ => TransferStrategy::Pipelined(1 + (rng.next_u64() as usize) % (512 * 1024)),
    }
}

#[test]
fn any_transfer_delivers_intact() {
    // Each case spins up a 2-rank world with real threads; keep the case
    // count modest (the proptest original used 24 cases too).
    let mut rng = XorShift64::new(0x70707e57);
    for case in 0..24 {
        let strategy = arb_strategy(&mut rng);
        let size = 1 + (rng.next_u64() as usize) % 600_000;
        let offset = (rng.next_u64() as usize) % 4096;
        let seed = rng.next_u64();
        let total = offset + size + 128;
        let res = run_world_sized(SystemConfig::ricc().cluster.clone(), 2, move |p| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            rt.set_forced_strategy(Some(strategy));
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(total);
            let payload = pattern(size, seed);
            let ok = if p.rank() == 0 {
                buf.store(offset, &payload).unwrap();
                rt.enqueue_send_buffer(&q, &buf, true, offset, size, 1, 1, &[], &p.actor)
                    .unwrap();
                true
            } else {
                rt.enqueue_recv_buffer(&q, &buf, true, offset, size, 0, 1, &[], &p.actor)
                    .unwrap();
                buf.load(offset, size).unwrap().as_slice() == payload
                    // Bytes outside the transfer window untouched:
                    && buf.load(0, offset).unwrap().as_slice() == vec![0u8; offset]
                    && buf.load(offset + size, 128).unwrap().as_slice() == vec![0u8; 128]
            };
            rt.shutdown(&p.actor);
            (ok, p.actor.now_ns())
        });
        assert!(
            res.outputs.iter().all(|(ok, _)| *ok),
            "case {case}: {strategy:?} size {size} offset {offset} corrupted data"
        );
        // Timing sanity: never faster than the wire allows.
        let wire_floor = SystemConfig::ricc().cluster.link.message_ns(size);
        let elapsed = res.outputs.iter().map(|(_, t)| *t).max().unwrap();
        assert!(
            elapsed >= wire_floor / 2,
            "case {case}: elapsed {elapsed} vs floor {wire_floor}"
        );
    }
}

#[test]
fn sendrecv_style_exchange_never_deadlocks() {
    let mut rng = XorShift64::new(0x5e4d2ecf);
    for _ in 0..8 {
        let size_a = 1 + (rng.next_u64() as usize) % 200_000;
        let size_b = 1 + (rng.next_u64() as usize) % 200_000;
        let res = run_world_sized(SystemConfig::cichlid().cluster.clone(), 2, move |p| {
            let rt = ClMpi::new(&p, SystemConfig::cichlid());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let my_size = if p.rank() == 0 { size_a } else { size_b };
            let peer_size = if p.rank() == 0 { size_b } else { size_a };
            let mine = rt.context().create_buffer(my_size);
            let theirs = rt.context().create_buffer(peer_size);
            let peer = 1 - p.rank();
            let es = rt
                .enqueue_send_buffer(
                    &q,
                    &mine,
                    false,
                    0,
                    my_size,
                    peer,
                    p.rank() as i32,
                    &[],
                    &p.actor,
                )
                .unwrap();
            let er = rt
                .enqueue_recv_buffer(
                    &q,
                    &theirs,
                    false,
                    0,
                    peer_size,
                    peer,
                    peer as i32,
                    &[],
                    &p.actor,
                )
                .unwrap();
            es.wait(&p.actor);
            er.wait(&p.actor);
            rt.shutdown(&p.actor);
            true
        });
        assert!(res.outputs.iter().all(|&b| b));
    }
}

/// Fault determinism as a property: across several (seed, drop-rate)
/// plans, two runs of the same plan agree on every observable — payloads,
/// elapsed virtual time, fault counters, and the full trace.
#[test]
fn same_fault_plan_reproduces_the_run_exactly() {
    for (seed, drop_p, jitter) in [
        (1u64, 0.02, 0u64),
        (99, 0.10, 25_000),
        (0xfeed, 0.30, 80_000),
    ] {
        let run = move || {
            let plan = data_plane_faults(FaultPlan::drops(seed, drop_p).with_jitter(jitter));
            let res = run_world_faulty(SystemConfig::ricc().cluster.clone(), 2, plan, move |p| {
                let rt = ClMpi::new(&p, SystemConfig::ricc());
                rt.set_forced_strategy(Some(TransferStrategy::Pipelined(1 << 16)));
                let q = rt.context().create_queue(0, format!("r{}", p.rank()));
                let buf = rt.context().create_buffer(512 << 10);
                let out = if p.rank() == 0 {
                    buf.store(0, &pattern(512 << 10, seed ^ 0xabc)).unwrap();
                    rt.enqueue_send_buffer(&q, &buf, true, 0, 512 << 10, 1, 1, &[], &p.actor)
                        .unwrap();
                    Vec::new()
                } else {
                    rt.enqueue_recv_buffer(&q, &buf, true, 0, 512 << 10, 0, 1, &[], &p.actor)
                        .unwrap();
                    buf.load(0, 512 << 10).unwrap().as_slice().to_vec()
                };
                rt.shutdown(&p.actor);
                out
            });
            let spans: Vec<String> = res
                .trace
                .spans()
                .iter()
                .map(|s| format!("{}|{}|{}|{}", s.lane, s.label, s.start, s.end))
                .collect();
            (res.elapsed_ns, res.outputs.clone(), res.fault_counts, spans)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seed {seed} p {drop_p} must reproduce exactly");
        assert_eq!(
            a.1[1],
            pattern(512 << 10, seed ^ 0xabc),
            "payload must arrive intact despite drops"
        );
    }
}

/// The issue's end-to-end acceptance case: Himeno M on 2 ranks, clMPI
/// variant, under a seeded 1% data-plane drop rate — the run completes,
/// the numerics are bit-identical to the fault-free reference, and the
/// retries are visible in both the transfer stats and the trace.
#[test]
fn himeno_m_numerics_survive_one_percent_drop() {
    let cfg = || HimenoConfig {
        size: GridSize::M,
        iters: 2,
        sys: SystemConfig::cichlid(),
        nodes: 2,
        strategy: None,
        halo: Default::default(),
    };
    let clean = run_himeno_with_faults(Variant::ClMpi, cfg(), FaultPlan::none());
    assert_eq!(clean.fault_counts.dropped(), 0);
    assert_eq!(clean.transfer_faults, Default::default());

    let faulty = run_himeno_with_faults(
        Variant::ClMpi,
        cfg(),
        data_plane_faults(FaultPlan::drops(2, 0.01)),
    );
    // Bit-identical physics: drops delay chunks but never corrupt them.
    assert_eq!(faulty.checksum.to_bits(), clean.checksum.to_bits());
    assert_eq!(faulty.gosa.to_bits(), clean.gosa.to_bits());
    // The run really was lossy, and the runtime really did retry.
    assert!(faulty.fault_counts.dropped() > 0, "1% plan never fired");
    assert!(faulty.transfer_faults.retries > 0, "no retries recorded");
    assert_eq!(faulty.transfer_faults.failures, 0);
    assert!(
        faulty
            .trace
            .spans()
            .iter()
            .any(|s| s.lane.contains(".fault")),
        "retries must appear in the fault trace lane"
    );
    // A perturbed fabric can only slow the run down.
    assert!(faulty.elapsed_ns >= clean.elapsed_ns);
}
