//! Deterministic derived-datatype transfer benchmark: strided vectors
//! ring-shifted across RICC ranks under each pack lowering (host gather,
//! on-device pack kernel, pipelined device pack), swept over packed
//! payload sizes and world counts, plus the Himeno halo ablation
//! (contiguous plane vs interior-face datatype).
//!
//! Outputs:
//!
//! 1. `BENCH_datatype.json` (repo root) — virtual-time results: per
//!    (size, world, mode) ring makespan and sustained bandwidth, the
//!    Himeno halo ablation, and the obs summary of the largest pipelined
//!    run with its FNV-1a fingerprint. Pure function of the simulation →
//!    byte-identical across reruns.
//! 2. `results/datatype.txt` — human-readable summary table.
//!
//! The binary *asserts* the PR's acceptance bar — device-pack sustained
//! bandwidth ≥ host-pack at every size — so CI fails on regression.
//!
//! Usage: `datatype [--out path] [--results path]`

use clmpi::obs::ObsSummary;
use clmpi::{ClMpi, PackMode, SystemConfig};
use clmpi_bench::write_artifact;
use himeno::{run_himeno, GridSize, HaloMode, HimenoConfig, Variant};
use minimpi::{run_world_sized, DerivedType, Process};
use simtime::Trace;

/// Strided vector: 16 KiB rows taken out of 32 KiB-strided records.
const BLOCKLEN: usize = 16 << 10;
const STRIDE: usize = 32 << 10;

/// Swept row counts → packed payloads of 256 KiB … 16 MiB.
const COUNTS: [usize; 4] = [16, 64, 256, 1024];
const WORLDS: [usize; 3] = [2, 4, 8];
const MODES: [PackMode; 3] = [
    PackMode::HostPack,
    PackMode::DevicePack,
    PackMode::PipelinedPack,
];

fn vector(count: usize) -> DerivedType {
    DerivedType::Vector {
        count,
        blocklen: BLOCKLEN,
        stride: STRIDE,
        extent: count * STRIDE,
    }
}

/// Ring-shift one strided vector across `world` RICC ranks under `mode`;
/// returns the makespan of the exchange and the run's trace.
fn timed_ring(count: usize, world: usize, mode: PackMode) -> (u64, Trace) {
    let res = run_world_sized(
        SystemConfig::ricc().cluster.clone(),
        world,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let ty = vector(count).commit().expect("vector commits");
            let buf = rt.context().create_buffer(ty.extent());
            buf.store(0, &vec![p.rank() as u8 + 1; ty.extent()])
                .expect("seed payload");
            let up = (p.rank() + 1) % world;
            let dn = (p.rank() + world - 1) % world;
            p.comm.barrier(&p.actor);
            let t0 = p.actor.now_ns();
            let es = rt
                .enqueue_send_datatype(&q, &buf, false, 0, &ty, mode, up, 1, &[], &p.actor)
                .expect("send vector");
            let er = rt
                .enqueue_recv_datatype(&q, &buf, false, 0, &ty, mode, dn, 1, &[], &p.actor)
                .expect("recv vector");
            es.wait(&p.actor);
            er.wait(&p.actor);
            assert!(!es.is_failed() && !er.is_failed(), "fault-free ring");
            let elapsed = p.actor.now_ns() - t0;
            rt.shutdown(&p.actor);
            elapsed
        },
    );
    (res.outputs.into_iter().max().expect("ranks"), res.trace)
}

/// Sustained bandwidth in bytes/s as exact integer math.
fn bps(packed: usize, ns: u64) -> u64 {
    (packed as u128 * 1_000_000_000 / ns.max(1) as u128) as u64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_datatype.json".to_string();
    let mut results = "results/datatype.txt".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().expect("--out needs a value").clone(),
            "--results" => results = it.next().expect("--results needs a value").clone(),
            other => panic!("unknown argument {other}"),
        }
    }

    // -- The (size × world × mode) sweep --------------------------------
    let mut rows = Vec::new(); // (count, packed, world, mode, ns, bps)
    let mut obs_trace: Option<Trace> = None;
    for &count in &COUNTS {
        let packed = count * BLOCKLEN;
        for &world in &WORLDS {
            for mode in MODES {
                let (ns, trace) = timed_ring(count, world, mode);
                if count == *COUNTS.last().unwrap()
                    && world == *WORLDS.last().unwrap()
                    && mode == PackMode::PipelinedPack
                {
                    obs_trace = Some(trace);
                }
                rows.push((count, packed, world, mode, ns, bps(packed, ns)));
            }
        }
    }

    // Acceptance bar: device-pack ≥ host-pack sustained bandwidth at
    // every size (and world count).
    for &count in &COUNTS {
        for &world in &WORLDS {
            let at = |m: PackMode| {
                rows.iter()
                    .find(|r| r.0 == count && r.2 == world && r.3 == m)
                    .expect("row exists")
                    .5
            };
            assert!(
                at(PackMode::DevicePack) >= at(PackMode::HostPack),
                "acceptance bar: device-pack ({}) must sustain at least \
                 host-pack ({}) at {count} rows x{world} ranks",
                at(PackMode::DevicePack),
                at(PackMode::HostPack),
            );
        }
    }

    // -- Himeno halo ablation: plane vs datatype faces ------------------
    let himeno = |halo: HaloMode| {
        run_himeno(
            Variant::ClMpi,
            HimenoConfig {
                size: GridSize::S,
                iters: 4,
                sys: SystemConfig::ricc(),
                nodes: 4,
                strategy: None,
                halo,
            },
        )
    };
    let halo_rows: Vec<(&str, himeno::HimenoResult)> = vec![
        ("plane", himeno(HaloMode::Plane)),
        ("host-pack", himeno(HaloMode::Datatype(PackMode::HostPack))),
        (
            "device-pack",
            himeno(HaloMode::Datatype(PackMode::DevicePack)),
        ),
        (
            "pipelined-pack",
            himeno(HaloMode::Datatype(PackMode::PipelinedPack)),
        ),
    ];
    for (name, r) in &halo_rows {
        assert_eq!(
            r.checksum.to_bits(),
            halo_rows[0].1.checksum.to_bits(),
            "halo mode {name} must not change the physics"
        );
    }

    // -- Deterministic artifacts ----------------------------------------
    let summary = ObsSummary::from_trace(obs_trace.as_ref().expect("sweep ran"));
    let mut sweep_json = String::new();
    for (i, (count, packed, world, mode, ns, b)) in rows.iter().enumerate() {
        sweep_json.push_str(&format!(
            "{}{{ \"rows\": {count}, \"packed_bytes\": {packed}, \"world\": {world}, \
             \"mode\": \"{}\", \"virtual_ns\": {ns}, \"bytes_per_s\": {b} }}",
            if i == 0 { "" } else { ",\n" },
            mode.name(),
        ));
    }
    let mut halo_json = String::new();
    for (i, (name, r)) in halo_rows.iter().enumerate() {
        halo_json.push_str(&format!(
            "{}{{ \"halo\": \"{name}\", \"virtual_ns\": {}, \"checksum_bits\": {} }}",
            if i == 0 { "" } else { ",\n" },
            r.elapsed_ns,
            r.checksum.to_bits(),
        ));
    }
    let bench_json = format!(
        "{{\n\"bench\": \"datatype_pack\",\n\
         \"system\": \"ricc\", \"blocklen\": {BLOCKLEN}, \"stride\": {STRIDE},\n\
         \"sweep\": [\n{sweep_json}\n],\n\
         \"himeno_halo\": [\n{halo_json}\n],\n\
         \"obs\": {},\n\
         \"obs_fnv1a\": {}\n}}\n",
        summary.to_json().trim_end(),
        summary.hash(),
    );
    write_artifact(&out, &bench_json);

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut table = String::new();
    table.push_str("strided-vector ring on RICC (16 KiB rows, 32 KiB stride)\n");
    table.push_str("packed      world  mode            virtual_ms   GB/s\n");
    for (_, packed, world, mode, ns, b) in &rows {
        table.push_str(&format!(
            "{:>9}  {world:>5}  {:<14}  {:>10.3}  {:>6.3}\n",
            packed >> 10,
            mode.name(),
            ms(*ns),
            *b as f64 / 1e9,
        ));
    }
    table.push_str("\nhimeno halo ablation (S grid, 4 RICC nodes, 4 iters):\n");
    for (name, r) in &halo_rows {
        table.push_str(&format!("{name:<14}  {:>10.3} ms\n", ms(r.elapsed_ns)));
    }
    print!("{table}");
    std::fs::write(&results, &table).unwrap_or_else(|e| panic!("write {results}: {e}"));
    eprintln!("(summary written to {results})");
}
