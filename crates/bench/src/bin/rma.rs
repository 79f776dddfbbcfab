//! Fig. 8-style sweep for the one-sided path: sustained bandwidth of a
//! window `Put` (closed by a collective fence) vs the two-sided transfer
//! the auto policy would pick, across all three fabrics. On CXL-Pod the
//! sweep measures both a co-located pair (ranks 0→1, same pool — the
//! shared-segment port) and a cross-pod pair (ranks 0→4, NIC-routed
//! RMA).
//!
//! Besides the console table, every point is persisted to
//! `BENCH_rma.json` — all fields are virtual-time derived, so the file
//! is byte-identical across runs and CI archives it as the RMA
//! perf-trajectory data point.
//!
//! Asserts the tentpole acceptance bound: on CXL-Pod, shared-segment RMA
//! beats the two-sided NIC path for every co-located size ≥ 1 MiB.
//!
//! Usage: `rma [cichlid|ricc|cxl-pod] [--quick] [--bench-out path]`

use clmpi::{SystemConfig, TransferStrategy};
use clmpi_bench::{
    fmt_size, measure_p2p, measure_rma, write_bench_json, CsvOut, PersistedPoint as Point,
};

/// The (world, origin, target, label) pairs swept per system: every
/// fabric gets the adjacent pair; CXL-Pod adds a cross-pod pair so the
/// NIC-routed RMA fallback is on the same chart.
fn pairs(sys: &SystemConfig) -> Vec<(usize, usize, usize, &'static str)> {
    if sys.cluster.cxl.is_some() {
        vec![(2, 0, 1, "rma"), (5, 0, 4, "rma-remote")]
    } else {
        vec![(2, 0, 1, "rma")]
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut bench_out = "BENCH_rma.json".to_string();
    let mut names: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--csv" => {
                it.next(); // value consumed by CsvOut::from_args
            }
            "--bench-out" => {
                bench_out = it.next().expect("--bench-out needs a value").clone();
            }
            other => names.push(other),
        }
    }
    let names = if names.is_empty() {
        vec!["cichlid", "ricc", "cxl-pod"]
    } else {
        names
    };
    let mut csv = CsvOut::from_args(&args);
    csv.row(["system", "size_bytes", "path", "mbps"]);
    let mut points = Vec::new();
    for name in names {
        let sys = SystemConfig::by_name(name)
            .unwrap_or_else(|| panic!("unknown system '{name}' (cichlid|ricc|cxl-pod)"));
        run_system(&sys, quick, &mut csv, &mut points);
    }
    csv.finish();
    assert_colocated_rma_wins(&points);
    write_bench_json(&bench_out, "rma_bandwidth", "path", quick, &points);
}

fn run_system(sys: &SystemConfig, quick: bool, csv: &mut CsvOut, points: &mut Vec<Point>) {
    let sizes: Vec<usize> = if quick {
        vec![64 << 10, 1 << 20, 8 << 20]
    } else {
        (16..=23).map(|s| 1usize << s).collect() // 64 KiB … 8 MiB
    };
    let pairs = pairs(sys);
    println!();
    println!(
        "RMA sweep — sustained bandwidth [MB/s], {} ({})",
        sys.cluster.name, sys.cluster.nic
    );
    print!("{:>8}  {:>15}", "size", "two-sided");
    for &(_, _, _, label) in &pairs {
        print!("  {label:>15}");
    }
    println!();
    for &size in &sizes {
        let reps = if size >= 8 << 20 { 1 } else { 2 };
        print!("{:>8}", fmt_size(size));
        // The two-sided baseline: whatever the system's auto policy
        // resolves to at this size, over the NIC.
        let st = sys.resolve(TransferStrategy::Auto, size);
        let two = measure_p2p(sys, st, size, reps);
        record(sys, size, "two-sided", &two, csv, points);
        print!("  {:>15.1}", two.mbps);
        for &(world, origin, target, label) in &pairs {
            let bp = measure_rma(sys, world, origin, target, size, reps);
            record(sys, size, label, &bp, csv, points);
            print!("  {:>15.1}", bp.mbps);
        }
        println!();
    }
    if let Some(cxl) = &sys.cluster.cxl {
        println!(
            "(pool port {:.1} MB/s shared by pods of {}; NIC {:.1} MB/s)",
            cxl.link.bandwidth_bps / 1e6,
            cxl.pool_nodes,
            sys.cluster.link.bandwidth_bps / 1e6
        );
    }
}

fn record(
    sys: &SystemConfig,
    size: usize,
    path: &str,
    bp: &clmpi_bench::BandwidthPoint,
    csv: &mut CsvOut,
    points: &mut Vec<Point>,
) {
    csv.row([
        sys.cluster.name.to_string(),
        size.to_string(),
        path.to_string(),
        format!("{:.2}", bp.mbps),
    ]);
    points.push(Point::new(sys, path.to_string(), bp));
}

/// Tentpole acceptance: on CXL-Pod every co-located RMA point of
/// ≥ 1 MiB must beat the two-sided NIC baseline at the same size.
fn assert_colocated_rma_wins(points: &[Point]) {
    for p in points
        .iter()
        .filter(|p| p.system == "CXL-Pod" && p.label == "rma" && p.size >= 1 << 20)
    {
        let two = points
            .iter()
            .find(|q| q.system == p.system && q.size == p.size && q.label == "two-sided")
            .expect("matching two-sided point");
        let (rma, base) = (f64::from_bits(p.mbps_bits), f64::from_bits(two.mbps_bits));
        assert!(
            rma > base,
            "co-located RMA must beat two-sided NIC at {}: {rma:.1} vs {base:.1} MB/s",
            fmt_size(p.size)
        );
    }
}
