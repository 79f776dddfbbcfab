//! Regenerates Fig. 8: sustained point-to-point bandwidth between two
//! remote devices vs message size, for the pinned / mapped / pipelined(N)
//! transfer implementations.
//!
//! Besides the console table, every measured point is persisted to
//! `BENCH_p2p.json` (repo root by default) — all fields are virtual-time
//! derived, so the file is byte-identical across runs and CI archives it
//! as the p2p perf-trajectory data point.
//!
//! Usage: `fig8 [cichlid|ricc] [--quick] [--bench-out path]`

use clmpi::{analytic, SystemConfig};
use clmpi_bench::{
    fig8_sizes, fig8_strategies, fmt_size, measure_p2p, write_bench_json, CsvOut,
    PersistedPoint as Point,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut bench_out = "BENCH_p2p.json".to_string();
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
        vec!["cichlid", "ricc"]
    } else {
        names
    };
    let mut csv = CsvOut::from_args(&args);
    csv.row(["system", "size_bytes", "strategy", "mbps"]);
    let mut points = Vec::new();
    for name in names {
        let sys = SystemConfig::by_name(name)
            .unwrap_or_else(|| panic!("unknown system '{name}' (cichlid|ricc)"));
        run_system(&sys, quick, &mut csv, &mut points);
    }
    csv.finish();
    write_bench_json(&bench_out, "p2p_bandwidth", "strategy", quick, &points);
}

fn run_system(sys: &SystemConfig, quick: bool, csv: &mut CsvOut, points: &mut Vec<Point>) {
    let strategies = fig8_strategies();
    let sizes = if quick {
        vec![64 << 10, 1 << 20, 16 << 20]
    } else {
        fig8_sizes()
    };
    println!();
    println!(
        "Fig. 8({}) — sustained bandwidth [MB/s], {} ({})",
        if sys.cluster.name == "Cichlid" {
            "a"
        } else {
            "b"
        },
        sys.cluster.name,
        sys.cluster.nic
    );
    print!("{:>8}", "size");
    for s in &strategies {
        print!("  {:>15}", s.name());
    }
    println!("  {:>15}", "analytic best");
    for &size in &sizes {
        print!("{:>8}", fmt_size(size));
        let mut best = f64::MIN;
        for &st in &strategies {
            let reps = if size >= 16 << 20 { 1 } else { 2 };
            let bp = measure_p2p(sys, st, size, reps);
            best = best.max(bp.mbps);
            csv.row([
                sys.cluster.name.to_string(),
                size.to_string(),
                st.name(),
                format!("{:.2}", bp.mbps),
            ]);
            points.push(Point::new(sys, st.name(), &bp));
            print!("  {:>15.1}", bp.mbps);
        }
        // Cross-check: analytic model of the best fixed strategy.
        let ana = strategies
            .iter()
            .map(|&st| analytic::sustained_bps(sys, st, size) / 1e6)
            .fold(f64::MIN, f64::max);
        println!("  {ana:>15.1}");
    }
    println!(
        "(wire limit {:.1} MB/s; auto policy: {} below {} MiB, pipelined above)",
        sys.cluster.link.bandwidth_bps / 1e6,
        sys.small_message_strategy.name(),
        sys.pipeline_threshold >> 20
    );
}
