//! `clmpi-benchmark`: the repo benchmark (see README.md beside this
//! package and BENCHMARK.json at the repo root).
//!
//! The process that reports never measures. Every workload runs in a
//! fresh child (this binary re-executed), so allocator state and the
//! resident-set peak do not leak from one workload into the next and the
//! executor is chosen by the child's environment alone.

mod child;
mod conditions;
mod host;
mod opmix;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use report::{Report, END_TO_END, PER_LAYER};
use workloads::{Kind, Workload, WORKLOADS};

const USAGE: &str = "usage: clmpi-benchmark [--workload <name> | --only <name>] [--seed N] \
[--seconds S] [--trace [0|1]] [--agree] [--selftest]
  --workload <name>  contract mode: run one workload and print the result object as the
                     last line (end-to-end metrics, or per-layer metrics with --trace 1)
  (no --workload)    suite mode: every workload (or --only one), tables for a reader;
                     --trace adds the traced pass and the layer probes
  --agree            run the untraced suite twice and compare within the bounds
  --selftest         corrupt one expected value per workload; each must be detected";

/// Seconds one run measures when `--seconds` is not given (the
/// `run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 12.0;

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    only: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    agree: bool,
    selftest: bool,
    /// Internal: this process is a measuring child.
    child: Option<String>,
    corrupt: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        only: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        agree: false,
        selftest: false,
        child: None,
        corrupt: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--only" => cli.only = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                cli.seconds = s;
            }
            "--trace" => {
                // `--trace 0|1` in contract mode, bare `--trace` for a reader.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--agree" => cli.agree = true,
            "--selftest" => cli.selftest = true,
            "--child" => cli.child = Some(value("a role")?),
            "--corrupt" => cli.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn lookup(name: &str) -> Result<&'static Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", names.join(", "))
    })
}

/// Directory the traces go to: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    let package = std::env::var_os("CARGO_MANIFEST_DIR").map_or_else(
        || {
            PathBuf::from(if std::path::Path::new("benchmark").is_dir() {
                "benchmark"
            } else {
                "."
            })
        },
        PathBuf::from,
    );
    package.join("out")
}

/// Run this binary again as a measuring child and collect what it
/// printed. The child's exit code says whether its outputs checked out.
fn spawn_child(role: &str, event_core: bool, extra: &[String]) -> Result<(Report, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--child").arg(role).args(extra);
    if event_core {
        cmd.env("SIM_EXEC_MODE", "events");
    } else {
        cmd.env_remove("SIM_EXEC_MODE");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child {role}: {e}"))?;
    let report = Report::parse(&String::from_utf8_lossy(&out.stdout));
    match out.status.code() {
        Some(0) => Ok((report, true)),
        Some(1) => Ok((report, false)),
        code => Err(format!("child {role} died with {code:?}")),
    }
}

fn workload_args(w: &Workload, seed: u64, seconds: f64) -> Vec<String> {
    vec![
        "--workload".into(),
        w.name.into(),
        "--seed".into(),
        seed.to_string(),
        "--seconds".into(),
        seconds.to_string(),
    ]
}

/// Cold set-ups per run, each in a fresh process (the measuring child's
/// own is the last); `setup_s` is their median.
const SETUPS: usize = 3;

/// The end-to-end numbers of one workload.
fn run_untraced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    corrupt: bool,
) -> Result<(Report, bool), String> {
    let mut args = workload_args(w, seed, seconds);
    if corrupt {
        args.push("--corrupt".into());
    }
    let (mut setups, mut all_ok) = (Vec::new(), true);
    for _ in 1..SETUPS {
        let (report, ok) = spawn_child("setup", w.events_core, &args)?;
        setups.extend(report.value("setup_s"));
        all_ok &= ok;
    }
    let (mut report, ok) = spawn_child("untraced", w.events_core, &args)?;
    setups.extend(report.value("setup_s"));
    let summary = stats::summarize(&setups);
    report
        .text
        .push(format!("{}: setup_s {}", w.name, summary.render("s")));
    report
        .metrics
        .insert("setup_s".into(), (summary.median, "s".into()));
    Ok((report, all_ok && ok))
}

/// The per-layer numbers of one workload: its traced child plus the
/// layer probes, each on the executor it belongs to.
fn run_traced(w: &Workload, seed: u64, probes: &Report) -> Result<(Report, bool), String> {
    let (mut report, ok) = spawn_child("traced", w.events_core, &workload_args(w, seed, 0.0))?;
    report.merge(probes.clone());
    Ok((report, ok))
}

fn run_probes() -> Result<Report, String> {
    let (mut probes, _) = spawn_child("probes", false, &[])?;
    probes.merge(spawn_child("probes", true, &[])?.0);
    Ok(probes)
}

fn print_text(report: &Report) {
    for line in &report.text {
        println!("{line}");
    }
}

/// Contract mode: one workload, the result object as the last line.
fn contract(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let (report, ok) = if trace {
        run_traced(w, seed, &run_probes()?)?
    } else {
        run_untraced(w, seed, seconds, false)?
    };
    let json = if trace {
        report.contract_json(&PER_LAYER)?
    } else {
        report.contract_json(END_TO_END.iter().map(|(d, _)| d))?
    };
    print_text(&report);
    for (name, (value, unit)) in &report.metrics {
        println!("{}: {name} = {value} {unit}", w.name);
    }
    println!("{json}");
    Ok(ok)
}

fn selected(only: &Option<String>) -> Result<Vec<&'static Workload>, String> {
    match only {
        Some(name) => Ok(vec![lookup(name)?]),
        None => Ok(WORKLOADS.iter().collect()),
    }
}

/// One untraced pass over `workloads`, printed for a reader.
fn suite_pass(
    workloads: &[&'static Workload],
    seed: u64,
    seconds: f64,
) -> Result<(Vec<Report>, bool), String> {
    let (mut reports, mut all_ok) = (Vec::new(), true);
    for w in workloads {
        let (report, ok) = run_untraced(w, seed, seconds, false)?;
        print_text(&report);
        let value = |name| report.value(name).unwrap_or(f64::NAN);
        println!(
            "{}: wall_s {:.6} s | ops_per_s {:.3} 1/s | setup_s {:.6} s | virtual_ms {} sim_ms | ops {} failed_ops {}",
            w.name,
            value("wall_s"),
            value("ops_per_s"),
            value("setup_s"),
            report.result("virtual_ns") as f64 / 1e6,
            report.result("attempted"),
            report.result("failed"),
        );
        all_ok &= ok;
        reports.push(report);
    }
    Ok((reports, all_ok))
}

/// The rungs a workload's repetition is made of, from the probes at the
/// nearest measured world size, and what they leave unexplained. Each
/// rung is measured apart and pays its own waits, so they can sum past
/// `wall_s`; the residual is then negative and printed as such.
fn print_rungs(w: &Workload, report: &Report, wall_s: f64) {
    let value = |name: &str| report.value(name).unwrap_or(0.0);
    let (world, size, summaries) = match w.kind {
        Kind::Himeno { nodes, .. } => (nodes, if nodes > 64 { "w256" } else { "w8" }, 0.0),
        Kind::Nanopowder { nodes, .. } => (nodes, "w8", 0.0),
        // The op mix builds one summary per repetition.
        Kind::OpMix { .. } => (opmix::WORLD, "w8", 1.0),
    };
    let per_rank = |probe: &str| value(&format!("{probe}.{size}")) * world as f64 / 1e6;
    let spans = value("obs.spans") + value("obs.op_spans");
    let rungs = [
        ("minimpi launch", per_rank("minimpi.launch_us_per_rank")),
        ("clmpi bring-up", per_rank("clmpi.bringup_us_per_rank")),
        ("himeno halo", value("himeno.halo_s")),
        ("himeno kernel", value("himeno.kernel_s")),
        ("nanopowder model", value("nanopowder.model_s")),
        (
            "obs summary",
            summaries * value("obs.summary_us_per_span") * spans / 1e6,
        ),
    ];
    println!("{}: rungs of one repetition (wall_s {wall_s:.6}):", w.name);
    let residual = wall_s - rungs.iter().map(|r| r.1).sum::<f64>();
    for (name, s) in rungs
        .iter()
        .filter(|r| r.1 > 0.0)
        .chain([&("residual", residual)])
    {
        println!(
            "{}:   {name:<18} {s:>10.6} s  {:>6.1}%",
            w.name,
            100.0 * s / wall_s
        );
    }
}

fn suite(cli: &Cli) -> Result<bool, String> {
    let (seed, workloads) = (cli.seed, selected(&cli.only)?);
    let (reports, mut all_ok) = suite_pass(&workloads, seed, cli.seconds)?;
    if cli.trace {
        let probes = run_probes()?;
        for (w, untraced) in workloads.iter().zip(&reports) {
            let (report, ok) = run_traced(w, seed, &probes)?;
            print_text(&report);
            for def in &PER_LAYER {
                match report.metrics.get(def.name) {
                    Some((value, unit)) => println!("{}: {} = {value} {unit}", w.name, def.name),
                    None => {
                        return Err(format!("{}: metric {} was not reported", w.name, def.name))
                    }
                }
            }
            print_rungs(w, &report, untraced.value("wall_s").unwrap_or(f64::NAN));
            all_ok &= ok;
        }
    }
    Ok(all_ok)
}

/// Two untraced passes of the same binary must agree within the bounds,
/// and exactly in everything simulated.
fn agree(cli: &Cli) -> Result<bool, String> {
    let workloads = selected(&cli.only)?;
    println!("== pass A");
    let (a, ok_a) = suite_pass(&workloads, cli.seed, cli.seconds)?;
    println!("== pass B");
    let (b, ok_b) = suite_pass(&workloads, cli.seed, cli.seconds)?;
    let mut agreed = ok_a && ok_b;
    println!("== agreement (|B - A| / A beside the bound)");
    for ((w, a), b) in workloads.iter().zip(&a).zip(&b) {
        for (def, bound) in &END_TO_END {
            let (va, vb) = (
                a.value(def.name).unwrap_or(f64::NAN),
                b.value(def.name).unwrap_or(f64::NAN),
            );
            let diff = (vb - va).abs() / va;
            let within = diff <= *bound;
            agreed &= within;
            println!(
                "{:<16} {:<10} A {va:>12.6} B {vb:>12.6} {:<4} diff {:>6.2}% bound {:>4.1}% {}",
                w.name,
                def.name,
                def.unit,
                100.0 * diff,
                100.0 * bound,
                if within { "ok" } else { "EXCESS" }
            );
        }
        for key in ["virtual_ns", "events", "fingerprint"] {
            let same = a.result(key) == b.result(key);
            agreed &= same;
            println!(
                "{:<16} {key:<10} A {:>20} B {:>20} {}",
                w.name,
                a.result(key),
                b.result(key),
                if same { "identical" } else { "MISMATCH" }
            );
        }
    }
    println!("agreement: {}", if agreed { "pass" } else { "FAIL" });
    Ok(agreed)
}

/// Flip one expected value per workload: every run must then report
/// failed ops and exit non-zero, or the checks are vacuous.
fn selftest(cli: &Cli) -> Result<bool, String> {
    let mut detected_all = true;
    for w in selected(&cli.only)? {
        let (report, ok) = run_untraced(w, cli.seed, 0.0, true)?;
        let detected = !ok && report.result("failed") > 0;
        println!(
            "selftest {:<16} corrupted reference: failed_ops {} of {}, child exit {} -> {}",
            w.name,
            report.result("failed"),
            report.result("attempted"),
            if ok { "0" } else { "1" },
            if detected { "detected" } else { "NOT DETECTED" }
        );
        detected_all &= detected;
    }
    Ok(detected_all)
}

/// A child process: `--child setup|untraced|traced|probes|spin`.
fn child_main(role: &str, cli: &Cli) -> Result<bool, String> {
    if role == "spin" {
        conditions::spin_until_stdin_closes();
    }
    if role == "probes" {
        child::run_probes(std::env::var("SIM_EXEC_MODE").is_ok_and(|m| m == "events"));
        return Ok(true);
    }
    let w = lookup(cli.workload.as_deref().ok_or("child needs --workload")?)?;
    match role {
        "setup" => Ok(child::run_setup(w, cli.seed, cli.corrupt)),
        "untraced" => Ok(child::run_untraced(w, cli.seed, cli.seconds, cli.corrupt)),
        "traced" => {
            let path = out_dir().join(format!("{}.trace.json", w.name));
            Ok(child::run_traced(w, cli.seed, &path))
        }
        other => Err(format!("unknown child role {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(role) = &cli.child {
        return exit_code(child_main(role, &cli));
    }
    conditions::confine_to_one_cpu();
    let _busy = conditions::hold_busy();
    let outcome = if cli.selftest {
        selftest(&cli)
    } else if cli.agree {
        agree(&cli)
    } else if let Some(name) = &cli.workload {
        lookup(name).and_then(|w| contract(w, cli.seed, cli.seconds, cli.trace))
    } else {
        suite(&cli)
    };
    exit_code(outcome)
}

fn exit_code(outcome: Result<bool, String>) -> ExitCode {
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("clmpi-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn contract_arguments_parse() {
        let c = cli(&[
            "--workload",
            "op_mix_clean",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("op_mix_clean"));
        assert_eq!((c.seed, c.seconds, c.trace), (7, 12.0, false));
        assert!(cli(&["--workload", "x", "--trace", "1"]).unwrap().trace);
        // A bare --trace (suite mode) does not swallow the next flag.
        let c = cli(&["--trace", "--only", "himeno_paper"]).unwrap();
        assert!(c.trace);
        assert_eq!(c.only.as_deref(), Some("himeno_paper"));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seed", "x"]).is_err());
        assert!(cli(&["--seconds", "-1"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
        assert!(lookup("../etc").is_err());
    }
}
