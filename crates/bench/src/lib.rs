//! Shared measurement helpers for the figure/table harnesses.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index); this library holds the
//! measurement loops they share with the wall-clock benches.

use clmpi::{ClMpi, SystemConfig, TransferStrategy};
use minimpi::{run_world_sized, Process};
use simtime::SimNs;

/// Measured sustained bandwidth of repeated device→device transfers.
#[derive(Debug, Clone, Copy)]
pub struct BandwidthPoint {
    /// Message size in bytes.
    pub size: usize,
    /// Sustained bandwidth in MB/s (size×reps ÷ virtual elapsed).
    pub mbps: f64,
    /// Virtual time of one transfer (average).
    pub per_transfer_ns: SimNs,
}

/// Measure `reps` serialized device→device transfers of `size` bytes
/// between two ranks under `strategy` (the Fig. 8 measurement loop: each
/// transfer completes — data in remote device memory — before the next
/// starts).
///
/// A zero `size` is clamped to 1 byte **once, at entry**: what is
/// measured, reported as `BandwidthPoint::size`, and used for the MB/s
/// arithmetic is always the same value. (An earlier revision clamped
/// only the buffer allocation and computed MB/s from the raw size, so
/// `size == 0` reported 0 MB/s while actually transferring 1 byte.)
pub fn measure_p2p(
    sys: &SystemConfig,
    strategy: TransferStrategy,
    size: usize,
    reps: usize,
) -> BandwidthPoint {
    let size = size.max(1);
    let sys2 = sys.clone();
    let res = run_world_sized(sys.cluster.clone(), 2, move |p: Process| {
        let rt = ClMpi::new(&p, sys2.clone());
        rt.set_forced_strategy(Some(strategy));
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(size);
        p.comm.barrier(&p.actor);
        let t0 = p.actor.now_ns();
        for i in 0..reps {
            let tag = i as i32;
            if p.rank() == 0 {
                rt.enqueue_send_buffer(&q, &buf, true, 0, size, 1, tag, &[], &p.actor)
                    .expect("send");
                // Wait for the remote completion signal so transfers are
                // fully serialized (one-way latency measured honestly).
                p.comm.recv(&p.actor, Some(1), Some(tag + 1000));
            } else {
                rt.enqueue_recv_buffer(&q, &buf, true, 0, size, 0, tag, &[], &p.actor)
                    .expect("recv");
                p.comm.send(&p.actor, 0, tag + 1000, &[]);
            }
        }
        rt.shutdown(&p.actor);
        p.actor.now_ns() - t0
    });
    let elapsed = res.outputs.iter().copied().max().unwrap_or(1).max(1);
    // Subtract the ack cost (one small message per rep) analytically.
    let ack = sys.cluster.link.message_ns(0);
    let per = (elapsed / reps as u64).saturating_sub(ack).max(1);
    BandwidthPoint {
        size,
        mbps: size as f64 * 1e3 / per as f64, // bytes/ns → MB/s
        per_transfer_ns: per,
    }
}

/// Measure `reps` serialized one-sided puts of `size` bytes from rank
/// `origin` into rank `target`'s window over `sys`, in a `world`-rank
/// job. Every rank participates in the epoch-closing fences
/// (`MPI_Win_fence` is collective); only the origin moves payload. The
/// pair selects the wire: co-located ranks of a CXL pod claim the
/// shared pool port, any other pair takes the NIC-routed RMA path.
pub fn measure_rma(
    sys: &SystemConfig,
    world: usize,
    origin: usize,
    target: usize,
    size: usize,
    reps: usize,
) -> BandwidthPoint {
    let size = size.max(1);
    let sys2 = sys.clone();
    let res = run_world_sized(sys.cluster.clone(), world, move |p: Process| {
        let rt = ClMpi::new(&p, sys2.clone());
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(size);
        let win = rt
            .expose_buffer_as_window(&buf, size, &p.actor)
            .expect("window");
        p.comm.barrier(&p.actor);
        let t0 = p.actor.now_ns();
        for _ in 0..reps {
            let mut gate = Vec::new();
            if p.rank() == origin {
                let e = rt
                    .enqueue_put_buffer(&q, &win, false, 0, 0, size, target, &[], &p.actor)
                    .expect("put");
                gate.push(e);
            }
            let f = rt
                .enqueue_win_fence(&win, false, &gate, &p.actor)
                .expect("fence");
            f.wait_result(&p.actor).expect("fence sync");
        }
        rt.shutdown(&p.actor);
        p.actor.now_ns() - t0
    });
    let elapsed = res.outputs.iter().copied().max().unwrap_or(1).max(1);
    let per = (elapsed / reps as u64).max(1);
    BandwidthPoint {
        size,
        mbps: size as f64 * 1e3 / per as f64, // bytes/ns → MB/s
        per_transfer_ns: per,
    }
}

/// Minimal wall-clock micro-benchmark harness (replaces the external
/// `criterion` dependency so the workspace builds with zero network
/// access). Warms up twice, takes `samples` timed runs, and prints a
/// min/median/max line. What it measures is the *wall time of the
/// simulation* — regressions in the engine itself show up here.
pub fn wallclock_bench(name: &str, samples: usize, mut f: impl FnMut()) {
    f();
    f();
    let mut times: Vec<u128> = (0..samples.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    let ms = |n: u128| n as f64 / 1e6;
    println!(
        "{name:<44} min {:>9.3} ms  median {:>9.3} ms  max {:>9.3} ms",
        ms(times[0]),
        ms(times[times.len() / 2]),
        ms(times[times.len() - 1])
    );
}

/// The strategy set plotted in Fig. 8.
pub fn fig8_strategies() -> Vec<TransferStrategy> {
    vec![
        TransferStrategy::Pinned,
        TransferStrategy::Mapped,
        TransferStrategy::Pipelined(1 << 20),
        TransferStrategy::Pipelined(4 << 20),
        TransferStrategy::Pipelined(16 << 20),
    ]
}

/// The message-size axis of Fig. 8.
pub fn fig8_sizes() -> Vec<usize> {
    (16..=26).map(|s| 1usize << s).collect() // 64 KiB … 64 MiB
}

/// Minimal CSV writer for the `--csv <path>` option of the harnesses:
/// plotting-ready series without extra dependencies.
pub struct CsvOut {
    path: Option<String>,
    rows: Vec<String>,
}

impl CsvOut {
    /// Parse `--csv <path>` out of `args` (returns a no-op writer if
    /// absent).
    pub fn from_args(args: &[String]) -> Self {
        let path = args
            .windows(2)
            .find(|w| w[0] == "--csv")
            .map(|w| w[1].clone());
        CsvOut {
            path,
            rows: Vec::new(),
        }
    }

    /// Append one row of cells (quoted/escaped as needed).
    pub fn row<S: AsRef<str>>(&mut self, cells: impl IntoIterator<Item = S>) {
        if self.path.is_none() {
            return;
        }
        let line = cells
            .into_iter()
            .map(|c| {
                let c = c.as_ref();
                if c.contains([',', '"', '\n']) {
                    format!("\"{}\"", c.replace('"', "\"\""))
                } else {
                    c.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join(",");
        self.rows.push(line);
    }

    /// Write the collected rows (no-op without `--csv`).
    pub fn finish(self) {
        if let Some(path) = self.path {
            let data = self.rows.join("\n") + "\n";
            std::fs::write(&path, data).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("(csv written to {path})");
        }
    }
}

/// Write one JSON artifact: refuse to write malformed JSON (the workspace
/// has no serde — every artifact is hand-rolled), then say where it went.
pub fn write_artifact(path: &str, json: &str) {
    clmpi::validate_json(json).unwrap_or_else(|e| panic!("{path} must be well-formed JSON: {e}"));
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("(artifact written to {path})");
}

/// What the kernel charged this process (`/proc/self/stat`): minor page
/// faults and user / system CPU time. Host-dependent — for sidecars under
/// `results/`, never for a `BENCH_*.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcUsage {
    /// Minor page faults: pages the kernel handed over without I/O.
    pub minflt: u64,
    /// CPU time in user mode, ms.
    pub utime_ms: u64,
    /// CPU time in the kernel, ms.
    pub stime_ms: u64,
}

impl ProcUsage {
    /// Parse the text of `/proc/<pid>/stat` (proc(5): `minflt` is field
    /// 10, `utime` 14 and `stime` 15, the times in clock ticks of 10 ms —
    /// `USER_HZ` is 100 on every Linux ABI).
    fn parse(stat: &str) -> Option<ProcUsage> {
        // The command name (field 2) may hold spaces and parentheses;
        // field 3 starts after its closing one.
        let mut fields = stat[stat.rfind(')')? + 1..].split_ascii_whitespace();
        let mut field = |skip: usize| fields.nth(skip)?.parse::<u64>().ok();
        Some(ProcUsage {
            minflt: field(7)?,
            utime_ms: field(3)? * 10,
            stime_ms: field(0)? * 10,
        })
    }

    /// Totals so far; `None` where there is no `/proc` (anything but Linux).
    fn now() -> Option<ProcUsage> {
        ProcUsage::parse(&std::fs::read_to_string("/proc/self/stat").ok()?)
    }

    /// Run `f` and report what the whole process was charged meanwhile.
    pub fn during<R>(f: impl FnOnce() -> R) -> (R, Option<ProcUsage>) {
        let before = ProcUsage::now();
        let out = f();
        let used = before.zip(ProcUsage::now()).map(|(b, a)| ProcUsage {
            minflt: a.minflt - b.minflt,
            utime_ms: a.utime_ms - b.utime_ms,
            stime_ms: a.stime_ms - b.stime_ms,
        });
        (out, used)
    }
}

/// One measured bandwidth point as `BENCH_p2p.json` / `BENCH_rma.json`
/// persist it. `mbps` is stored as an IEEE-754 bit pattern (exact
/// equality across runs); the human-readable rate is recoverable as
/// `f64::from_bits`.
pub struct PersistedPoint {
    pub system: String,
    pub size: usize,
    /// What the point varies besides size: the strategy, or the path.
    pub label: String,
    pub per_transfer_ns: u64,
    pub mbps_bits: u64,
}

impl PersistedPoint {
    pub fn new(sys: &SystemConfig, label: String, bp: &BandwidthPoint) -> Self {
        PersistedPoint {
            system: sys.cluster.name.to_string(),
            size: bp.size,
            label,
            per_transfer_ns: bp.per_transfer_ns,
            mbps_bits: bp.mbps.to_bits(),
        }
    }
}

/// Persist every measured point of `bench` as deterministic JSON, each
/// point's label under the key `label_key`.
pub fn write_bench_json(
    path: &str,
    bench: &str,
    label_key: &str,
    quick: bool,
    points: &[PersistedPoint],
) {
    let mut body = String::new();
    for (i, p) in points.iter().enumerate() {
        body.push_str(&format!(
            "    {{ \"system\": \"{}\", \"size\": {}, \"{label_key}\": \"{}\", \
             \"per_transfer_ns\": {}, \"mbps_bits\": {} }}{}\n",
            p.system,
            p.size,
            p.label,
            p.per_transfer_ns,
            p.mbps_bits,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"quick\": {quick},\n  \"points\": [\n{body}  ]\n}}\n"
    );
    write_artifact(path, &json);
}

/// FNV-1a over the bit patterns of `values` — the fingerprint the
/// artifacts keep of nanopowder's `final_n`.
pub fn fnv1a_f32s(values: &[f32]) -> u64 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    clmpi::obs::fnv1a(&bytes)
}

/// Render a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Format bytes human-readably (powers of two).
pub fn fmt_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_measurement_reports_sane_bandwidth() {
        let sys = SystemConfig::cichlid();
        let bp = measure_p2p(&sys, TransferStrategy::Mapped, 1 << 20, 2);
        // On GbE sustained bandwidth must be below the wire limit and
        // above a tenth of it for a 1 MiB message.
        assert!(bp.mbps < 118.0, "below GbE: {}", bp.mbps);
        assert!(bp.mbps > 20.0, "not absurdly slow: {}", bp.mbps);
    }

    #[test]
    fn zero_size_p2p_reports_the_clamped_transfer_honestly() {
        let sys = SystemConfig::cichlid();
        let bp = measure_p2p(&sys, TransferStrategy::Pinned, 0, 1);
        // The clamp is applied once at entry: the reported size is the
        // byte actually transferred, and the bandwidth is computed from
        // it (the old code reported size 0 at 0 MB/s while moving 1 byte).
        assert_eq!(bp.size, 1);
        assert!(bp.mbps > 0.0, "1 transferred byte yields nonzero MB/s");
        assert!(bp.per_transfer_ns >= 1);
    }

    #[test]
    fn proc_usage_reads_past_a_command_name_with_spaces() {
        let stat =
            "4242 (scale (v2) x) S 1 4242 4242 0 -1 4194560 6913 0 2 0 121 9 0 0 20 0 26 0 1";
        assert_eq!(
            ProcUsage::parse(stat),
            Some(ProcUsage {
                minflt: 6913,
                utime_ms: 1210,
                stime_ms: 90,
            })
        );
        assert_eq!(ProcUsage::parse("4242 (scale) S 1 4242"), None);
    }

    #[test]
    fn fmt_size_renders() {
        assert_eq!(fmt_size(64 << 10), "64K");
        assert_eq!(fmt_size(16 << 20), "16M");
        assert_eq!(fmt_size(17), "17B");
    }

    #[test]
    fn fig8_axes_cover_paper_ranges() {
        assert_eq!(fig8_strategies().len(), 5);
        let sizes = fig8_sizes();
        assert_eq!(*sizes.first().unwrap(), 64 << 10);
        assert_eq!(*sizes.last().unwrap(), 64 << 20);
    }
}
