//! The conditions every measurement runs under: one CPU, never idle.
//!
//! The simulator is wake-up bound — a repetition of `op_mix_*` makes some
//! 200,000 context switches a second among 24 threads of which virtual
//! time lets one or two run — and on this class of machine (a 2-vCPU
//! virtual machine) what a wake-up costs depends on where it lands:
//!
//! * **Across CPUs** it is an inter-processor interrupt, a VM exit on a
//!   virtual machine. Confined to one CPU the same binary runs a
//!   repetition of `op_mix_clean` in 0.25 s instead of 0.74 s, of
//!   `nanopowder_w16` in 0.58 s instead of 1.5–2.5 s, even of the
//!   compute-bound `himeno_paper` in 0.30 s instead of 0.35 s: the second
//!   CPU costs more in interrupts than same-instant parallelism returns.
//!   Unconfined, identical runs of `op_mix_clean` differed by 20% and
//!   drifted by 15% within minutes; confined they repeat within 2–3%.
//! * **Onto an idle CPU** it wakes a halted vCPU, a VM exit whose latency
//!   the hypervisor adapts over time: a two-thread hand-off measured
//!   5 µs with the CPU kept busy, 39 µs with it idling, and 7 µs for the
//!   first two seconds after a pause. One `SCHED_IDLE` thread that never
//!   sleeps removes the halt without taking time from anything: the
//!   policy runs only when nothing else is runnable and any wake-up
//!   preempts it.
//!
//! So the reporting process confines itself — and with it every child it
//! starts — to one CPU, and keeps a spinner process on that CPU while it
//! measures. NOISE.md has the measurements behind both decisions. A
//! change that makes the simulator use a second CPU profitably needs a
//! workload of its own to show it; this benchmark would not.
//!
//! The spinner lives in a process of its own so that the measuring
//! child's CPU accounting stays its own. It ends when its standard input
//! closes, so it cannot outlive the process that started it.

use std::io::Read;
use std::process::{Child, Command, Stdio};

/// Confine the calling thread, and every process it starts from now on,
/// to the last CPU it is allowed on (the first one serves most device
/// interrupts; measured beside it, the last repeats closer — NOISE.md). Returns false (with a note on
/// stderr) if the kernel refuses; the benchmark then runs unconfined.
pub fn confine_to_one_cpu() -> bool {
    let confined = affinity::keep_last_cpu();
    if !confined {
        eprintln!("clmpi-benchmark: not confined to one CPU (affinity call refused)");
    }
    confined
}

#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t`: 1024 CPUs, one bit each.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn keep_last_cpu() -> bool {
        let mut set: CpuSet = [0; 16];
        // SAFETY: both calls access exactly `size_of::<CpuSet>()` bytes
        // through the pointer, which points at a live local of that size
        // for the whole call; pid 0 names the calling thread.
        unsafe {
            if sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) != 0 {
                return false;
            }
            let Some(word) = set.iter().rposition(|w| *w != 0) else {
                return false;
            };
            let highest = 1u64 << (63 - set[word].leading_zeros());
            set = [0; 16];
            set[word] = highest;
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn keep_last_cpu() -> bool {
        false
    }
}

/// The spinner process; dropping it stops the spinners and waits.
pub struct BusyCpus {
    child: Child,
}

/// Start one spinner per CPU the caller may run on. `None` (with a note
/// on stderr) if the process cannot be started; the benchmark then runs
/// without.
pub fn hold_busy() -> Option<BusyCpus> {
    let spawned = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--child", "spin"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
    });
    match spawned {
        Ok(child) => Some(BusyCpus { child }),
        Err(e) => {
            eprintln!("clmpi-benchmark: CPUs are left to idle (no spinner process: {e})");
            None
        }
    }
}

impl Drop for BusyCpus {
    fn drop(&mut self) {
        // Closing the pipe is the stop signal; errors here leave nothing
        // to clean up that the kill does not cover.
        drop(self.child.stdin.take());
        if self.child.wait().is_err() {
            let _ = self.child.kill();
        }
    }
}

#[cfg(target_os = "linux")]
fn enter_idle_policy() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler(2)` reads one `struct sched_param` (a
    // single int on Linux) through the pointer, which points at a live
    // local for the whole call; pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn enter_idle_policy() -> bool {
    false
}

/// The spinner process: one never-sleeping `SCHED_IDLE` thread per CPU
/// of its affinity mask until standard input closes. A thread that cannot lower itself to
/// the idle policy does not spin — at normal priority it would take CPU
/// time from the measurement.
pub fn spin_until_stdin_closes() -> ! {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    for _ in 0..cpus {
        std::thread::spawn(|| {
            if !enter_idle_policy() {
                eprintln!("clmpi-benchmark: CPUs are left to idle (SCHED_IDLE refused)");
                return;
            }
            loop {
                std::hint::spin_loop();
            }
        });
    }
    // End of input or an error both mean the parent is gone; nothing is
    // ever written, but stray bytes are discarded rather than kept.
    let mut sink = [0u8; 64];
    while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}
    std::process::exit(0);
}
