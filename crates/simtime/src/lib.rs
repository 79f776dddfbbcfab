//! # simtime — a conservative virtual-time engine
//!
//! Every simulated activity in this workspace (MPI ranks, OpenCL command
//! queue executors, clMPI communication threads) runs on a **real OS
//! thread**, but time is **virtual**. The [`SimClock`] only advances when
//! every registered [`Actor`] is quiescent: blocked on a predicate
//! ([`Actor::wait_on`]), which is also how it sleeps until a known
//! virtual instant ([`Actor::advance`] waits on an alarm of its own).
//! The clock then jumps to the earliest pending alarm.
//!
//! This gives the two properties the clMPI reproduction needs:
//!
//! 1. **Overlap is real.** Two actors that each `advance(10ms)` in the same
//!    window cost 10 ms of virtual time, not 20 ms; serialized, they cost
//!    20 ms. Computation/communication overlap therefore falls out of the
//!    concurrency structure of the program under test, exactly as on real
//!    hardware.
//! 2. **Timing is deterministic** for a fixed dependency structure; the
//!    virtual timestamps of operations do not depend on host load.
//!
//! ## Contract
//!
//! Any mutation of state that another actor may be blocked on **must** be
//! followed by a notify that reaches it: [`SimClock::notify_key`] with the
//! [`WakeKey`] the waiter registered ([`Actor::wait_on`]). An instant a
//! waiter compares `now` against needs an alarm on such a key
//! ([`SimClock::schedule_alarm_keyed`]). The synchronization
//! primitives in [`sync`] ([`Monitor`], [`SimChannel`])
//! uphold this automatically — each monitor owns a key, notifies it on
//! every mutation and registers it for its waiters; use them instead of
//! raw locks for cross-actor state.
//!
//! ## Example
//!
//! ```
//! use simtime::SimClock;
//! use std::time::Duration;
//!
//! let clock = SimClock::new();
//! let a = clock.register("worker-a");
//! let b = clock.register("worker-b");
//! let ta = std::thread::spawn(move || { a.advance(Duration::from_millis(10)); a.now_ns() });
//! let tb = std::thread::spawn(move || { b.advance(Duration::from_millis(4)); b.now_ns() });
//! assert_eq!(ta.join().unwrap(), 10_000_000);
//! assert_eq!(tb.join().unwrap(), 4_000_000);
//! // Overlapped: the clock reached max(10ms, 4ms), not the sum.
//! assert_eq!(clock.now_ns(), 10_000_000);
//! ```

mod clock;
pub mod plock;
pub mod rng;
pub mod sched;
pub mod sync;
pub mod trace;

pub use clock::{Actor, ActorStatus, LabelWakes, Progress, SimClock, WakeKey, WakeStats};
pub use rng::{fnv1a, XorShift64};
pub use sched::{
    in_sched_pass, note_read, note_wake_at, poll_future, until, MachineHandle, MachineStep,
    SimActor,
};
pub use sync::{Monitor, SimChannel};
pub use trace::{OpSpan, Span, Trace};

/// Virtual nanoseconds since simulation start.
pub type SimNs = u64;

/// Convert a [`std::time::Duration`] to virtual nanoseconds (saturating).
pub fn dur_ns(d: std::time::Duration) -> SimNs {
    d.as_nanos().min(u64::MAX as u128) as SimNs
}

/// Pretty-print a virtual timestamp/duration for logs and harness output.
pub fn fmt_ns(ns: SimNs) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}
