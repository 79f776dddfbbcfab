//! The deferred-grant arbiter shared by every timeline several actors
//! claim at the same virtual instant (the fabric's links, shared storage).
//!
//! Claiming a timeline is first-come-first-served in *call* order, so when
//! two threads claim the same one at the same virtual instant, occupancy
//! depends on which OS thread got there first — a real-time race inside a
//! virtual-time simulation. A job posted here instead waits until the
//! clock has *passed* its start instant. The arbiter is a
//! [`simtime::Progress`] source: the clock then grants every due job, in
//! `(earliest, order, seq)` order, before any actor or machine runs at
//! that instant. Claims are backdated to `earliest`, so the simulated
//! timeline is exactly what eager claims in the canonical order would
//! have produced.

use std::sync::{Arc, Weak};

use simtime::plock::Mutex;
use simtime::{Progress, SimClock, SimNs, WakeKey};

struct Posted<K, J> {
    earliest: SimNs,
    /// The caller's canonical tie-break between same-instant posters.
    order: K,
    /// Posting order, the final tie-break. Within one OS thread it is
    /// program order; across threads it only decides between jobs the
    /// caller's `order` already calls equal, where either order yields
    /// the same timeline.
    seq: u64,
    job: J,
}

struct Queue<K, J> {
    pending: Vec<Posted<K, J>>,
    next_seq: u64,
}

/// What a grant does with a due job: `grant(earliest, order, job)`.
type Grant<K, J> = Box<dyn Fn(SimNs, K, J) + Send + Sync>;

/// A queue of jobs granted later, in canonical order (module docs). `K`
/// is the sort key between same-instant jobs, `J` what a grant needs.
pub struct DeferredArbiter<K, J> {
    clock: SimClock,
    queue: Mutex<Queue<K, J>>,
    /// The arbiter's progress key: an alarm on it makes the clock grant.
    key: WakeKey,
    grant: Grant<K, J>,
}

impl<K: Ord + Send + 'static, J: Send + 'static> DeferredArbiter<K, J> {
    /// An empty arbiter that grants each job through `grant`, registered
    /// with `clock` as a progress source ([`SimClock::progress_key`]).
    pub fn new(clock: SimClock, grant: impl Fn(SimNs, K, J) + Send + Sync + 'static) -> Arc<Self> {
        Arc::new_cyclic(|me: &Weak<Self>| DeferredArbiter {
            key: clock.progress_key(me.clone()),
            clock,
            queue: Mutex::new(Queue {
                pending: Vec::new(),
                next_seq: 0,
            }),
            grant: Box::new(grant),
        })
    }

    /// Post `job`, grantable once the clock has passed `earliest`.
    pub fn post(&self, earliest: SimNs, order: K, job: J) {
        // Clamp to the present. A poster is runnable, so the clock cannot
        // advance during this call — every job later posted carries
        // `earliest >= now >= any instant already granted`, which is what
        // freezes each grant batch before it is sorted.
        let earliest = earliest.max(self.clock.now_ns());
        {
            let mut q = self.queue.lock();
            let seq = q.next_seq;
            q.next_seq += 1;
            q.pending.push(Posted {
                earliest,
                order,
                seq,
                job,
            });
        }
        // The clock grants the job when it passes this instant, even if
        // every actor is parked waiting on it.
        self.clock.schedule_alarm_keyed(earliest + 1, self.key);
    }

    /// Grant every job with `earliest < now`, in `(earliest, order, seq)`
    /// order. The clock does this at every instant an alarm of the arbiter
    /// comes due; call it by hand only where the clock will not advance
    /// again (a world's teardown drain). Grants run under the queue lock:
    /// it is the serialization point of the canonical order, and it also
    /// fixes whatever else a grant numbers (the fabric's receiver-side
    /// message sequence). A grant may therefore take only leaf locks: a
    /// timeline, a per-job cell, the clock's (a notify).
    pub fn pump(&self, now: SimNs) {
        let mut q = self.queue.lock();
        if !q.pending.iter().any(|j| j.earliest < now) {
            return;
        }
        let mut due = Vec::new();
        let mut i = 0;
        while i < q.pending.len() {
            if q.pending[i].earliest < now {
                due.push(q.pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by(|a, b| (a.earliest, &a.order, a.seq).cmp(&(b.earliest, &b.order, b.seq)));
        for j in due {
            (self.grant)(j.earliest, j.order, j.job);
        }
    }

    /// Number of posted-but-ungranted jobs (diagnostics).
    pub fn pending(&self) -> usize {
        self.queue.lock().pending.len()
    }
}

impl<K: Ord + Send + 'static, J: Send + 'static> Progress for DeferredArbiter<K, J> {
    fn run(&self, at: SimNs) {
        self.pump(at);
    }
}
