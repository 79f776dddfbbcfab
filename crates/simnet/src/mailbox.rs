//! Visibility-aware mailboxes: payloads posted with a future arrival time
//! become receivable only once the virtual clock reaches it.

use std::sync::Arc;

use simtime::{Actor, Monitor, SimClock, SimNs};

/// A payload in flight: receivable once `now >= visible_at`.
#[derive(Debug, Clone)]
pub struct Envelope<T> {
    /// Virtual instant the payload arrives at the receiver.
    pub visible_at: SimNs,
    /// Monotone per-mailbox sequence number (post order).
    pub seq: u64,
    /// The payload itself.
    pub payload: T,
}

struct MailboxState<T> {
    queue: Vec<Envelope<T>>,
    next_seq: u64,
}

/// A clock-aware mailbox with predicate-based selective receive.
///
/// Posting schedules an alarm at `visible_at` on the mailbox's own wake
/// key, so a receiver blocked
/// on an envelope that is still "in flight" wakes exactly at its arrival —
/// even if no other actor is active. This is how `minimpi` gives messages
/// real network timing without a progress thread.
pub struct Mailbox<T> {
    inner: Arc<Monitor<MailboxState<T>>>,
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Self {
        Mailbox {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send> Mailbox<T> {
    /// New empty mailbox bound to `clock`.
    pub fn new(clock: SimClock) -> Self {
        Mailbox {
            inner: Arc::new(Monitor::new(
                clock,
                MailboxState {
                    queue: Vec::new(),
                    next_seq: 0,
                },
            )),
        }
    }

    /// Post `payload`, visible to receivers at `visible_at`. Returns its
    /// sequence number (post order, used for MPI non-overtaking matching).
    pub fn post(&self, payload: T, visible_at: SimNs) -> u64 {
        let seq = self.inner.with(|st| {
            let seq = st.next_seq;
            st.next_seq += 1;
            st.queue.push(Envelope {
                visible_at,
                seq,
                payload,
            });
            seq
        });
        self.inner.alarm_at(visible_at);
        seq
    }

    /// Blocking selective receive: among envelopes matching `matches`, the
    /// **lowest-seq** one is chosen (post order — MPI's non-overtaking
    /// rule), and the call completes once that envelope is visible.
    ///
    /// Note the two-phase semantics: matching is by post order, then the
    /// receiver waits for the *matched* envelope's arrival even if a
    /// later-posted matching envelope would arrive sooner — exactly MPI's
    /// behaviour for same (source, tag) traffic.
    pub fn recv_matching(&self, actor: &Actor, mut matches: impl FnMut(&T) -> bool) -> Envelope<T> {
        // Phase 1: wait for any matching envelope to exist, note its seq.
        let (seq, visible_at) = self.inner.wait_labeled(actor, "mailbox match", |st| {
            st.queue
                .iter()
                .filter(|e| matches(&e.payload))
                .min_by_key(|e| e.seq)
                .map(|e| (e.seq, e.visible_at))
        });
        // Phase 2: wait for that envelope's visibility, then take it.
        let clock = self.inner.clock().clone();
        self.inner
            .wait_labeled(actor, "mailbox visibility", move |st| {
                if clock.now_ns() < visible_at {
                    return None;
                }
                let idx = st.queue.iter().position(|e| e.seq == seq)?;
                Some(st.queue.swap_remove(idx))
            })
    }

    /// Non-blocking probe: is a matching envelope present **and visible**?
    pub fn probe(&self, mut matches: impl FnMut(&T) -> bool) -> bool {
        let now = self.inner.clock().now_ns();
        self.inner.peek(|st| {
            st.queue
                .iter()
                .any(|e| e.visible_at <= now && matches(&e.payload))
        })
    }

    /// Non-blocking poll hook for progress engines: the `visible_at` of the
    /// lowest-seq matching envelope, whether or not it is visible yet.
    /// `Some(t)` with `t > now` means "a match exists but is still in
    /// flight — park until `t`"; `None` means no match has been posted, so
    /// the poller must wait for a clock notify instead of an alarm.
    pub fn earliest_matching_visibility(
        &self,
        mut matches: impl FnMut(&T) -> bool,
    ) -> Option<SimNs> {
        self.inner.peek(|st| {
            st.queue
                .iter()
                .filter(|e| matches(&e.payload))
                .min_by_key(|e| e.seq)
                .map(|e| e.visible_at)
        })
    }

    /// Non-blocking matching receive of the lowest-seq visible match.
    pub fn try_recv_matching(&self, mut matches: impl FnMut(&T) -> bool) -> Option<Envelope<T>> {
        let now = self.inner.clock().now_ns();
        self.inner.try_now(|st| {
            let seq = st
                .queue
                .iter()
                .filter(|e| e.visible_at <= now && matches(&e.payload))
                .min_by_key(|e| e.seq)
                .map(|e| e.seq)?;
            let idx = st.queue.iter().position(|e| e.seq == seq)?;
            Some(st.queue.swap_remove(idx))
        })
    }

    /// Number of queued (visible or in-flight) envelopes.
    pub fn len(&self) -> usize {
        self.inner.peek(|st| st.queue.len())
    }

    /// True when no envelopes are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn receive_waits_for_visibility() {
        let clock = SimClock::new();
        let mb = Mailbox::new(clock.clone());
        let a = clock.register("recv");
        mb.post(7u32, 5_000);
        let env = mb.recv_matching(&a, |_| true);
        assert_eq!(env.payload, 7);
        assert_eq!(a.now_ns(), 5_000, "woken exactly at arrival");
    }

    #[test]
    fn matching_is_post_order_not_arrival_order() {
        // Non-overtaking: the first-posted matching envelope wins even if a
        // later one is visible earlier.
        let clock = SimClock::new();
        let mb = Mailbox::new(clock.clone());
        let a = clock.register("recv");
        mb.post("slow-but-first", 10_000);
        mb.post("fast-but-second", 1_000);
        let env = mb.recv_matching(&a, |_| true);
        assert_eq!(env.payload, "slow-but-first");
        assert_eq!(a.now_ns(), 10_000);
        let env2 = mb.recv_matching(&a, |_| true);
        assert_eq!(env2.payload, "fast-but-second");
        assert_eq!(a.now_ns(), 10_000, "second was already visible");
    }

    #[test]
    fn selective_receive_skips_non_matching() {
        let clock = SimClock::new();
        let mb = Mailbox::new(clock.clone());
        let a = clock.register("recv");
        mb.post(("tagA", 1), 0);
        mb.post(("tagB", 2), 0);
        let env = mb.recv_matching(&a, |(t, _)| *t == "tagB");
        assert_eq!(env.payload.1, 2);
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn probe_respects_visibility() {
        let clock = SimClock::new();
        let mb = Mailbox::new(clock.clone());
        let a = clock.register("x");
        mb.post(1u8, 100);
        assert!(!mb.probe(|_| true), "in flight: not probe-able yet");
        a.advance_ns(100);
        assert!(mb.probe(|_| true));
        assert!(mb.try_recv_matching(|_| true).is_some());
        assert!(mb.try_recv_matching(|_| true).is_none());
    }

    #[test]
    fn earliest_matching_visibility_reports_in_flight_matches() {
        let clock = SimClock::new();
        let mb = Mailbox::new(clock.clone());
        assert_eq!(mb.earliest_matching_visibility(|_: &u8| true), None);
        mb.post(1u8, 9_000);
        mb.post(2u8, 4_000);
        // Lowest-seq match wins (post order), not earliest arrival.
        assert_eq!(mb.earliest_matching_visibility(|_| true), Some(9_000));
        assert_eq!(mb.earliest_matching_visibility(|p| *p == 2), Some(4_000));
        assert_eq!(mb.earliest_matching_visibility(|p| *p == 3), None);
    }

    #[test]
    fn cross_thread_delivery_wakes_blocked_receiver() {
        let clock = SimClock::new();
        let mb = Mailbox::new(clock.clone());
        let r = clock.register("recv");
        let s = clock.register("send");
        let mb2 = mb.clone();
        let sender = thread::spawn(move || {
            s.advance_ns(3_000);
            let now = s.now_ns();
            mb2.post(42u64, now + 2_000);
        });
        let env = mb.recv_matching(&r, |_| true);
        assert_eq!(env.payload, 42);
        assert_eq!(r.now_ns(), 5_000);
        sender.join().expect("worker thread panicked");
    }
}
