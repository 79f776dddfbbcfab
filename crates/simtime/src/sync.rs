//! Clock-aware synchronization primitives.
//!
//! These wrap shared state so that every mutation notifies the clock
//! (upholding the crate-level contract) and every wait participates in
//! virtual-time accounting instead of holding the clock hostage.

use crate::plock::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::{note_read, Actor, SimClock, SimNs, WakeKey};

/// A monitor: shared mutable state whose mutations wake the actors blocked
/// on it.
///
/// `Monitor<T>` is the building block for everything cross-actor in this
/// workspace (mailboxes, event statuses, link timelines). Use
/// [`Monitor::with`] for mutations, [`Monitor::peek`] for pure reads, and
/// [`Monitor::wait`] to block an actor until the state satisfies a
/// predicate.
///
/// Every monitor owns a [`WakeKey`]: its mutations notify that key only,
/// and its waits register on that key only. A predicate waited on through
/// [`Monitor::wait`] must therefore read nothing but this monitor's state
/// and instants announced with [`Monitor::alarm_at`]; a wait that reads
/// more registers the other keys itself through [`Actor::wait_on`] and
/// [`Monitor::key`].
///
/// A machine polled by the scheduler registers nothing by hand: `with`,
/// `peek` and `try_now` note this monitor's key into the scheduler's
/// read-set ([`crate::note_read`]), and the machine is parked on whatever
/// its last step noted. What that cannot see is state kept *outside* a
/// monitor and instants no alarm announces — `sched`'s module notes say
/// what to do about those.
pub struct Monitor<T> {
    clock: SimClock,
    key: WakeKey,
    state: Mutex<T>,
}

impl<T> Monitor<T> {
    /// Create a monitor bound to `clock` holding `value`.
    pub fn new(clock: SimClock, value: T) -> Self {
        Monitor {
            key: clock.new_key(),
            clock,
            state: Mutex::new(value),
        }
    }

    /// The clock this monitor notifies.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The key this monitor's mutations notify.
    pub fn key(&self) -> WakeKey {
        self.key
    }

    /// Wake this monitor's waiters at the future instant `at` (now, if
    /// `at` has passed): the alarm for a predicate that compares the
    /// clock against an instant stored in this monitor.
    pub fn alarm_at(&self, at: SimNs) {
        self.clock.schedule_alarm_keyed(at, self.key);
    }

    /// Mutate the state and wake the actors blocked on this monitor to
    /// re-evaluate.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        note_read(self.key);
        let r = f(&mut self.state.lock());
        self.clock.notify_key(self.key);
        r
    }

    /// Read the state without notifying (must not mutate observable state).
    pub fn peek<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        note_read(self.key);
        f(&self.state.lock())
    }

    /// Block `actor` until `f` returns `Some`. `f` may mutate the state
    /// when it succeeds (e.g. pop a queue entry); the monitor's other
    /// waiters are notified after a successful return, since the state
    /// changed.
    pub fn wait<R>(&self, actor: &Actor, f: impl FnMut(&mut T) -> Option<R>) -> R {
        self.wait_labeled(actor, "monitor", f)
    }

    /// Like [`Monitor::wait`] with a diagnostic label for deadlock reports.
    /// It keeps its one key, not [`Actor::block_on`]: by the contract
    /// above nothing else can change the verdict, so nothing else wakes it.
    pub fn wait_labeled<R>(
        &self,
        actor: &Actor,
        label: &'static str,
        mut f: impl FnMut(&mut T) -> Option<R>,
    ) -> R {
        let r = actor.wait_on(&[self.key], label, || f(&mut self.state.lock()));
        // The successful predicate may have mutated state others wait on.
        self.clock.notify_key(self.key);
        r
    }

    /// Try the predicate once without blocking.
    pub fn try_now<R>(&self, mut f: impl FnMut(&mut T) -> Option<R>) -> Option<R> {
        note_read(self.key);
        let r = f(&mut self.state.lock());
        if r.is_some() {
            self.clock.notify_key(self.key);
        }
        r
    }
}

/// An unbounded multi-producer multi-consumer channel in virtual time.
///
/// `send` is instantaneous in virtual time (it models handing a value to a
/// scheduler, not a network transfer — see `simnet` for timed transfers).
pub struct SimChannel<T> {
    inner: Arc<Monitor<ChannelState<T>>>,
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    senders_closed: bool,
}

impl<T> Clone for SimChannel<T> {
    fn clone(&self) -> Self {
        SimChannel {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send> SimChannel<T> {
    /// Create an empty channel bound to `clock`.
    pub fn new(clock: SimClock) -> Self {
        SimChannel {
            inner: Arc::new(Monitor::new(
                clock,
                ChannelState {
                    queue: VecDeque::new(),
                    senders_closed: false,
                },
            )),
        }
    }

    /// Enqueue a value and wake receivers.
    pub fn send(&self, v: T) {
        self.inner.with(|st| st.queue.push_back(v));
    }

    /// Close the channel: receivers drain the queue then get `None`.
    pub fn close(&self) {
        self.inner.with(|st| st.senders_closed = true);
    }

    /// Blocking receive; `None` once closed and drained.
    pub fn recv(&self, actor: &Actor) -> Option<T> {
        self.inner.wait_labeled(actor, "channel recv", |st| {
            if let Some(v) = st.queue.pop_front() {
                Some(Some(v))
            } else if st.senders_closed {
                Some(None)
            } else {
                None
            }
        })
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.try_now(|st| st.queue.pop_front())
    }

    /// Number of queued values.
    pub fn len(&self) -> usize {
        self.inner.peek(|st| st.queue.len())
    }

    /// True if no values are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn channel_fifo_order() {
        let clock = SimClock::new();
        let ch = SimChannel::new(clock.clone());
        let a = clock.register("recv");
        for i in 0..5 {
            ch.send(i);
        }
        for i in 0..5 {
            assert_eq!(ch.recv(&a), Some(i));
        }
        assert_eq!(ch.try_recv(), None);
    }

    #[test]
    fn channel_close_drains_then_none() {
        let clock = SimClock::new();
        let ch = SimChannel::new(clock.clone());
        let a = clock.register("recv");
        ch.send(1);
        ch.close();
        assert_eq!(ch.recv(&a), Some(1));
        assert_eq!(ch.recv(&a), None);
    }

    #[test]
    fn channel_blocking_recv_wakes_on_send() {
        let clock = SimClock::new();
        let ch = SimChannel::new(clock.clone());
        let r = clock.register("recv");
        let s = clock.register("send");
        let ch2 = ch.clone();
        let sender = thread::spawn(move || {
            s.advance_ns(250);
            ch2.send(99);
        });
        assert_eq!(ch.recv(&r), Some(99));
        assert_eq!(r.now_ns(), 250);
        sender.join().expect("worker thread panicked");
    }

    #[test]
    fn monitor_wait_pops_exactly_once() {
        let clock = SimClock::new();
        let m = Arc::new(Monitor::new(clock.clone(), vec![1, 2, 3]));
        let a = clock.register("a");
        let v = m.wait(&a, |st| st.pop());
        assert_eq!(v, 3);
        assert_eq!(m.peek(|st| st.len()), 2);
    }
}
