//! The shared completion abstraction of the progress-engine design.
//!
//! Every layer of the workspace has objects that "finish later in virtual
//! time": minimpi requests, minicl events, clmpi chunked transfers. A
//! progress engine that polls them needs one common, **non-blocking**
//! view of their lifecycle — that view is [`Completion`]. Implementations
//! exist in `minicl` (for `Event`) and `minimpi` (for `Request`); the
//! clmpi engine registers state machines built from them.
//!
//! The contract mirrors the clock's own wake-up rules:
//!
//! * [`Completion::poll`] must never block and must never advance the
//!   clock; it may consult shared state (`Monitor::peek`/`try_now`).
//! * A `Pending` result must be accompanied by *some* future wake-up: an
//!   alarm already scheduled (e.g. a message's arrival), or a state
//!   mutation that will go through [`crate::Monitor::with`] and therefore
//!   [`crate::SimClock::notify`]. [`Completion::wake_hint`] exposes the
//!   known instant when there is one, so pollers can park on an alarm
//!   instead of spinning.

use crate::clock::WakeKey;
use crate::{Actor, SimNs};

/// Lifecycle snapshot of an asynchronous operation, as seen at one
/// virtual instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionState {
    /// Not finished at the polled instant.
    Pending,
    /// Finished successfully at the contained instant (≤ the polled one).
    Complete(SimNs),
    /// Terminated abnormally with a (negative) status code at the
    /// contained instant.
    Failed(i32, SimNs),
}

impl CompletionState {
    /// True once the state can never change again.
    pub fn is_settled(self) -> bool {
        !matches!(self, CompletionState::Pending)
    }

    /// The settling instant, if settled.
    pub fn settled_at(self) -> Option<SimNs> {
        match self {
            CompletionState::Pending => None,
            CompletionState::Complete(at) | CompletionState::Failed(_, at) => Some(at),
        }
    }

    /// The error code, if failed.
    pub fn error_code(self) -> Option<i32> {
        match self {
            CompletionState::Failed(code, _) => Some(code),
            _ => None,
        }
    }
}

/// A non-blocking, poll-based view of an in-flight operation.
pub trait Completion {
    /// Snapshot the state at virtual instant `now`. Must not block and
    /// must not mutate observable cross-actor state.
    fn poll(&self, now: SimNs) -> CompletionState;

    /// The known future instant at which a `Pending` poll will flip to a
    /// settled state, if the implementation already knows it (e.g. an
    /// eager send's injection end, a matched message's arrival). `None`
    /// means "unknown — wait for a notify".
    fn wake_hint(&self, _now: SimNs) -> Option<SimNs> {
        None
    }
}

/// Block `actor` until `c` settles, waking on clock notifies and on the
/// completion's own [`Completion::wake_hint`] alarms. The blocking
/// convenience over the poll-based contract — engines use [`Completion::poll`]
/// directly and never call this on a data path.
pub fn block_on(actor: &Actor, c: &dyn Completion) -> CompletionState {
    let clock = actor.clock().clone();
    actor.wait_until_labeled("completion", || {
        let now = actor.now_ns();
        let st = c.poll(now);
        if st.is_settled() {
            return Some(st);
        }
        if let Some(at) = c.wake_hint(now) {
            // This wait is a wildcard one; the hint is for it alone.
            clock.schedule_alarm_keyed(at, WakeKey::RUNNERS);
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Monitor, SimClock};
    use std::sync::Arc;

    struct TimerDone {
        at: SimNs,
        slot: Arc<Monitor<Option<SimNs>>>,
    }

    impl Completion for TimerDone {
        fn poll(&self, now: SimNs) -> CompletionState {
            if self.slot.peek(|s| s.is_some()) || now >= self.at {
                CompletionState::Complete(self.at)
            } else {
                CompletionState::Pending
            }
        }
        fn wake_hint(&self, _now: SimNs) -> Option<SimNs> {
            Some(self.at)
        }
    }

    #[test]
    fn block_on_wakes_at_the_hinted_instant() {
        let clock = SimClock::new();
        let a = clock.register("poller");
        let c = TimerDone {
            at: 7_500,
            slot: Arc::new(Monitor::new(clock.clone(), None)),
        };
        assert_eq!(c.poll(a.now_ns()), CompletionState::Pending);
        let st = block_on(&a, &c);
        assert_eq!(st, CompletionState::Complete(7_500));
        assert_eq!(a.now_ns(), 7_500, "woken exactly at the hint");
    }

    #[test]
    fn state_accessors() {
        assert!(!CompletionState::Pending.is_settled());
        assert_eq!(CompletionState::Complete(3).settled_at(), Some(3));
        assert_eq!(CompletionState::Failed(-42, 9).settled_at(), Some(9));
        assert_eq!(CompletionState::Failed(-42, 9).error_code(), Some(-42));
        assert_eq!(CompletionState::Complete(3).error_code(), None);
    }
}
