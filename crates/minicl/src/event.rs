//! Event objects: the dependency mechanism of the OpenCL execution model.
//!
//! Every enqueued command is bound to an [`Event`]; commands may name
//! other events in a *wait list* and only start once all of them complete.
//! [`UserEvent`]s are completable from application (or clMPI runtime)
//! code — the paper's implementation makes inter-node communication
//! commands return user events that "mimic event objects of standard
//! OpenCL commands" (§V-A); this module is exactly that mimicry.

use std::future::Future;
use std::sync::Arc;

use simtime::{until, Actor, Monitor, SimClock, SimNs};

use crate::{ClError, ClResult};

/// Command execution status (`CL_QUEUED` … `CL_COMPLETE`, or a negative
/// error code as OpenCL events report abnormal termination).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandStatus {
    /// Enqueued, not yet seen by the executor.
    Queued,
    /// Picked up by the executor, waiting on its wait list.
    Submitted,
    /// Executing on the device.
    Running,
    /// Finished; timestamps final.
    Complete,
    /// Terminated abnormally with a negative OpenCL-style error code
    /// (e.g. [`crate::status::EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST`]
    /// when a wait list dependency failed, or a runtime-specific code such
    /// as an exhausted-retries transfer error).
    Failed(i32),
}

impl CommandStatus {
    /// True once the event can never change again (complete or failed).
    pub fn is_settled(self) -> bool {
        matches!(self, CommandStatus::Complete | CommandStatus::Failed(_))
    }

    /// The negative error code, if failed.
    pub fn error_code(self) -> Option<i32> {
        match self {
            CommandStatus::Failed(c) => Some(c),
            _ => None,
        }
    }
}

/// Profiling timestamps in virtual ns (`CL_PROFILING_COMMAND_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfilingInfo {
    /// When the command was enqueued.
    pub queued: SimNs,
    /// When the executor picked it up.
    pub submitted: SimNs,
    /// When execution began (wait list satisfied).
    pub started: SimNs,
    /// When execution finished.
    pub completed: SimNs,
}

struct EventState {
    status: CommandStatus,
    profiling: ProfilingInfo,
    #[allow(clippy::type_complexity)]
    callbacks: Vec<Box<dyn FnOnce(CommandStatus) + Send>>,
    label: String,
}

/// A command's status handle. Cheap to clone; all clones observe the same
/// state (like `cl_event` handles with retain/release).
#[derive(Clone)]
pub struct Event {
    core: Arc<Monitor<EventState>>,
}

impl Event {
    pub(crate) fn new_queued(clock: SimClock, label: impl Into<String>) -> Self {
        let queued = clock.now_ns();
        Event {
            core: Arc::new(Monitor::new(
                clock,
                EventState {
                    status: CommandStatus::Queued,
                    profiling: ProfilingInfo {
                        queued,
                        ..Default::default()
                    },
                    callbacks: Vec::new(),
                    label: label.into(),
                },
            )),
        }
    }

    /// Current status.
    pub fn status(&self) -> CommandStatus {
        self.core.peek(|st| st.status)
    }

    /// True once complete.
    pub fn is_complete(&self) -> bool {
        self.status() == CommandStatus::Complete
    }

    /// True once failed (negative status).
    pub fn is_failed(&self) -> bool {
        matches!(self.status(), CommandStatus::Failed(_))
    }

    /// The negative error code, if the event failed.
    pub fn error_code(&self) -> Option<i32> {
        self.status().error_code()
    }

    /// Profiling timestamps; `None` until complete (as in OpenCL, where
    /// querying before completion is undefined — we make it checkable).
    pub fn profiling(&self) -> Option<ProfilingInfo> {
        self.core
            .peek(|st| (st.status == CommandStatus::Complete).then_some(st.profiling))
    }

    /// Completion instant, if complete.
    pub fn completion_time(&self) -> Option<SimNs> {
        self.profiling().map(|p| p.completed)
    }

    /// Diagnostic label ("kernel jacobi", "recv-buffer from 3", …).
    pub fn label(&self) -> String {
        self.core.peek(|st| st.label.clone())
    }

    /// A future ready with the command's status once it settles —
    /// completes or fails: the one wait every blocking form below and
    /// every task body share.
    pub fn settled(&self) -> impl Future<Output = CommandStatus> + '_ {
        until(|| {
            self.core
                .peek(|st| st.status.is_settled().then_some(st.status))
        })
    }

    /// Block the calling actor until the command settles — completes or
    /// fails (`clWaitForEvents` with a single event). Use
    /// [`Event::wait_result`] to observe the failure.
    pub fn wait(&self, actor: &Actor) {
        actor.block_on("event wait", self.settled());
    }

    /// Block until the command settles, reporting abnormal termination as
    /// [`ClError::EventFailed`] — the checked form of [`Event::wait`].
    pub fn wait_result(&self, actor: &Actor) -> ClResult<()> {
        let status = actor.block_on("event wait", self.settled());
        self.checked(status)
    }

    /// `status`, this event's settled status, as a result.
    fn checked(&self, status: CommandStatus) -> ClResult<()> {
        match status.error_code() {
            None => Ok(()),
            Some(code) => Err(ClError::EventFailed {
                code,
                label: self.label(),
            }),
        }
    }

    /// Block until every event in `events` settles (`clWaitForEvents`).
    pub fn wait_all(events: &[Event], actor: &Actor) {
        let _ = Event::wait_all_result(events, actor);
    }

    /// Block until every event settles; the first failure (in list order)
    /// is returned as an error. All events are waited either way, so the
    /// caller observes a quiescent state.
    pub fn wait_all_result(events: &[Event], actor: &Actor) -> ClResult<()> {
        actor.block_on("event wait", Event::all_settled(events))
    }

    /// The future of [`Event::wait_all_result`]: every event settled, the
    /// first failure in list order as the error.
    pub async fn all_settled(events: &[Event]) -> ClResult<()> {
        let mut first = Ok(());
        for e in events {
            let status = e.settled().await;
            if first.is_ok() {
                first = e.checked(status);
            }
        }
        first
    }

    /// Non-blocking wait-list poll: the one dependency-readiness rule
    /// shared by the queue executor and the clMPI progress engine (it used
    /// to be duplicated as two near-identical loops). A list is `Pending`
    /// while any member is unsettled; once all are settled, the first
    /// failure **in list order** wins (matching
    /// [`Event::wait_all_result`]'s error choice), else `Ready`.
    pub fn poll_wait_list(events: &[Event]) -> WaitListStatus {
        if events.iter().any(|e| !e.status().is_settled()) {
            return WaitListStatus::Pending;
        }
        for e in events {
            if let Some(code) = e.error_code() {
                return WaitListStatus::Failed {
                    code,
                    label: e.label(),
                };
            }
        }
        WaitListStatus::Ready
    }

    /// Register a completion callback (`clSetEventCallback` for
    /// `CL_COMPLETE`). Runs immediately if already complete; otherwise on
    /// the thread that completes the event.
    pub fn on_complete(&self, cb: impl FnOnce(CommandStatus) + Send + 'static) {
        let mut cb = Some(Box::new(cb) as Box<dyn FnOnce(CommandStatus) + Send>);
        let settled = self.core.with(|st| {
            if st.status.is_settled() {
                Some(st.status)
            } else {
                st.callbacks.push(cb.take().expect("callback present"));
                None
            }
        });
        if let Some(status) = settled {
            // Settled before registration: OpenCL runs it immediately.
            (cb.take().expect("callback present"))(status);
        }
    }

    pub(crate) fn mark_submitted(&self, at: SimNs) {
        self.core.with(|st| {
            debug_assert_eq!(st.status, CommandStatus::Queued);
            st.status = CommandStatus::Submitted;
            st.profiling.submitted = at;
        });
    }

    pub(crate) fn mark_running(&self, at: SimNs) {
        self.core.with(|st| {
            st.status = CommandStatus::Running;
            st.profiling.started = at;
        });
    }

    /// Complete the event at virtual instant `at` (callers have already
    /// advanced to `at`). Runs callbacks outside the lock.
    pub(crate) fn complete(&self, at: SimNs) {
        let cbs = self.core.with(|st| {
            debug_assert!(!st.status.is_settled(), "double completion");
            if st.profiling.submitted == 0 {
                st.profiling.submitted = st.profiling.queued;
            }
            if st.profiling.started == 0 {
                st.profiling.started = st.profiling.submitted;
            }
            st.status = CommandStatus::Complete;
            st.profiling.completed = at;
            std::mem::take(&mut st.callbacks)
        });
        for cb in cbs {
            cb(CommandStatus::Complete);
        }
    }

    /// Terminate the event abnormally with a negative error code at
    /// virtual instant `at`. Waiters are released (observing the failure
    /// through [`Event::wait_result`] / [`Event::status`]) and callbacks
    /// run with the failed status, as `clSetEventCallback` documents.
    pub(crate) fn fail(&self, at: SimNs, code: i32) {
        debug_assert!(code < 0, "OpenCL error statuses are negative");
        let cbs = self.core.with(|st| {
            debug_assert!(!st.status.is_settled(), "double completion");
            st.status = CommandStatus::Failed(code);
            st.profiling.completed = at;
            std::mem::take(&mut st.callbacks)
        });
        for cb in cbs {
            cb(CommandStatus::Failed(code));
        }
    }
}

/// Aggregate readiness of a wait list at one instant, as reported by
/// [`Event::poll_wait_list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitListStatus {
    /// Every event settled, none failed — dependents may start.
    Ready,
    /// At least one event is still unsettled.
    Pending,
    /// Every event settled and at least one failed; dependents must be
    /// poisoned with
    /// [`crate::status::EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST`].
    Failed {
        /// The first failed event's (negative) status code.
        code: i32,
        /// The first failed event's diagnostic label.
        label: String,
    },
}

/// A user event (`clCreateUserEvent`): an [`Event`] completable from
/// application code. The clMPI runtime returns these from its inter-node
/// communication commands.
pub struct UserEvent {
    event: Event,
}

impl UserEvent {
    /// Create an incomplete user event on `clock`.
    pub fn new(clock: SimClock, label: impl Into<String>) -> Self {
        UserEvent {
            event: Event::new_queued(clock, label),
        }
    }

    /// The underlying event handle to hand to wait lists.
    pub fn event(&self) -> Event {
        self.event.clone()
    }

    /// Complete the event now (`clSetUserEventStatus(CL_COMPLETE)`).
    /// Fails on double completion.
    pub fn set_complete(&self, at: SimNs) -> ClResult<()> {
        if self.event.status().is_settled() {
            return Err(ClError::InvalidOperation(
                "user event already settled".into(),
            ));
        }
        self.event.complete(at);
        Ok(())
    }

    /// Terminate the event with a negative error code
    /// (`clSetUserEventStatus` with a negative execution status). Commands
    /// gated on this event are poisoned with
    /// [`crate::status::EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST`].
    pub fn set_failed(&self, at: SimNs, code: i32) -> ClResult<()> {
        if self.event.status().is_settled() {
            return Err(ClError::InvalidOperation(
                "user event already settled".into(),
            ));
        }
        if code >= 0 {
            return Err(ClError::InvalidValue(format!(
                "event error status must be negative, got {code}"
            )));
        }
        self.event.fail(at, code);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_profiling() {
        let clock = SimClock::new();
        let a = clock.register("t");
        a.advance_ns(10);
        let e = Event::new_queued(clock.clone(), "k");
        assert_eq!(e.status(), CommandStatus::Queued);
        assert!(e.profiling().is_none());
        e.mark_submitted(12);
        assert_eq!(e.status(), CommandStatus::Submitted);
        e.mark_running(20);
        e.complete(35);
        let p = e.profiling().expect("complete");
        assert_eq!(p.queued, 10);
        assert_eq!(p.submitted, 12);
        assert_eq!(p.started, 20);
        assert_eq!(p.completed, 35);
    }

    #[test]
    fn wait_blocks_until_completion() {
        let clock = SimClock::new();
        let waiter = clock.register("w");
        let setter = clock.register("s");
        let e = Event::new_queued(clock.clone(), "x");
        let e2 = e.clone();
        let t = std::thread::spawn(move || {
            setter.advance_ns(500);
            e2.complete(setter.now_ns());
        });
        e.wait(&waiter);
        assert_eq!(waiter.now_ns(), 500);
        t.join().expect("worker thread panicked");
    }

    /// A task must not block: `Event::wait` inside one panics, and the
    /// message names the wait.
    #[test]
    fn a_task_that_waits_on_an_event_panics_naming_the_wait() {
        let clock = SimClock::new();
        let driver = clock.register("driver");
        let e = Event::new_queued(clock.clone(), "never");
        clock.spawn_task("waiter", "waiting task", move |task| async move {
            e.wait(&task)
        });
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| driver.advance_ns(10)));
        let msg = run
            .err()
            .and_then(|payload| payload.downcast_ref::<String>().cloned());
        assert!(
            msg.as_deref().is_some_and(|m| m.contains("event wait")),
            "{msg:?}"
        );
        assert!(clock.is_poisoned());
    }

    #[test]
    fn user_event_mimics_command_event() {
        let clock = SimClock::new();
        let a = clock.register("a");
        let ue = UserEvent::new(clock.clone(), "clmpi send");
        let handle = ue.event();
        assert!(!handle.is_complete());
        a.advance_ns(100);
        ue.set_complete(a.now_ns())
            .expect("user event completes once");
        assert!(handle.is_complete());
        assert_eq!(handle.completion_time(), Some(100));
        assert!(ue.set_complete(101).is_err(), "double completion rejected");
    }

    #[test]
    fn callbacks_run_on_completion() {
        let clock = SimClock::new();
        let fired = Arc::new(simtime::plock::Mutex::new(false));
        let e = Event::new_queued(clock, "cb");
        let f2 = fired.clone();
        e.on_complete(move |s| {
            assert_eq!(s, CommandStatus::Complete);
            *f2.lock() = true;
        });
        assert!(!*fired.lock());
        e.complete(1);
        assert!(*fired.lock());
    }

    #[test]
    fn failed_event_releases_waiters_with_error() {
        let clock = SimClock::new();
        let a = clock.register("a");
        let ue = UserEvent::new(clock.clone(), "doomed");
        let handle = ue.event();
        a.advance_ns(50);
        ue.set_failed(a.now_ns(), -42)
            .expect("user event fails once");
        assert!(handle.is_failed());
        assert_eq!(handle.error_code(), Some(-42));
        match handle.wait_result(&a) {
            Err(crate::ClError::EventFailed { code, label }) => {
                assert_eq!(code, -42);
                assert_eq!(label, "doomed");
            }
            other => panic!("expected EventFailed, got {other:?}"),
        }
        // Further settling attempts are rejected.
        assert!(ue.set_complete(60).is_err());
        assert!(ue.set_failed(60, -1).is_err());
    }

    #[test]
    fn set_failed_rejects_non_negative_codes() {
        let clock = SimClock::new();
        let ue = UserEvent::new(clock, "x");
        assert!(ue.set_failed(0, 0).is_err());
        assert!(ue.set_failed(0, 3).is_err());
        assert!(ue.set_failed(0, -3).is_ok());
    }

    #[test]
    fn callbacks_observe_failure_status() {
        let clock = SimClock::new();
        let seen = Arc::new(simtime::plock::Mutex::new(None));
        let e = Event::new_queued(clock, "cb");
        let s2 = seen.clone();
        e.on_complete(move |s| *s2.lock() = Some(s));
        e.fail(5, -7);
        assert_eq!(*seen.lock(), Some(CommandStatus::Failed(-7)));
        // Late registration also sees the failed status.
        let late = Arc::new(simtime::plock::Mutex::new(None));
        let l2 = late.clone();
        e.on_complete(move |s| *l2.lock() = Some(s));
        assert_eq!(*late.lock(), Some(CommandStatus::Failed(-7)));
    }

    #[test]
    fn wait_all_waits_for_every_event() {
        let clock = SimClock::new();
        let a = clock.register("a");
        let e1 = Event::new_queued(clock.clone(), "1");
        let e2 = Event::new_queued(clock.clone(), "2");
        e1.complete(0);
        e2.complete(0);
        Event::wait_all(&[e1, e2], &a); // returns immediately
    }

    #[test]
    fn poll_wait_list_reports_pending_then_first_failure_in_list_order() {
        let clock = SimClock::new();
        let e1 = Event::new_queued(clock.clone(), "first");
        let e2 = Event::new_queued(clock.clone(), "second");
        let list = [e1.clone(), e2.clone()];
        assert_eq!(Event::poll_wait_list(&list), WaitListStatus::Pending);
        // The later list entry fails first in time — list order still wins.
        e2.fail(5, crate::status::CL_MPI_TRANSFER_ERROR);
        assert_eq!(Event::poll_wait_list(&list), WaitListStatus::Pending);
        e1.fail(9, -7);
        assert_eq!(
            Event::poll_wait_list(&list),
            WaitListStatus::Failed {
                code: -7,
                label: "first".into()
            }
        );
        assert_eq!(Event::poll_wait_list(&[]), WaitListStatus::Ready);
    }
}
