//! Shared negative event-status codes.
//!
//! Defined here once and re-exported by [`crate::error`], the crate root,
//! and `clmpi`, so every layer of the stack (queue executor, progress
//! engine, application tests) names the same constants instead of
//! restating a literal (`clmpi-check` pass `status-literal`).
//!
//! OpenCL encodes abnormal command termination as a **negative** event
//! execution status; both constants here follow that convention and are
//! valid arguments to `UserEvent::set_failed`.

/// Event status of a command that failed to execute: its wait list
/// contained a failed event (OpenCL's
/// `CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST`).
pub const EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST: i32 = -14;

/// Negative event status reported when an inter-node clMPI transfer fails
/// permanently (retry budget exhausted, receive timeout, or overflow).
/// Outside OpenCL's reserved range, as the paper's extension would define
/// its own error space.
pub const CL_MPI_TRANSFER_ERROR: i32 = -1100;
