//! # minicl — an OpenCL-style runtime on virtual time
//!
//! The substrate the clMPI extension plugs into. It reproduces the parts
//! of the OpenCL 1.1 execution model the paper's design depends on:
//!
//! * **Contexts** own devices and resources ([`Context`]).
//! * **Command queues** are in-order; each is driven by a real executor
//!   thread that dispatches commands one at a time ([`CommandQueue`]).
//! * **Events** carry a status machine (queued → submitted → running →
//!   complete) with profiling timestamps in virtual ns, support wait
//!   lists across queues, completion callbacks, and **user events** — the
//!   vehicle the paper uses to make inter-node communication commands
//!   mimic ordinary command events ([`Event`], [`UserEvent`]).
//! * **Buffers** are device-resident byte arrays with typed views and
//!   map/unmap ([`Buffer`]); host buffers may be pinned or pageable
//!   ([`HostBuffer`]), which changes PCIe transfer rates exactly as the
//!   paper's three transfer implementations exploit.
//! * **Kernels** are Rust closures over buffers; their *cost* in device
//!   time comes from the device model ([`DeviceSpec`]), so numerics are
//!   real while timing is simulated.
//!
//! Device presets reproduce Table I: [`DeviceSpec::tesla_c2070`]
//! (Cichlid) and [`DeviceSpec::tesla_c1060`] (RICC).

#![deny(clippy::undocumented_unsafe_blocks)]

mod buffer;
mod context;
mod device;
pub mod error;
mod event;
mod queue;
pub mod status;

pub use buffer::{AlignedBytes, Buffer, HostBuffer};
pub use context::{Context, Device};
pub use device::{DeviceSpec, PcieModel};
pub use error::ClError;
pub use event::{CommandStatus, Event, ProfilingInfo, UserEvent, WaitListStatus};
pub use queue::CommandQueue;
pub use status::{CL_MPI_TRANSFER_ERROR, EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST};

/// Result alias for fallible runtime calls.
pub type ClResult<T> = Result<T, ClError>;
