//! # minimpi — an MPI subset on the simulated fabric
//!
//! The clMPI paper implements its extension *on top of* MPI (Open MPI 1.6,
//! `MPI_THREAD_MULTIPLE`). This crate is that substrate: an MPI-shaped
//! message-passing library whose ranks are threads of one process, whose
//! wire is [`simnet`], and whose time is [`simtime`] virtual time.
//!
//! Supported (the subset the paper's codes use, plus the common core):
//!
//! * SPMD launch: [`run_world`] starts `n` ranks, each on its own thread
//!   with its own clock [`simtime::Actor`].
//! * Point-to-point: [`Comm::send`]/[`Comm::recv`] (blocking),
//!   [`Comm::isend`]/[`Comm::irecv`] (non-blocking, [`Request`]-based),
//!   [`Comm::sendrecv`], wildcard source/tag, **non-overtaking** matching
//!   in posted order on both sides.
//! * Requests: [`Request::wait`], [`Request::test`], [`wait_all`].
//! * One-sided: [`Win`] windows (`Win_create`, `Put`/`Get`/`Accumulate`,
//!   fence and passive-target lock/unlock epochs) routed through the
//!   fabric's RMA transport — loopback, NIC, or a CXL pool port.
//! * Collectives: [`Comm::barrier`], [`Comm::bcast`], [`Comm::reduce`],
//!   [`Comm::allreduce`], [`Comm::gather`].
//! * Thread safety: every call takes the calling thread's [`simtime::Actor`]
//!   explicitly; any number of threads per rank may communicate
//!   concurrently (the `MPI_THREAD_MULTIPLE` the paper requires for its
//!   internal communication thread).
//!
//! Deliberate deviations from real MPI, documented for reviewers:
//!
//! * Buffers are byte slices; typed helpers live in [`datatype`]. A
//!   [`Datatype`] tag travels with each message so the clMPI runtime can
//!   implement the paper's `MPI_CL_MEM` protocol.
//! * Sends are *buffered* (eager): `isend` snapshots the payload and
//!   reserves fabric capacity immediately; the request completes at
//!   injection end. This matches DMA-capable NICs and is what lets
//!   communication progress with no host thread involvement — the property
//!   clMPI builds on.
//! * `irecv` returns the payload from `wait` instead of writing through a
//!   held `&mut` borrow (Rust aliasing); `recv`/`recv_into` copy into a
//!   caller buffer.
//! * The first launch in a process tells glibc to keep freed memory
//!   (`mallopt`, as MVAPICH2 and Open MPI's `leave_pinned` do at
//!   `MPI_Init`), and to give no later thread an arena of its own: a
//!   world frees hundreds of megabytes when its ranks return and the next
//!   one's rank threads would fault them back in. The process then holds
//!   its high-water mark.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod collectives;
pub mod datatype;
mod ft;
mod heap;
mod launch;
mod p2p;
mod retry;
pub mod rma;
mod world;

pub use collectives::ReduceOp;
pub use datatype::{CommittedType, Datatype, DatatypeError, DerivedType};
pub use launch::{run_world, run_world_faulty, run_world_sized, WorldResult};
pub use p2p::{wait_all, wait_any, MpiError, RecvResult, Request, Status};
pub use retry::RetryPolicy;
pub use rma::{RmaHandle, RmaPoll, RmaRoute, Win, RMA_PATIENCE_NS, RMA_TAG_BASE};
pub use world::{Comm, Process, World, ANY_SOURCE, ANY_TAG, MAX_USER_TAG};

// Fault-plan types come from the fabric layer; re-exported so apps can
// build failure scenarios without depending on `simnet` directly.
pub use simnet::{DropReason, FaultCounts, FaultPlan, FaultPlanError, NodeDownWindow};

/// Rank index within a world.
pub type Rank = usize;
/// Message tag. User tags must lie in `0..=MAX_USER_TAG`; higher values are
/// reserved for collectives and the clMPI runtime.
pub type Tag = i32;
