//! # clmpi — the paper's contribution
//!
//! An OpenCL extension for interoperation with MPI (Takizawa et al.,
//! IPDPS 2013), reproduced over the simulated substrates of this
//! workspace. The extension adds, exactly as §IV of the paper describes:
//!
//! * **Inter-node communication commands** —
//!   [`ClMpi::enqueue_send_buffer`] / [`ClMpi::enqueue_recv_buffer`]
//!   transfer a device memory object to/from a remote rank. They are
//!   ordered against other OpenCL commands purely through **event
//!   objects**: the returned event is a user event that mimics a command
//!   event (the paper's own implementation technique, §V-A), and the
//!   transfer starts only after its wait list completes — with **no host
//!   thread involvement**.
//! * **MPI interoperability** — [`ClMpi::event_from_request`]
//!   (= `clCreateEventFromMPIRequest`) turns a non-blocking MPI request
//!   into an event that OpenCL commands can wait on; the `MPI_CL_MEM`
//!   wrappers [`ClMpi::send_cl`] / [`ClMpi::isend_cl`] /
//!   [`ClMpi::irecv_cl`] let plain MPI calls target communicator devices
//!   (§IV-C).
//! * **Hidden, system-aware transfer strategies** — pinned, mapped and
//!   pipelined data paths ([`TransferStrategy`]), selected automatically
//!   per system and message size ([`SystemConfig`]), reproducing §III's
//!   three implementations and §V-B's selection policy.
//!
//! ## Quick start
//!
//! ```
//! use clmpi::{ClMpi, SystemConfig};
//! use minimpi::run_world_sized;
//!
//! let sys = SystemConfig::cichlid();
//! let cluster = sys.cluster.clone();
//! let res = run_world_sized(cluster, 2, move |p| {
//!     let rt = ClMpi::new(&p, SystemConfig::cichlid());
//!     let buf = rt.context().create_buffer(1024);
//!     let q = rt.context().create_queue(0, format!("r{}", p.rank()));
//!     if p.rank() == 0 {
//!         buf.store(0, &[42u8; 1024]).unwrap();
//!         let e = rt.enqueue_send_buffer(&q, &buf, false, 0, 1024, 1, 7, &[], &p.actor).unwrap();
//!         e.wait(&p.actor);
//!     } else {
//!         let e = rt.enqueue_recv_buffer(&q, &buf, false, 0, 1024, 0, 7, &[], &p.actor).unwrap();
//!         e.wait(&p.actor);
//!         assert_eq!(buf.load(0, 1024).unwrap().as_slice(), vec![42u8; 1024]);
//!     }
//!     rt.shutdown(&p.actor);
//!     p.actor.now_ns()
//! });
//! assert!(res.elapsed_ns > 0);
//! ```

pub mod adaptive;
mod collective;
mod engine;
mod fileio;
pub mod obs;
mod runtime;
mod strategy;
mod system;

pub use adaptive::{AdaptiveSelector, CollectiveSelector, PeerSelector};
pub use collective::{CollAlgo, CollTuning};
pub use fileio::{decode_checkpoint, encode_checkpoint, SimStorage, CKPT_HEADER_LEN, CKPT_MAGIC};
pub use obs::{
    chrome_trace, validate_json, FaultStats, ObsCounters, ObsSummary, OverlapReport, RankOverlap,
};
pub use runtime::{ClMpi, ClRecvRequest, ClSendRequest, ClWindow, RequestOutcome};
pub use strategy::{analytic, chunk_layout, PackMode, ResolvedStrategy, TransferStrategy};
pub use system::SystemConfig;

// Event execution status of a transfer that failed permanently (retry
// budget exhausted or receiver timeout). Defined once in
// `minicl::status` (see that module for the full error-code story) and
// re-exported here so `clmpi::CL_MPI_TRANSFER_ERROR` keeps working.
pub use minicl::status::CL_MPI_TRANSFER_ERROR;

// Collectives reduce over f64 with minimpi's operator set, and every
// retransmit schedule — clMPI's wire chunks and minimpi's one-sided ops —
// is a minimpi `RetryPolicy`; both re-exported so applications don't need
// a direct minimpi dependency for them.
pub use minimpi::{ReduceOp, RetryPolicy};

/// Tag space base for clMPI-internal messages; user tags passed to
/// `enqueue_*_buffer` and the `*_cl` wrappers are mapped above
/// [`minimpi::MAX_USER_TAG`] so they never collide with plain MPI traffic
/// of the same application.
pub const CLMPI_TAG_BASE: minimpi::Tag = 1 << 22;

/// Restrict `plan` to clMPI's data-plane tag space: payload chunks feel
/// the faults while MPI control traffic (barriers, collectives, plain
/// user messages) stays reliable. This is the recommended way to build a
/// plan for clMPI fault-injection experiments.
pub fn data_plane_faults(plan: minimpi::FaultPlan) -> minimpi::FaultPlan {
    plan.with_tag_floor(CLMPI_TAG_BASE)
}

/// Tag space base for clMPI collective traffic: a region above the
/// point-to-point data plane, subdivided per collective kind (bcast /
/// allreduce / reduce) so concurrent collectives with equal user tags
/// never cross-match. Everything here is ≥ [`CLMPI_TAG_BASE`], so
/// [`data_plane_faults`] plans exercise collective chunks too.
pub const CLMPI_COLL_TAG_BASE: minimpi::Tag = CLMPI_TAG_BASE + (1 << 21);

pub(crate) const COLL_SPACE_BCAST: minimpi::Tag = 0;
pub(crate) const COLL_SPACE_ALLREDUCE: minimpi::Tag = 1;
pub(crate) const COLL_SPACE_REDUCE: minimpi::Tag = 2;

/// A tag of the user range, or `CL_INVALID_VALUE`. Every entry point
/// validates tags up front, so a bad tag surfaces on the calling thread
/// instead of panicking a runtime thread.
fn checked_user_tag(user: minimpi::Tag) -> Result<minimpi::Tag, minicl::ClError> {
    if (0..=minimpi::MAX_USER_TAG).contains(&user) {
        Ok(user)
    } else {
        Err(minicl::ClError::InvalidValue(format!(
            "clMPI tag {user} out of user range (0..={})",
            minimpi::MAX_USER_TAG
        )))
    }
}

/// Map a user collective tag into `space`'s sub-region of the collective
/// tag plane.
pub(crate) fn checked_coll_tag(
    space: minimpi::Tag,
    user: minimpi::Tag,
) -> Result<minimpi::Tag, minicl::ClError> {
    Ok(CLMPI_COLL_TAG_BASE + space * (minimpi::MAX_USER_TAG + 1) + checked_user_tag(user)?)
}

/// Map a user tag into the point-to-point data plane.
pub(crate) fn checked_data_tag(user: minimpi::Tag) -> Result<minimpi::Tag, minicl::ClError> {
    Ok(CLMPI_TAG_BASE + checked_user_tag(user)?)
}
