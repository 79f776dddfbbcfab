//! # simnet — simulated cluster interconnect
//!
//! Timing substrate for the clMPI reproduction. Substitutes for the two
//! physical fabrics of the paper's Table I (Gigabit Ethernet on "Cichlid",
//! InfiniBand DDR via IPoIB on "RICC") with an analytic
//! latency/bandwidth/overhead cost model and **reservation-based
//! contention**: a NIC direction is a serialized timeline, so concurrent
//! transfers from one node queue up exactly as they would on hardware.
//!
//! Design choice: reservations are *bookkeeping*, not blocking. Reserving a
//! transfer returns its `(start, end, arrival)` virtual instants
//! immediately; the requesting actor decides whether to sleep until
//! injection completes (blocking send), until arrival (synchronous
//! receive), or not at all (asynchronous DMA-style progress, which is what
//! lets `MPI_Isend` proceed with no host involvement — the property the
//! paper's clMPI relies on).

mod arbiter;
mod cluster;
mod fault;
mod link;
mod mailbox;

pub use arbiter::DeferredArbiter;
pub use cluster::{ClusterSpec, CxlSpec, Fabric, FabricClass, NodeId};
pub use fault::{
    DropReason, FaultCounts, FaultInjector, FaultOutcome, FaultPlan, FaultPlanError, NodeDownWindow,
};
pub use link::{reserve_pair, Link, LinkSpec, Reservation};
pub use mailbox::{Envelope, Mailbox};

#[cfg(test)]
mod proptests;
