//! # nanopowder — the paper's practical application (§V-D)
//!
//! A sectional model of binary-alloy nanopowder growth in thermal plasma
//! synthesis \[15\]. The structure mirrors the paper's parallelization:
//!
//! * Nucleation/condensation and global state live on **one host thread**
//!   (rank 0) — the serial phase.
//! * The **coagulation** routine (≈90% of the original serial runtime) is
//!   the parallel phase: the discrete Smoluchowski update over `K` size
//!   sections, `O(K²)` pair interactions per step, row-decomposed across
//!   ranks and executed on each rank's device.
//! * Every step, rank 0 distributes freshly-updated **coefficient data of
//!   ~42 MB** (the `K × K` collision-kernel matrix, temperature-scaled
//!   per step) plus the section concentrations to all ranks. This is the
//!   exposed communication Fig. 10 is about.
//!
//! Three implementations:
//!
//! * [`NanoVariant::Baseline`] — `MPI_Isend`/`MPI_Recv` into pageable
//!   host memory, then a blocking `clEnqueueWriteBuffer` ("just uses
//!   MPI_Isend and MPI_Recv for coefficient data distribution").
//! * [`NanoVariant::ClMpi`] — one `clEnqueueBcastBuffer`
//!   ([`clmpi::ClMpi::enqueue_bcast_buffer`]) per step: the coefficient
//!   matrix travels root → ranks as a pipelined store-and-forward
//!   broadcast of device buffers, and the coagulation kernel is
//!   event-chained to it.
//! * [`NanoVariant::ClMpiFanout`] — the paper's original shape:
//!   `MPI_Isend` with `MPI_CL_MEM` ([`clmpi::ClMpi::isend_cl`]) +
//!   `clEnqueueRecvBuffer` per rank, pipelined per transfer but
//!   serialized across destinations on rank 0's NIC.
//!
//! The distributed runs are validated bitwise against
//! [`reference_simulation`].

mod model;
mod run;

pub use model::{coagulation_step, reference_simulation, NanoModel};
pub use run::{run_nanopowder, NanoConfig, NanoResult, NanoVariant};
