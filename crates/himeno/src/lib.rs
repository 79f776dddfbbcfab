//! # himeno — the Himeno benchmark on the clMPI stack
//!
//! The paper's first evaluation workload (§V-C): a 19-point Jacobi stencil
//! over a 3-D pressure grid, 1-D domain decomposition along the slowest
//! axis, each rank's slab halved into a lower part **A** and an upper part
//! **B** so halo exchange for one half overlaps computation of the other
//! (paper Fig. 2/3).
//!
//! Three implementations, as measured in Fig. 9:
//!
//! * [`Variant::Serial`] — kernel, device→host reads, `MPI_Sendrecv`, and
//!   host→device writes all serialized (the paper's lower bound).
//! * [`Variant::HandOptimized`] — the two-queue overlap scheme of \[13\]:
//!   the host enqueues the A kernel, then performs the B-halo exchange
//!   with blocking staged (pinned) transfers, then the B kernel, then the
//!   A-halo exchange. Overlap works, but the host thread is tied up in
//!   each exchange (the Fig. 4(b) limitation).
//! * [`Variant::ClMpi`] — the Fig. 6 rewrite: kernels and
//!   `enqueue_send_buffer`/`enqueue_recv_buffer` commands chained purely
//!   by events; the host only calls `clFinish` at iteration ends, and the
//!   runtime picks the transfer strategy (mapped on Cichlid, pinned/
//!   pipelined on RICC).
//!
//! Numerics are real: every variant produces the same pressure field as
//! the single-threaded [`reference_jacobi`] solver (bitwise for `p`, tolerance
//! for the `gosa` reduction), which the tests verify.

#![forbid(clippy::too_many_arguments)]

mod grid;
mod recover;
mod reference;
mod run;

pub use grid::{init_planes, GridSize, HimenoGrid, FLOPS_PER_POINT, OMEGA};
pub use recover::{run_himeno_recover, RecoverConfig, RecoverResult};
pub use reference::{checksum, reference_jacobi};
pub use run::{run_himeno, run_himeno_with_faults, HaloMode, HimenoConfig, HimenoResult, Variant};
