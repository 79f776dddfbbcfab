//! The paper's Fig. 1: *conventional* joint programming of MPI and
//! OpenCL, written directly against `minimpi` + `minicl` with no clMPI.
//! Kernel → blocking read → `MPI_Sendrecv` → blocking write, everything
//! serialized through the host thread. Compare with
//! `examples/quickstart.rs`.
//!
//! Run: `cargo run --release --example naive_joint`

use clmpi::SystemConfig;
use minicl::{Context, HostBuffer};
use minimpi::run_world_sized;
use simtime::fmt_ns;

fn main() {
    const BYTES: usize = 1 << 20;
    let sys = SystemConfig::cichlid();
    let res = run_world_sized(sys.cluster.clone(), 2, |p| {
        let sys = SystemConfig::cichlid();
        let ctx = Context::new(p.clock().clone(), &[sys.device]);
        let q = ctx.create_queue(0, format!("rank{}", p.rank()));
        let buf = ctx.create_buffer(BYTES);
        let host = HostBuffer::pinned(BYTES);
        let peer = 1 - p.rank();

        // Kernel producing this rank's data.
        let me = p.rank() as f32;
        let b = buf.clone();
        let evt = q.enqueue_kernel("produce", 500_000, &[], move || {
            b.write(|d| d.as_f32_mut().iter_mut().for_each(|x| *x = me + 1.0));
        });

        // Fig. 1 body: the host blocks at every step to serialize the
        // dependent MPI and OpenCL operations.
        q.enqueue_read_buffer(&p.actor, &buf, true, 0, BYTES, &host, 0, &[evt])
            .expect("read");
        println!(
            "rank {}: host blocked until read done at t={}",
            p.rank(),
            fmt_ns(p.actor.now_ns())
        );
        let got = p
            .comm
            .sendrecv(&p.actor, peer, 1, &host.to_vec(), Some(peer), Some(1));
        host.store(0, &got.data).expect("halo fits");
        q.enqueue_write_buffer(&p.actor, &buf, true, 0, BYTES, &host, 0, &[])
            .expect("write");
        let sample = buf.read(|d| d.as_f32()[0]);
        println!(
            "rank {}: exchange complete at t={}, got peer value {}",
            p.rank(),
            fmt_ns(p.actor.now_ns()),
            sample
        );
        assert_eq!(sample, peer as f32 + 1.0);
    });
    println!(
        "total (everything serialized): {} — compare quickstart's event-driven version",
        fmt_ns(res.elapsed_ns)
    );
}
