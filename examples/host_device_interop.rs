//! The paper's Fig. 7: MPI interoperability. Rank 0 (host memory) posts
//! `MPI_Irecv` with `MPI_CL_MEM`, wraps the request in an OpenCL event
//! with `clCreateEventFromMPIRequest`, runs a kernel *during* the
//! transfer, and gates a `clEnqueueWriteBuffer` on the event. Rank 1's
//! device sends with `clEnqueueSendBuffer`.
//!
//! Run: `cargo run --release --example host_device_interop`

use clmpi::{ClMpi, SystemConfig};
use minimpi::run_world_sized;
use simtime::fmt_ns;

fn main() {
    const BYTES: usize = 2 << 20;
    let sys = SystemConfig::ricc();
    run_world_sized(sys.cluster.clone(), 2, |p| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        let q = rt.context().create_queue(0, format!("rank{}", p.rank()));
        if p.rank() == 0 {
            // Receiving data from a remote device into host memory.
            let req = rt.irecv_cl(&p.actor, 1, 0, BYTES);
            // Executing a kernel during the data transfer.
            let ek = q.enqueue_kernel("overlapped", 700_000, &[], || {});
            // Executing this only after the communication completes.
            let buf = rt.context().create_buffer(BYTES);
            let host = req.data.clone();
            let ew = q
                .enqueue_write_buffer(
                    &p.actor,
                    &buf,
                    false,
                    0,
                    BYTES,
                    &host,
                    0,
                    &[req.event.clone(), ek.clone()],
                )
                .expect("gated write");
            ew.wait(&p.actor);
            let pk = ek.profiling().expect("kernel profiled");
            let pw = ew.profiling().expect("write profiled");
            println!(
                "rank 0: kernel ran {} → {} DURING the inter-node transfer",
                fmt_ns(pk.started),
                fmt_ns(pk.completed)
            );
            println!(
                "rank 0: write started {} — after the MPI_CL_MEM receive completed at {}",
                fmt_ns(pw.started),
                fmt_ns(req.event.completion_time().expect("recv done"))
            );
            assert!(pw.started >= req.event.completion_time().unwrap());
            assert_eq!(buf.load(0, 8).unwrap().as_slice(), vec![9u8; 8]);
        } else {
            // Device side: fill a buffer and send it to the remote host.
            let buf = rt.context().create_buffer(BYTES);
            buf.store(0, &vec![9u8; BYTES]).unwrap();
            rt.enqueue_send_buffer(&q, &buf, true, 0, BYTES, 0, 0, &[], &p.actor)
                .expect("send");
            println!("rank 1: device buffer sent to the remote host");
        }
        // Demonstrate the reverse direction too: host 0 sends to device 1
        // with MPI_CL_MEM semantics.
        if p.rank() == 0 {
            let data = vec![5u8; 4096];
            rt.send_cl(&p.actor, 1, 1, &data);
        } else {
            let buf = rt.context().create_buffer(4096);
            rt.enqueue_recv_buffer(&q, &buf, true, 0, 4096, 0, 1, &[], &p.actor)
                .expect("recv");
            assert_eq!(buf.load(0, 4096).unwrap().as_slice(), vec![5u8; 4096]);
            println!("rank 1: host→device MPI_CL_MEM send landed in device memory");
        }
        rt.shutdown(&p.actor);
    });
}
