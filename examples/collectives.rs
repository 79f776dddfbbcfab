//! Device-buffer collectives (paper §IV-C "future extensions", realized):
//! a pipelined ring broadcast and a ring allreduce on a non-power-of-two
//! world, driven exactly like any other clMPI command — enqueue, get an
//! event, chain kernels on it.
//!
//! After the run the example dumps the structured trace: each rank's
//! `op.bcast` / `op.allreduce` envelope with its `chunk` / `forward` /
//! `reduce` children, so you can see the store-and-forward pipeline
//! (rank k forwarding chunk i while chunk i+1 is still in flight).
//!
//! Run: `cargo run --release --example collectives`

use clmpi::{ClMpi, ObsSummary, ReduceOp, SystemConfig};
use minimpi::{run_world_sized, Process};
use simtime::fmt_ns;

const BYTES: usize = 8 << 20; // big enough that default tuning picks the ring
const COUNT: usize = 4096; // f64 elements in the allreduce

fn main() {
    const NODES: usize = 5; // deliberately not a power of two
    let res = run_world_sized(SystemConfig::ricc().cluster.clone(), NODES, |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));

        // --- Pipelined broadcast: 8 MiB of coefficients from rank 0.
        let coeff = rt.context().create_buffer(BYTES);
        if p.rank() == 0 {
            coeff.store(0, &vec![7u8; BYTES]).unwrap();
        }
        p.comm.barrier(&p.actor);
        let t0 = p.actor.now_ns();
        let eb = rt
            .enqueue_bcast_buffer(&q, &coeff, 0, BYTES, 0, 1, &[], &p.actor)
            .unwrap();
        // Each rank's consumer kernel is gated only on its own copy.
        let c2 = coeff.clone();
        let ek = q.enqueue_kernel("consume", 1_500_000, std::slice::from_ref(&eb), move || {
            assert!(c2.read(|d| d.as_slice().iter().all(|&b| b == 7)));
        });
        ek.wait(&p.actor);
        let bcast_ns = p.actor.now_ns() - t0;

        // --- Ring allreduce: every rank contributes, every rank gets
        // the sum, straight in device memory.
        let acc = rt.context().create_buffer(COUNT * 8);
        let mine: Vec<u8> = (0..COUNT)
            .flat_map(|i| ((p.rank() + i) as f64).to_le_bytes())
            .collect();
        acc.store(0, &mine).unwrap();
        let ea = rt
            .enqueue_allreduce_buffer(&q, &acc, 0, COUNT, ReduceOp::Sum, 2, &[], &p.actor)
            .unwrap();
        ea.wait(&p.actor);
        let got = acc.load(0, 16).unwrap();
        let first = f64::from_le_bytes(got.as_slice()[..8].try_into().unwrap());
        // Σ over ranks of (rank + 0) = 0+1+2+3+4.
        assert_eq!(first, 10.0);

        rt.shutdown(&p.actor);
        (bcast_ns, first)
    });

    println!("8 MiB broadcast + 4096-element allreduce across 5 RICC ranks:");
    for (rank, (t, sum0)) in res.outputs.iter().enumerate() {
        println!(
            "  rank {rank}: bcast+consume done in {}, allreduce[0] = {sum0}",
            fmt_ns(*t)
        );
    }

    // --- The structured trace: collective envelopes and their children.
    println!("\ncollective op spans (envelope ▸ children):");
    let ops = res.trace.ops();
    for o in &ops {
        if o.cat == "op.bcast" || o.cat == "op.allreduce" {
            let kids: Vec<&simtime::OpSpan> =
                ops.iter().filter(|c| c.parent == Some(o.id)).collect();
            let forwards = kids.iter().filter(|c| c.cat == "forward").count();
            let chunks = kids.iter().filter(|c| c.cat == "chunk").count();
            let reduces = kids.iter().filter(|c| c.cat == "reduce").count();
            println!(
                "  {:<10} {:<18} {:>9}B  {} → {}  chunks={chunks} forwards={forwards} reduces={reduces}",
                o.track,
                o.name,
                o.bytes,
                fmt_ns(o.start),
                fmt_ns(o.end),
            );
        }
    }

    let summary = ObsSummary::from_trace(&res.trace);
    println!("\nper-rank collective payload bytes (op.bcast/op.allreduce/op.reduce):");
    for (rank, r) in &summary.ranks {
        println!(
            "  rank {rank}: coll_bytes={}B  (p2p wire: sent={}B recv={}B)",
            r.coll_bytes, r.bytes_sent, r.bytes_received
        );
    }
    println!(
        "  summary fingerprint: {:#018x} (byte-stable across reruns)",
        summary.hash()
    );
}
