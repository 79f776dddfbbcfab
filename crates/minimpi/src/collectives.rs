//! Collective operations built over point-to-point messaging.
//!
//! The paper's clMPI deliberately offers **no** collective commands
//! (§IV-C): collectives stay ordinary MPI calls. These implementations
//! exist so the applications (Himeno, nanopowder) and tests can use them.
//!
//! Tags above [`crate::MAX_USER_TAG`] are reserved; collectives use the
//! `COLL_*` bases so they never collide with application traffic.

use std::sync::Arc;

use simtime::{Actor, Monitor};

use crate::world::Comm;
use crate::{wait_all, Rank, Tag};

const COLL_BARRIER: Tag = (1 << 20) + 0x100;
const COLL_BCAST: Tag = (1 << 20) + 0x200;
const COLL_REDUCE: Tag = (1 << 20) + 0x300;
const COLL_GATHER: Tag = (1 << 20) + 0x400;
const COLL_ALLREDUCE: Tag = (1 << 20) + 0x500;
const COLL_SCATTER: Tag = (1 << 20) + 0x600;
const COLL_ALLGATHER: Tag = (1 << 20) + 0x700;

/// Reduction operator for [`Comm::reduce`] / [`Comm::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

impl ReduceOp {
    /// Fold `other` into `acc` elementwise. Public so layered runtimes
    /// (clmpi's device-buffer ring reduction) apply the exact same
    /// operator semantics as the host collectives here.
    pub fn fold(self, acc: &mut [f64], other: &[f64]) {
        assert_eq!(acc.len(), other.len(), "reduce length mismatch");
        for (a, b) in acc.iter_mut().zip(other) {
            *a = match self {
                ReduceOp::Sum => *a + *b,
                ReduceOp::Min => a.min(*b),
                ReduceOp::Max => a.max(*b),
            };
        }
    }
}

impl Comm {
    /// Synchronize all ranks (dissemination barrier, ⌈log₂ n⌉ rounds).
    /// Every rank leaves at the same virtual instant or later.
    pub fn barrier(&self, actor: &Actor) {
        self.barrier_tagged(actor, 0);
    }

    /// Barrier with a caller-chosen sub-tag so independent subsystems can
    /// synchronize without cross-talk. `sub` must be below 8: each barrier
    /// consumes one 32-tag stripe (one tag per round) of the `COLL_BARRIER`
    /// region.
    ///
    /// The rounds run as a task (`Comm::barrier_rounds`), so the calling
    /// thread parks once per barrier, on the task's `done` flag alone.
    pub fn barrier_tagged(&self, actor: &Actor, sub: Tag) {
        assert!((0..8).contains(&sub), "barrier sub-tag {sub} out of range");
        if self.size() == 1 {
            return;
        }
        let clock = actor.clock();
        let done = Arc::new(Monitor::new(clock.clone(), false));
        let (comm, finished) = (self.clone(), done.clone());
        let label = format!("barrier:r{}", self.global_rank(self.rank()));
        clock.spawn_task(label, "barrier round", move |task| async move {
            comm.barrier_rounds(&task, sub).await;
            finished.with(|d| *d = true);
        });
        actor.wait_on(&[done.key()], "barrier", || done.peek(|&d| d.then_some(())));
    }

    /// The future of [`Comm::barrier`], for a rank body that runs as a
    /// task: it awaits the rounds itself.
    pub async fn barrier_async(&self, actor: &Actor) {
        self.barrier_rounds(actor, 0).await;
    }

    /// One rank's part of a dissemination barrier: in round k it sends to
    /// (r + 2^k) mod n and receives from (r − 2^k) mod n, and round k + 1
    /// starts at the instant both finished. After ⌈log₂ n⌉ rounds each
    /// rank has (transitively) heard from every other, with no single-rank
    /// serialization point: O(log n) rounds on every NIC instead of a flat
    /// gather-release's O(n) messages on rank 0's.
    ///
    /// A round's two requests are posted when it starts, not all rounds'
    /// up front, so matching order is that of a blocking loop over the
    /// rounds. A round waits as [`Comm::sendrecv_async`] does: for its own
    /// message, parked on the rank's arrival key alone, then for its send's
    /// end. So the task is polled when that message arrives, not on every
    /// match, grant and arrival of the rank.
    async fn barrier_rounds(&self, task: &Actor, sub: Tag) {
        let (n, r) = (self.size(), self.rank());
        let mut k = 0;
        while (1usize << k) < n {
            let tag = COLL_BARRIER + sub * 32 + k as Tag;
            let dist = 1usize << k;
            let send = self.isend(task, (r + dist) % n, tag, &[]);
            self.recv_async(task, Some((r + n - dist) % n), Some(tag))
                .await;
            send.wait_async().await;
            k += 1;
        }
    }

    /// Broadcast `data` from `root` to all ranks (binomial tree). Returns
    /// the payload on every rank (the root gets its own copy back).
    pub fn bcast(&self, actor: &Actor, root: Rank, data: Option<&[u8]>) -> Vec<u8> {
        assert!(root < self.size(), "bcast root out of range");
        let n = self.size();
        // Rotate so the tree is rooted at 0.
        let vrank = (self.rank() + n - root) % n;
        let mut payload: Option<Vec<u8>> = if self.rank() == root {
            Some(
                data.expect("root must supply the broadcast payload")
                    .to_vec(),
            )
        } else {
            None
        };
        let npow = n.next_power_of_two();
        // Receive from parent (higher bits cleared), then forward to
        // children in decreasing mask order.
        let mut mask = 1;
        while mask < npow {
            if vrank & mask != 0 {
                let vparent = vrank & !mask;
                let parent = (vparent + root) % n;
                let res = self.recv(actor, Some(parent), Some(COLL_BCAST));
                payload = Some(res.data);
                break;
            }
            mask <<= 1;
        }
        let received_mask = mask;
        let mut mask = received_mask >> 1;
        if vrank == 0 {
            mask = npow >> 1;
        }
        let payload = payload.expect("broadcast payload must exist by now");
        while mask > 0 {
            let vchild = vrank | mask;
            if vchild < n && vchild != vrank {
                let child = (vchild + root) % n;
                self.send(actor, child, COLL_BCAST, &payload);
            }
            mask >>= 1;
        }
        payload
    }

    /// Reduce `contrib` elementwise to `root` (linear gather at root —
    /// adequate for the world sizes in this workspace). Returns the result
    /// at the root, `None` elsewhere. The root folds the others'
    /// contributions into its own in rank order.
    pub fn reduce(
        &self,
        actor: &Actor,
        root: Rank,
        op: ReduceOp,
        contrib: &[f64],
    ) -> Option<Vec<f64>> {
        if self.rank() == root {
            let mut acc = contrib.to_vec();
            for (src, data) in self.recv_from_each(actor, COLL_REDUCE) {
                let vals = crate::datatype::try_bytes_to_f64(&data)
                    .unwrap_or_else(|e| panic!("reduce: contribution from rank {src}: {e}"));
                op.fold(&mut acc, &vals);
            }
            Some(acc)
        } else {
            self.send(
                actor,
                root,
                COLL_REDUCE,
                crate::datatype::f64_as_bytes(contrib),
            );
            None
        }
    }

    /// Allreduce: reduce to rank 0 then broadcast the result.
    pub fn allreduce(&self, actor: &Actor, op: ReduceOp, contrib: &[f64]) -> Vec<f64> {
        match self.reduce(actor, 0, op, contrib) {
            Some(acc) => {
                // A tag of its own, so the result cannot interleave with a
                // user bcast of the same iteration.
                self.send_to_all(actor, COLL_ALLREDUCE, crate::datatype::f64_as_bytes(&acc));
                acc
            }
            None => {
                let data = self.recv(actor, Some(0), Some(COLL_ALLREDUCE)).data;
                crate::datatype::try_bytes_to_f64(&data)
                    .unwrap_or_else(|e| panic!("allreduce: broadcast result: {e}"))
            }
        }
    }

    /// Gather each rank's `contrib` at `root`, concatenated in rank order.
    /// Returns `Some` at the root, `None` elsewhere.
    pub fn gather(&self, actor: &Actor, root: Rank, contrib: &[u8]) -> Option<Vec<Vec<u8>>> {
        if self.rank() == root {
            let mut out: Vec<Vec<u8>> = self
                .recv_from_each(actor, COLL_GATHER)
                .map(|(_, data)| data)
                .collect();
            out.insert(root, contrib.to_vec());
            Some(out)
        } else {
            self.send(actor, root, COLL_GATHER, contrib);
            None
        }
    }

    /// Scatter: `root` holds one chunk per rank (in rank order); every
    /// rank receives its chunk. `chunks` must be `Some` at the root with
    /// exactly `size()` entries.
    pub fn scatter(&self, actor: &Actor, root: Rank, chunks: Option<&[Vec<u8>]>) -> Vec<u8> {
        if self.rank() == root {
            let chunks = chunks.expect("root supplies the scatter chunks");
            assert_eq!(chunks.len(), self.size(), "one chunk per rank");
            for (r, c) in chunks.iter().enumerate() {
                if r != root {
                    self.send(actor, r, COLL_SCATTER, c);
                }
            }
            chunks[root].clone()
        } else {
            self.recv(actor, Some(root), Some(COLL_SCATTER)).data
        }
    }

    /// Allgather: every rank contributes `contrib`; every rank receives
    /// all contributions in rank order (gather to 0, then broadcast).
    pub fn allgather(&self, actor: &Actor, contrib: &[u8]) -> Vec<Vec<u8>> {
        match self.gather(actor, 0, contrib) {
            Some(all) => {
                let lens: Vec<u32> = all.iter().map(|v| v.len() as u32).collect();
                let mut flat: Vec<u8> = Vec::with_capacity(4 * lens.len());
                for l in &lens {
                    flat.extend_from_slice(&l.to_ne_bytes());
                }
                for v in &all {
                    flat.extend_from_slice(v);
                }
                self.send_to_all(actor, COLL_ALLGATHER, &flat);
                all
            }
            None => {
                let flat = self.recv(actor, Some(0), Some(COLL_ALLGATHER)).data;
                let n = self.size();
                let mut lens = Vec::with_capacity(n);
                for i in 0..n {
                    lens.push(u32::from_ne_bytes(
                        flat[4 * i..4 * i + 4].try_into().expect("length header"),
                    ) as usize);
                }
                let mut off = 4 * n;
                lens.into_iter()
                    .map(|l| {
                        let v = flat[off..off + l].to_vec();
                        off += l;
                        v
                    })
                    .collect()
            }
        }
    }

    /// The root's half of a linear gather on `tag`: one receive per other
    /// rank, posted up front and yielded in rank order. Each names its
    /// source, so per-pair non-overtaking keeps a fast rank's contribution
    /// to the *next* call away from this one.
    fn recv_from_each(&self, actor: &Actor, tag: Tag) -> impl Iterator<Item = (Rank, Vec<u8>)> {
        let me = self.rank();
        let srcs: Vec<Rank> = (0..self.size()).filter(|&r| r != me).collect();
        let reqs = srcs
            .iter()
            .map(|&r| self.irecv(actor, Some(r), Some(tag)))
            .collect();
        let got = wait_all(reqs, actor);
        srcs.into_iter()
            .zip(got)
            .map(|(r, res)| (r, res.expect("a receive yields a payload").data))
    }

    /// The sending half of a linear broadcast on a private tag (allreduce
    /// and allgather results, which are small): `data` goes to every other
    /// rank, which receives it from this one on `tag`.
    fn send_to_all(&self, actor: &Actor, tag: Tag, data: &[u8]) {
        for r in (0..self.size()).filter(|&r| r != self.rank()) {
            self.send(actor, r, tag, data);
        }
    }
}
