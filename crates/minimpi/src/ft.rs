//! ULFM-style fault tolerance: process-failure detection, communicator
//! revocation, survivor shrink, and a log-n fault-tolerant agreement.
//!
//! Modeled on MPI's User-Level Failure Mitigation extension (the
//! fault-domain communicator work prototyped on MPICH): a failed peer
//! surfaces as [`MpiError::ProcFailed`], a revoked communicator as
//! [`MpiError::Revoked`], and recovery is explicit — survivors
//! [`Comm::shrink`] to a dense-renumbered communicator and carry on.
//!
//! **Detection is deterministic, not wall-clock.** A node dies only when
//! the fabric's [`simnet::FaultPlan`] schedules it down, so "is this
//! peer dead?" is a pure function of the plan and the virtual instant.
//! The blocking APIs still *discover* failures through the existing
//! timeout machinery ([`crate::Request::wait_timeout`]); the plan is
//! what classifies an expired deadline as [`MpiError::ProcFailed`]
//! rather than a transient [`MpiError::Timeout`].

use std::sync::atomic::Ordering;

use simtime::{Actor, SimNs};

use crate::p2p::MpiError;
use crate::world::Comm;
use crate::{Rank, Tag};

/// Base of the agreement tag region: above the host collectives
/// (`(1 << 20) + 0x100..0x800`), below the clMPI data plane (`1 << 22`).
/// Rounds stripe the low bits; repeated agreements stripe the next three
/// so a late message from a timed-out round cannot match a subsequent
/// agreement's receive.
const AGREE_TAG: Tag = (1 << 20) + 0x800;
/// Tag stripes available to interleaved agreements on one communicator.
const AGREE_STRIPES: u64 = 8;
/// Rounds per stripe (worlds are ≤ 64 ranks, so ≤ 6 rounds needed).
const AGREE_ROUNDS: Tag = 64;

impl Comm {
    /// True if `local` rank's node is scheduled dead at virtual instant
    /// `t` (the deterministic failure-detector ground truth).
    pub fn is_proc_failed(&self, local: Rank, t: SimNs) -> bool {
        let g = self.global_rank(local);
        self.world.inner.fabric.node_down_at(g, t)
    }

    /// Communicator-local ranks whose nodes are dead at instant `t`.
    pub fn failed_ranks(&self, t: SimNs) -> Vec<Rank> {
        (0..self.size())
            .filter(|&i| self.is_proc_failed(i, t))
            .collect()
    }

    /// Classify an operation outcome against peer `local` at instant
    /// `t`: a dead peer maps any error (typically a timeout) to
    /// [`MpiError::ProcFailed`], otherwise the original error stands.
    pub fn classify_peer_error(&self, local: Rank, t: SimNs, err: MpiError) -> MpiError {
        if self.is_proc_failed(local, t) {
            MpiError::ProcFailed { rank: local }
        } else {
            err
        }
    }

    /// Revoke this communicator (`MPI_Comm_revoke`): every subsequent
    /// fallible operation on any member's endpoint fails with
    /// [`MpiError::Revoked`] until survivors [`Comm::shrink`]. The
    /// revocation is immediately visible world-wide — a deterministic
    /// stand-in for the asynchronous revoke broadcast of a real stack.
    pub fn revoke(&self) {
        self.world.inner.revoked.lock().insert(self.context);
    }

    /// True if any member has revoked this communicator.
    pub fn is_revoked(&self) -> bool {
        self.world.inner.revoked.lock().contains(&self.context)
    }

    /// [`MpiError::Revoked`] if this communicator has been revoked.
    pub(crate) fn ensure_not_revoked(&self) -> Result<(), MpiError> {
        if self.is_revoked() {
            return Err(MpiError::Revoked);
        }
        Ok(())
    }

    /// Fault-tolerant agreement (`MPI_Comm_agree`): bitwise-AND of the
    /// `value` contributions that reach this rank, over ⌈log₂ n⌉
    /// dissemination rounds (round *r* sends the running fold to
    /// `(me + 2^r) mod n` and folds the value from `(me − 2^r) mod n`).
    /// AND is idempotent, so the butterfly double-counting is harmless
    /// and the primitive works for any world size.
    ///
    /// Failure semantics: peers the plan marks dead at round time are
    /// skipped deterministically; a receive from a supposedly-live peer
    /// that exceeds `patience_ns` returns [`MpiError::ProcFailed`] (an
    /// unresponsive peer is indistinguishable from a dead one — the
    /// ULFM detector's view). When survivors contribute equal values —
    /// the shrink use case — the result is uniform across them; with
    /// unequal inputs, uniformity additionally requires that no failure
    /// disconnects the dissemination graph. Timeouts arm only when the
    /// world runs under a fault plan; fault-free runs block cleanly.
    ///
    /// Works on revoked communicators (the ULFM exception that lets
    /// survivors coordinate recovery).
    pub fn agree(&self, actor: &Actor, value: u64, patience_ns: SimNs) -> Result<u64, MpiError> {
        let n = self.size();
        let me = self.rank();
        let mut acc = value;
        if n <= 1 {
            return Ok(acc);
        }
        let seq = self.agree_seq.fetch_add(1, Ordering::Relaxed);
        let stripe = AGREE_TAG + (seq % AGREE_STRIPES) as Tag * AGREE_ROUNDS;
        let rounds = usize::BITS - (n - 1).leading_zeros();
        let armed = self.world.has_faults();
        for r in 0..rounds {
            let dist = 1usize << r;
            let dst = (me + dist) % n;
            let src = (me + n - dist) % n;
            let tag = stripe + r as Tag;
            let sreq = (!self.is_proc_failed(dst, actor.now_ns()))
                .then(|| self.isend(actor, dst, tag, &acc.to_le_bytes()));
            if !self.is_proc_failed(src, actor.now_ns()) {
                // irecv/wait_timeout rather than recv_timeout: agreement
                // must keep working on a revoked communicator.
                let req = self.irecv(actor, Some(src), Some(tag));
                let got = if armed {
                    match req.wait_timeout(actor, patience_ns) {
                        Ok(res) => Some(res.expect("recv request yields a payload")),
                        Err(MpiError::Timeout { .. })
                            if self.is_proc_failed(src, actor.now_ns()) =>
                        {
                            // Died mid-round: fold what we have and move on.
                            None
                        }
                        Err(MpiError::Timeout { .. }) => {
                            return Err(MpiError::ProcFailed { rank: src });
                        }
                        Err(e) => return Err(e),
                    }
                } else {
                    Some(req.wait(actor).expect("recv request yields a payload"))
                };
                if let Some(res) = got {
                    let bytes: [u8; 8] = res.data[..8].try_into().expect("8-byte agree payload");
                    acc &= u64::from_le_bytes(bytes);
                }
            }
            if let Some(q) = sreq {
                q.wait(actor);
            }
        }
        Ok(acc)
    }

    /// Shrink away failed members (`MPIX_Comm_shrink`): survivors agree
    /// on the live-member set (a bitmask over local ranks, folded with
    /// [`Comm::agree`]), then every survivor locally constructs the same
    /// child communicator whose members are the agreed survivors in
    /// parent-rank order — **dense re-numbered ranks**, a fresh context,
    /// and no revocation carried over. Collective over the survivors;
    /// dead members are expected not to call.
    ///
    /// `patience_ns` bounds each agreement round's receive when the
    /// world runs under a fault plan.
    pub fn shrink(&self, actor: &Actor, patience_ns: SimNs) -> Result<Comm, MpiError> {
        let n = self.size();
        assert!(n <= 64, "shrink's agreement mask is u64-limited");
        let me = self.rank();
        let now = actor.now_ns();
        let mut alive = 0u64;
        for i in 0..n {
            if !self.is_proc_failed(i, now) {
                alive |= 1 << i;
            }
        }
        let agreed = self.agree(actor, alive, patience_ns)?;
        if agreed & (1 << me) == 0 {
            // The survivors' consensus excludes us: to them we are dead.
            return Err(MpiError::ProcFailed { rank: me });
        }
        let members: Vec<Rank> = (0..n)
            .filter(|&i| agreed & (1 << i) != 0)
            .map(|i| self.global_rank(i))
            .collect();
        // Deterministic child context, like `split`: FNV-1a over parent
        // context, collective sequence, survivor mask, and a shrink
        // domain marker so a split and a shrink can never collide.
        let seq = self
            .split_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let words = [self.context, seq, agreed, SHRINK_MARKER].map(u64::to_ne_bytes);
        Ok(self.derive(simtime::fnv1a(words.as_flattened()) | 1, members))
    }
}

/// Domain-separation constant mixed into shrink contexts ("shrink" in
/// ASCII), so a shrink and a split of the same parent can never collide.
const SHRINK_MARKER: u64 = 0x7368_7269_6e6b;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_world_faulty, FaultPlan, Process};
    use simnet::ClusterSpec;

    const PATIENCE: SimNs = 200_000_000; // 200 ms virtual

    #[test]
    fn agree_folds_and_over_all_ranks_without_faults() {
        let res = run_world_faulty(
            ClusterSpec::cichlid(),
            4,
            FaultPlan::none(),
            |p: Process| {
                let v = !(1u64 << p.rank());
                p.comm.agree(&p.actor, v, PATIENCE).expect("agree")
            },
        );
        for out in res.outputs {
            assert_eq!(out, !0b1111u64, "AND of all contributions");
        }
    }

    #[test]
    fn agree_skips_a_dead_rank_deterministically() {
        // Rank 2 dead from t=0 and never calls agree; survivors fold
        // their own contributions and terminate.
        let plan = FaultPlan::none().with_node_down(2, 0);
        let res = run_world_faulty(ClusterSpec::cichlid(), 4, plan, |p: Process| {
            if p.comm.world().node_down_at(p.rank(), 0) {
                return 0;
            }
            p.comm
                .agree(&p.actor, 0xF0 | p.rank() as u64, PATIENCE)
                .expect("survivors agree")
        });
        assert_eq!(res.outputs[2], 0, "dead rank sat out");
        for r in [0usize, 1, 3] {
            assert_eq!(res.outputs[r], 0xF0, "AND over surviving inputs");
        }
    }

    #[test]
    fn revoke_poisons_fallible_ops_until_shrink() {
        let res = run_world_faulty(
            ClusterSpec::cichlid(),
            2,
            FaultPlan::none(),
            |p: Process| {
                if p.rank() == 0 {
                    p.comm.revoke();
                }
                p.comm.barrier_tagged(&p.actor, 1); // barrier ignores revocation
                assert!(p.comm.is_revoked(), "revocation is world-visible");
                let e = p
                    .comm
                    .try_send(&p.actor, (p.rank() + 1) % 2, 5, b"x")
                    .expect_err("revoked comm refuses sends");
                assert_eq!(e, MpiError::Revoked);
                // Shrink (no one actually failed) yields a working comm.
                let fresh = p.comm.shrink(&p.actor, PATIENCE).expect("shrink");
                assert!(!fresh.is_revoked());
                assert_eq!(fresh.size(), 2);
                fresh
                    .try_send(&p.actor, (fresh.rank() + 1) % 2, 5, b"y")
                    .expect("fresh comm works");
                let got = fresh.recv(&p.actor, None, Some(5));
                got.data
            },
        );
        assert_eq!(res.outputs, vec![b"y".to_vec(), b"y".to_vec()]);
    }

    #[test]
    fn shrink_renumbers_survivors_densely() {
        // Kill rank 1 of 5 at t=0; survivors shrink and check the map.
        let plan = FaultPlan::none().with_node_down(1, 0);
        let res = run_world_faulty(ClusterSpec::ricc(), 5, plan, |p: Process| {
            if p.comm.world().node_down_at(p.rank(), 0) {
                return (usize::MAX, usize::MAX, 0);
            }
            let s = p.comm.shrink(&p.actor, PATIENCE).expect("shrink");
            // Survivor comm must carry dense ranks 0..4 mapping to the
            // global survivors {0, 2, 3, 4} in order.
            let my_local = s.rank();
            let my_global = s.global_rank(my_local);
            assert_eq!(s.size(), 4);
            assert_eq!(my_global, p.rank());
            // The shrunken comm is a working communicator: ring-pass a
            // token all the way around.
            let next = (my_local + 1) % s.size();
            let prev = (my_local + s.size() - 1) % s.size();
            let token = s.sendrecv(&p.actor, next, 9, &[my_local as u8], Some(prev), Some(9));
            (my_local, my_global, token.data[0])
        });
        let expect_local = [0usize, usize::MAX, 1, 2, 3];
        for (g, out) in res.outputs.iter().enumerate() {
            if g == 1 {
                continue;
            }
            assert_eq!(out.0, expect_local[g], "dense renumbering");
            assert_eq!(out.1, g, "local→global round trip");
            let prev_local = (out.0 + 3) % 4;
            assert_eq!(out.2 as usize, prev_local, "ring token from prev");
        }
    }

    #[test]
    fn proc_failed_classification_uses_the_plan_not_wallclock() {
        let plan = FaultPlan::none().with_node_down(1, 1_000_000);
        let res = run_world_faulty(ClusterSpec::cichlid(), 2, plan, |p: Process| {
            if p.rank() == 1 {
                // Dies at 1 ms and never answers.
                return MpiError::Timeout { waited_ns: 0 };
            }
            p.actor.advance_ns(2_000_000);
            let err = p
                .comm
                .recv_timeout(&p.actor, Some(1), Some(7), 10_000_000)
                .expect_err("dead peer never sends");
            p.comm.classify_peer_error(1, p.actor.now_ns(), err)
        });
        assert_eq!(res.outputs[0], MpiError::ProcFailed { rank: 1 });
    }

    #[test]
    fn transient_kill_is_failed_only_inside_the_window() {
        let plan = FaultPlan::none().with_node_down_window(0, 500, 1_500);
        let res = run_world_faulty(ClusterSpec::cichlid(), 2, plan, |p: Process| {
            (
                p.comm.is_proc_failed(0, 499),
                p.comm.is_proc_failed(0, 500),
                p.comm.is_proc_failed(0, 1_500),
                p.comm.failed_ranks(1_000),
            )
        });
        for out in res.outputs {
            assert_eq!(out, (false, true, false, vec![0]));
        }
    }
}
