//! Measurement-based strategy selection.
//!
//! §V-B: "An automatic selection mechanism of the data transfer
//! implementations can be adopted behind the interfaces." The static
//! policy in [`crate::SystemConfig`] encodes the paper's per-system
//! choice; this module goes one step further: an online tuner that
//! *probes* each candidate strategy for a message-size class and then
//! sticks with the fastest — so applications inherit the best path on
//! systems no preset exists for, without any code change (the paper's
//! performance-portability argument, §IV advantage 1).
//!
//! There is one tuner, [`Selector`], and three uses of it that differ
//! only in what a class of "similar transfers" is keyed by and in what
//! is being chosen: [`AdaptiveSelector`] (message size → transfer
//! strategy), [`PeerSelector`] ((peer, size) → one-sided wire lowering)
//! and [`CollectiveSelector`] ((size, world) → algorithm × chunk).

use std::collections::BTreeMap;

use simtime::plock::Mutex;
use simtime::SimNs;

use crate::collective::CollTuning;
use crate::strategy::TransferStrategy;
use crate::system::SystemConfig;

/// Size classes: transfers are bucketed by power-of-two message size, so
/// measurements for 1 MiB transfers don't steer 64 MiB ones.
fn size_class(size: usize) -> u32 {
    (usize::BITS - size.max(1).leading_zeros()).max(1)
}

/// Which class a key falls in: `(scope, size class)`, the scope being
/// whatever besides magnitude separates one class from another.
type Class = (usize, u32);

struct ClassState<C> {
    /// Candidates not yet probed for this class.
    pending: Vec<C>,
    /// (candidate, observed ns) of finished probes.
    observed: Vec<(C, SimNs)>,
    /// Candidates whose probe failed permanently (retired from rotation).
    failed: Vec<C>,
    /// Chosen winner once probing is done.
    winner: Option<C>,
}

/// An online per-class tuner over candidates `C`, asked with keys `K`.
///
/// `choose(key)` returns the candidate to use now; `observe(key,
/// candidate, ns)` feeds back the measured duration. During the probe
/// phase each candidate runs once (in rotation); afterwards the winner is
/// locked in for that class. Classes tune independently.
pub struct Selector<K, C> {
    candidates: Vec<C>,
    class_of: fn(K) -> Class,
    classes: Mutex<BTreeMap<Class, ClassState<C>>>,
}

impl<K, C: Copy + PartialEq> Selector<K, C> {
    fn new(candidates: Vec<C>, class_of: fn(K) -> Class) -> Self {
        assert!(!candidates.is_empty(), "need at least one candidate");
        Selector {
            candidates,
            class_of,
            classes: Mutex::new(BTreeMap::new()),
        }
    }

    /// The candidate to use for a transfer keyed `key`.
    pub fn choose(&self, key: K) -> C {
        let mut st = self.classes.lock();
        let cs = st
            .entry((self.class_of)(key))
            .or_insert_with(|| ClassState {
                pending: self.candidates.clone(),
                observed: Vec::new(),
                failed: Vec::new(),
                winner: None,
            });
        // Probe phase: hand out the next unprobed candidate (it stays in
        // `pending` until its observation arrives, so concurrent chooses
        // of the same class re-probe rather than starve).
        cs.winner
            .or(cs.pending.first().copied())
            .unwrap_or(self.candidates[0])
    }

    /// Retire `candidate` from `key`'s probe rotation — measured in
    /// `dur_ns`, or failed (`None`) — and lock the class's winner once
    /// nothing is left to probe. Candidates never offered, and anything
    /// after the winner is locked, are ignored.
    fn retire(&self, key: K, candidate: C, dur_ns: Option<SimNs>) {
        let mut st = self.classes.lock();
        let Some(cs) = st.get_mut(&(self.class_of)(key)) else {
            return;
        };
        if cs.winner.is_some() {
            return;
        }
        if let Some(pos) = cs.pending.iter().position(|&c| c == candidate) {
            cs.pending.remove(pos);
            match dur_ns {
                Some(ns) => cs.observed.push((candidate, ns)),
                None => cs.failed.push(candidate),
            }
        }
        if cs.pending.is_empty() {
            let fastest = cs
                .observed
                .iter()
                .min_by_key(|(_, ns)| *ns)
                .map(|(c, _)| *c);
            // All candidates failed: pick the primary candidate rather
            // than probing a known-bad set forever.
            cs.winner = fastest.or(Some(self.candidates[0]));
        }
    }

    /// Feed back a measured duration.
    pub fn observe(&self, key: K, candidate: C, dur_ns: SimNs) {
        self.retire(key, candidate, Some(dur_ns));
    }

    /// Feed back a permanent probe failure (retry budget exhausted,
    /// receiver timeout, dead peer). The candidate is retired from the
    /// class's probe rotation — without this, a failed probe never
    /// reaches [`Selector::observe`], so it stays `pending` forever and
    /// `choose` re-hands the failing candidate indefinitely (probe
    /// starvation). If *every* candidate fails, the class falls back to
    /// `candidates[0]` as its winner so callers still get a deterministic
    /// answer instead of an endless probe loop.
    pub fn observe_failure(&self, key: K, candidate: C) {
        self.retire(key, candidate, None);
    }

    /// Candidates retired by [`Selector::observe_failure`] for `key`'s
    /// class (diagnostics and tests).
    pub fn failures_for(&self, key: K) -> Vec<C> {
        let st = self.classes.lock();
        st.get(&(self.class_of)(key))
            .map_or_else(Vec::new, |c| c.failed.clone())
    }

    /// The locked-in winner for `key`'s class, if probing finished.
    pub fn winner_for(&self, key: K) -> Option<C> {
        let st = self.classes.lock();
        st.get(&(self.class_of)(key)).and_then(|c| c.winner)
    }
}

fn assert_concrete(candidates: &[TransferStrategy]) {
    assert!(
        !candidates.contains(&TransferStrategy::Auto),
        "candidates must be concrete"
    );
}

/// The two-sided transfer tuner, keyed on the message `size`.
pub type AdaptiveSelector = Selector<usize, TransferStrategy>;

impl AdaptiveSelector {
    /// Tuner over the standard candidate set for `sys`: pinned, mapped,
    /// and pipelined with the system's default block.
    pub fn for_system(sys: &SystemConfig) -> Self {
        Self::with_candidates(vec![
            TransferStrategy::Pinned,
            TransferStrategy::Mapped,
            TransferStrategy::Pipelined(sys.default_pipeline_block),
        ])
    }

    /// Tuner over an explicit candidate set (must be concrete strategies).
    pub fn with_candidates(candidates: Vec<TransferStrategy>) -> Self {
        assert_concrete(&candidates);
        Self::new(candidates, |size| (0, size_class(size)))
    }
}

/// The one-sided analogue: a tuner over the wire route of a window put,
/// keyed on **`(peer, size)`** — the win of the RMA path depends entirely
/// on whether the peer shares a CXL pool. A co-located peer's 1 MiB
/// class locks `Rma` (the pool port at 28 GB/s dwarfs the NIC); a
/// cross-pod peer's class locks a NIC-side strategy.
pub type PeerSelector = Selector<(usize, usize), TransferStrategy>;

impl PeerSelector {
    /// Tuner over the standard one-sided candidate set for `sys`: the
    /// class-routed RMA path plus the three NIC-side emulations.
    pub fn for_system(sys: &SystemConfig) -> Self {
        Self::with_candidates(vec![
            TransferStrategy::Rma,
            TransferStrategy::Pinned,
            TransferStrategy::Mapped,
            TransferStrategy::Pipelined(sys.default_pipeline_block),
        ])
    }

    /// Tuner over an explicit candidate set (must be concrete strategies).
    pub fn with_candidates(candidates: Vec<TransferStrategy>) -> Self {
        assert_concrete(&candidates);
        Self::new(candidates, |(peer, size)| (peer, size_class(size)))
    }
}

/// The collective analogue: a tuner over [`CollTuning`] (algorithm ×
/// pipeline chunk) candidates, keyed on **`(size, world)`** — a tree that
/// wins at 4 ranks may lose at 13, so world sizes tune independently.
pub type CollectiveSelector = Selector<(usize, usize), CollTuning>;

impl CollectiveSelector {
    /// Tuner over an explicit candidate set (chunks must be ≥ 1).
    pub fn with_candidates(candidates: Vec<CollTuning>) -> Self {
        assert!(
            candidates.iter().all(|c| c.chunk > 0),
            "candidate chunks must be ≥ 1"
        );
        Self::new(candidates, |(size, world)| (world, size_class(size)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_separate_magnitudes() {
        assert_eq!(size_class(1024), size_class(1500));
        assert_ne!(size_class(1 << 20), size_class(64 << 20));
        assert_eq!(
            size_class(0),
            size_class(1),
            "degenerate sizes share a class"
        );
    }

    #[test]
    fn probes_each_candidate_then_locks_winner() {
        let sel = AdaptiveSelector::with_candidates(vec![
            TransferStrategy::Pinned,
            TransferStrategy::Mapped,
        ]);
        let s1 = sel.choose(1 << 20);
        assert_eq!(s1, TransferStrategy::Pinned);
        sel.observe(1 << 20, s1, 500);
        let s2 = sel.choose(1 << 20);
        assert_eq!(s2, TransferStrategy::Mapped);
        sel.observe(1 << 20, s2, 300);
        // Mapped measured faster: locked in.
        assert_eq!(sel.winner_for(1 << 20), Some(TransferStrategy::Mapped));
        for _ in 0..5 {
            assert_eq!(sel.choose(1 << 20), TransferStrategy::Mapped);
        }
    }

    #[test]
    fn classes_tune_independently() {
        let sel = AdaptiveSelector::with_candidates(vec![
            TransferStrategy::Pinned,
            TransferStrategy::Mapped,
        ]);
        // Small class: mapped wins.
        sel.observe(4 << 10, sel.choose(4 << 10), 100);
        sel.observe(4 << 10, sel.choose(4 << 10), 50);
        // Large class: pinned wins.
        sel.observe(32 << 20, sel.choose(32 << 20), 10);
        sel.observe(32 << 20, sel.choose(32 << 20), 20);
        assert_eq!(sel.winner_for(4 << 10), Some(TransferStrategy::Mapped));
        assert_eq!(sel.winner_for(32 << 20), Some(TransferStrategy::Pinned));
    }

    #[test]
    fn unsolicited_observations_are_ignored() {
        let sel = AdaptiveSelector::with_candidates(vec![TransferStrategy::Pinned]);
        sel.observe(1 << 10, TransferStrategy::Mapped, 1); // never offered
        assert_eq!(sel.winner_for(1 << 10), None);
    }

    #[test]
    #[should_panic(expected = "concrete")]
    fn auto_candidate_rejected() {
        AdaptiveSelector::with_candidates(vec![TransferStrategy::Auto]);
    }

    #[test]
    fn failed_probe_is_retired_instead_of_starving() {
        let sel = AdaptiveSelector::with_candidates(vec![
            TransferStrategy::Pinned,
            TransferStrategy::Mapped,
        ]);
        let s1 = sel.choose(1 << 20);
        assert_eq!(s1, TransferStrategy::Pinned);
        // The probe fails permanently. Before the fix this never reached
        // the selector, so `choose` handed out Pinned forever.
        sel.observe_failure(1 << 20, s1);
        assert_eq!(sel.failures_for(1 << 20), vec![TransferStrategy::Pinned]);
        let s2 = sel.choose(1 << 20);
        assert_eq!(s2, TransferStrategy::Mapped, "rotation moved on");
        sel.observe(1 << 20, s2, 300);
        // The surviving candidate wins; the failed one is never chosen.
        assert_eq!(sel.winner_for(1 << 20), Some(TransferStrategy::Mapped));
        assert_eq!(sel.choose(1 << 20), TransferStrategy::Mapped);
    }

    #[test]
    fn all_probes_failing_falls_back_to_primary_candidate() {
        let sel = AdaptiveSelector::with_candidates(vec![
            TransferStrategy::Pinned,
            TransferStrategy::Mapped,
        ]);
        sel.observe_failure(1 << 20, sel.choose(1 << 20));
        sel.observe_failure(1 << 20, sel.choose(1 << 20));
        // Every candidate failed: lock the primary rather than looping.
        assert_eq!(sel.winner_for(1 << 20), Some(TransferStrategy::Pinned));
        assert_eq!(sel.choose(1 << 20), TransferStrategy::Pinned);
    }

    #[test]
    fn peer_selector_tunes_each_peer_independently() {
        let sel =
            PeerSelector::with_candidates(vec![TransferStrategy::Rma, TransferStrategy::Pinned]);
        // Peer 1 (co-located): the RMA probe measures faster.
        assert_eq!(sel.choose((1, 1 << 20)), TransferStrategy::Rma);
        sel.observe((1, 1 << 20), TransferStrategy::Rma, 100);
        sel.observe((1, 1 << 20), sel.choose((1, 1 << 20)), 900);
        // Peer 7 (cross-pod): the NIC-side strategy wins.
        sel.observe((7, 1 << 20), sel.choose((7, 1 << 20)), 900);
        sel.observe((7, 1 << 20), sel.choose((7, 1 << 20)), 100);
        assert_eq!(sel.winner_for((1, 1 << 20)), Some(TransferStrategy::Rma));
        assert_eq!(sel.winner_for((7, 1 << 20)), Some(TransferStrategy::Pinned));
    }

    #[test]
    fn peer_selector_retires_failed_probe() {
        let sel =
            PeerSelector::with_candidates(vec![TransferStrategy::Rma, TransferStrategy::Pinned]);
        sel.observe_failure((3, 1 << 20), sel.choose((3, 1 << 20)));
        assert_eq!(sel.failures_for((3, 1 << 20)), vec![TransferStrategy::Rma]);
        sel.observe((3, 1 << 20), sel.choose((3, 1 << 20)), 50);
        assert_eq!(sel.winner_for((3, 1 << 20)), Some(TransferStrategy::Pinned));
    }

    #[test]
    fn failure_after_winner_locked_is_ignored() {
        let sel = AdaptiveSelector::with_candidates(vec![TransferStrategy::Pinned]);
        sel.observe(1 << 10, sel.choose(1 << 10), 100);
        assert_eq!(sel.winner_for(1 << 10), Some(TransferStrategy::Pinned));
        sel.observe_failure(1 << 10, TransferStrategy::Pinned);
        assert_eq!(sel.winner_for(1 << 10), Some(TransferStrategy::Pinned));
    }
}
