//! The three data-transfer implementations of paper §III, as cost/
//! scheduling logic over the simulated PCIe and network resources.
//!
//! All three move the same real bytes; they differ in **which resources
//! they occupy, in what order, and with what software overheads**:
//!
//! * **Pinned** — stage the device buffer into pinned host memory (PCIe at
//!   the pinned rate, plus a staging-setup cost), then send over the
//!   network. Two serialized stages.
//! * **Mapped** — map the device buffer and let the NIC stream straight
//!   from/to it: one fused stage whose rate is the min of the network and
//!   the device's mapped (zero-copy) PCIe rate, plus a small map cost.
//! * **Pipelined(B)** — split into blocks of `B` bytes; block *i*'s PCIe
//!   stage overlaps block *i−1*'s network stage (paper [7]'s technique).
//!
//! The *sender* decides the wire chunking; the *receiver* adapts to
//! whatever chunks arrive (it drains messages until the expected byte
//! count is reached), so mixed strategies cannot deadlock.

use simtime::SimNs;

/// A data-transfer implementation choice (paper §III / §V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TransferStrategy {
    /// Stage through pinned host memory, then network (two stages).
    Pinned,
    /// Zero-copy map: fused PCIe+network stage.
    Mapped,
    /// Pipeline with the given block size in bytes (`Pipelined(0)` =
    /// runtime-chosen block).
    Pipelined(usize),
    /// One-sided RMA: stage to the window segment and let the fabric's
    /// class-routed transport (loopback / CXL pool port / NIC) carry it.
    /// Only meaningful on window-backed (`MPI_CL_MEM`-as-window) paths.
    Rma,
    /// Let the runtime choose per system and message size.
    Auto,
}

impl TransferStrategy {
    /// Short display name ("pinned", "mapped", "pipelined(4M)", "auto").
    pub fn name(&self) -> String {
        match self {
            TransferStrategy::Pinned => "pinned".into(),
            TransferStrategy::Mapped => "mapped".into(),
            TransferStrategy::Pipelined(0) => "pipelined(auto)".into(),
            TransferStrategy::Pipelined(b) if b % (1 << 20) == 0 => {
                format!("pipelined({}M)", b >> 20)
            }
            TransferStrategy::Pipelined(b) => format!("pipelined({b}B)"),
            TransferStrategy::Rma => "rma".into(),
            TransferStrategy::Auto => "auto".into(),
        }
    }
}

/// How a derived (noncontiguous) datatype is canonicalized onto the wire
/// — the TEMPI axis (PAPERS.md): who gathers the type map into contiguous
/// bytes, and whether the pack overlaps the transfer. Orthogonal to
/// [`TransferStrategy`]: the pack mode decides *who* packs, the strategy
/// decides how the packed bytes cross PCIe and the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackMode {
    /// Gather/scatter segment-by-segment across PCIe: every type-map
    /// segment pays the full staged latency. This is what stock MPI
    /// implementations do with `MPI_Type_vector` on device memory, and
    /// why they lose badly on strided halos.
    HostPack,
    /// One on-device pack/unpack kernel canonicalizes the whole type map
    /// in device memory; the packed payload crosses PCIe and the wire as
    /// a single contiguous message.
    DevicePack,
    /// Device pack fused into the pipelined transfer: the packed payload
    /// is chunked, and chunk *k*'s pack kernel overlaps chunk *k−1*'s
    /// PCIe and network stages.
    PipelinedPack,
}

impl PackMode {
    /// Short display name for stats/bench keys.
    pub fn name(&self) -> &'static str {
        match self {
            PackMode::HostPack => "host-pack",
            PackMode::DevicePack => "device-pack",
            PackMode::PipelinedPack => "pipelined-pack",
        }
    }
}

/// A fully-resolved plan for one transfer (strategy + chunk layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedStrategy {
    /// The concrete strategy (never `Auto`, never `Pipelined(0)`).
    pub strategy: TransferStrategy,
    /// `(offset, len)` wire chunks, in transmission order.
    pub chunks: Vec<(usize, usize)>,
}

impl ResolvedStrategy {
    /// Plan a transfer of `size` bytes under `strategy`.
    pub fn plan(strategy: TransferStrategy, size: usize) -> Self {
        match strategy {
            TransferStrategy::Pinned | TransferStrategy::Mapped | TransferStrategy::Rma => {
                ResolvedStrategy {
                    strategy,
                    chunks: vec![(0, size)],
                }
            }
            TransferStrategy::Pipelined(block) => {
                assert!(block > 0, "resolve Pipelined(0) via SystemConfig first");
                ResolvedStrategy {
                    strategy,
                    chunks: chunk_layout(size, block),
                }
            }
            TransferStrategy::Auto => panic!("resolve Auto via SystemConfig first"),
        }
    }
}

/// Split `size` bytes into `(offset, len)` blocks of at most `block`.
pub fn chunk_layout(size: usize, block: usize) -> Vec<(usize, usize)> {
    assert!(block > 0, "block size must be positive");
    if size == 0 {
        return vec![(0, 0)];
    }
    let mut out = Vec::with_capacity(size.div_ceil(block));
    let mut off = 0;
    while off < size {
        let len = block.min(size - off);
        out.push((off, len));
        off += len;
    }
    out
}

/// Analytic single-message cost of each strategy on idle links — used by
/// tests and by the Fig. 8 harness to cross-check the simulated timings.
pub mod analytic {
    use super::*;
    use crate::SystemConfig;

    /// End-to-end ns for one `size`-byte device→device transfer on idle
    /// resources under `strategy` (must be concrete).
    pub fn transfer_ns(sys: &SystemConfig, strategy: TransferStrategy, size: usize) -> SimNs {
        let net = &sys.cluster.link;
        let pcie = &sys.device.pcie;
        match strategy {
            TransferStrategy::Pinned => {
                pcie.pin_setup_ns
                    + pcie.staged_ns(size, true)      // d2h
                    + net.message_ns(size)            // network
                    + pcie.pin_setup_ns
                    + pcie.staged_ns(size, true) // h2d
            }
            TransferStrategy::Mapped => {
                2 * pcie.map_setup_ns + sys.mapped_wire_ns(size) + net.latency_ns
            }
            TransferStrategy::Pipelined(block) => {
                let plan = ResolvedStrategy::plan(TransferStrategy::Pipelined(block), size);
                // Per-chunk stage times; steady state is the max stage.
                let mut d2h_free = pcie.pin_setup_ns;
                let mut net_free = 0;
                let mut h2d_free = 0;
                let mut done = 0;
                for &(_, len) in &plan.chunks {
                    let d2h_end = d2h_free + pcie.staged_ns(len, true);
                    d2h_free = d2h_end;
                    let net_start = d2h_end.max(net_free);
                    let net_end = net_start + net.injection_ns(len);
                    net_free = net_end;
                    let arr = net_end + net.latency_ns;
                    let h2d_start = arr.max(h2d_free);
                    let h2d_end = h2d_start + pcie.staged_ns(len, true);
                    h2d_free = h2d_end;
                    done = h2d_end;
                }
                done + pcie.pin_setup_ns
            }
            TransferStrategy::Rma => {
                // One-sided put into a host-resident window: device→host
                // staging then one wire message on the pool port when the
                // cluster has one (co-located ranks), else the NIC. No
                // target-side h2d — the window *is* host memory.
                let wire = sys.cluster.cxl.as_ref().map_or(net, |c| &c.link);
                pcie.pin_setup_ns + pcie.staged_ns(size, true) + wire.message_ns(size)
            }
            TransferStrategy::Auto => transfer_ns(sys, sys.resolve(strategy, size), size),
        }
    }

    /// Sustained bandwidth (bytes/s) implied by [`transfer_ns`].
    pub fn sustained_bps(sys: &SystemConfig, strategy: TransferStrategy, size: usize) -> f64 {
        size as f64 * 1e9 / transfer_ns(sys, strategy, size) as f64
    }

    /// Coarse idle-resource model of the chunked broadcast bodies in
    /// the collective module: stage-in, sender-side chunk serialization,
    /// store-and-forward drain, stage-out. Used by the bench binaries to
    /// cross-check simulated collective timings — never by the engine.
    ///
    /// Flat re-injects every chunk once per destination on the root NIC
    /// (the serialization the pipelined algorithms exist to avoid); tree
    /// pays the root's `⌈log₂ n⌉`-way fan-out then drains through
    /// `⌈log₂ n⌉` hops; ring injects each chunk once and drains through
    /// `n − 1` hops, one max-size chunk per hop.
    pub fn bcast_ns(
        sys: &SystemConfig,
        algo: crate::collective::CollAlgo,
        size: usize,
        world: usize,
        block: usize,
    ) -> SimNs {
        use crate::collective::CollAlgo;
        if world <= 1 {
            return 0;
        }
        let net = &sys.cluster.link;
        let pcie = &sys.device.pcie;
        // Wire chunks carry the 1-byte algorithm header.
        let inj: Vec<SimNs> = chunk_layout(size, block)
            .iter()
            .map(|&(_, len)| net.injection_ns(len + 1))
            .collect();
        let total_inj: SimNs = inj.iter().sum();
        let max_inj = inj.iter().copied().max().unwrap_or(0);
        let depth = sys_log2_ceil(world);
        let (fanout, hops) = match algo {
            CollAlgo::Flat => (world - 1, 1),
            CollAlgo::Tree => (depth, depth),
            CollAlgo::Ring => (1, world - 1),
        };
        pcie.pin_setup_ns
            + pcie.staged_ns(size, true)
            + fanout as SimNs * total_inj
            + hops as SimNs * net.latency_ns
            + hops.saturating_sub(1) as SimNs * max_inj
            + pcie.pin_setup_ns
            + pcie.staged_ns(size, true)
    }

    /// Sustained broadcast bandwidth (payload bytes/s) implied by
    /// [`bcast_ns`].
    pub fn bcast_sustained_bps(
        sys: &SystemConfig,
        algo: crate::collective::CollAlgo,
        size: usize,
        world: usize,
        block: usize,
    ) -> f64 {
        size as f64 * 1e9 / bcast_ns(sys, algo, size, world, block) as f64
    }

    fn sys_log2_ceil(n: usize) -> usize {
        n.next_power_of_two().trailing_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::analytic::*;
    use super::*;
    use crate::SystemConfig;

    #[test]
    fn chunk_layout_covers_exactly() {
        let chunks = chunk_layout(10, 3);
        assert_eq!(chunks, vec![(0, 3), (3, 3), (6, 3), (9, 1)]);
        let total: usize = chunks.iter().map(|c| c.1).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn chunk_layout_single_when_block_ge_size() {
        assert_eq!(chunk_layout(5, 8), vec![(0, 5)]);
        assert_eq!(chunk_layout(0, 8), vec![(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_rejected() {
        chunk_layout(1, 0);
    }

    #[test]
    fn names_render() {
        assert_eq!(TransferStrategy::Pinned.name(), "pinned");
        assert_eq!(TransferStrategy::Pipelined(4 << 20).name(), "pipelined(4M)");
        assert_eq!(TransferStrategy::Auto.name(), "auto");
    }

    #[test]
    fn modeled_ring_bcast_beats_flat_by_2x_at_fig8_scale() {
        // The acceptance-bar shape: 42 MB across 8 ranks on RICC. Flat
        // re-injects the payload 7 times on the root NIC; ring injects
        // once and drains 7 hops of one chunk each.
        use crate::collective::CollAlgo;
        let sys = SystemConfig::ricc();
        let (size, world, block) = (41_990_400, 8, 4 << 20);
        let flat = bcast_ns(&sys, CollAlgo::Flat, size, world, block);
        let tree = bcast_ns(&sys, CollAlgo::Tree, size, world, block);
        let ring = bcast_ns(&sys, CollAlgo::Ring, size, world, block);
        assert!(ring * 2 < flat, "ring {ring} vs flat {flat}");
        assert!(tree < flat, "tree {tree} vs flat {flat}");
        assert!(
            bcast_sustained_bps(&sys, CollAlgo::Ring, size, world, block)
                > 2.0 * bcast_sustained_bps(&sys, CollAlgo::Flat, size, world, block)
        );
        assert_eq!(bcast_ns(&sys, CollAlgo::Ring, size, 1, block), 0);
    }

    #[test]
    fn ricc_pipelined_beats_pinned_beats_mapped_for_large_messages() {
        // The Fig. 8(b) ordering.
        let sys = SystemConfig::ricc();
        let size = 32 << 20;
        let pinned = transfer_ns(&sys, TransferStrategy::Pinned, size);
        let mapped = transfer_ns(&sys, TransferStrategy::Mapped, size);
        let piped = transfer_ns(&sys, TransferStrategy::Pipelined(4 << 20), size);
        assert!(piped < pinned, "pipelining overlaps the stages");
        assert!(pinned < mapped, "C1060 mapped streaming is slow");
    }

    #[test]
    fn cichlid_strategies_converge_on_gbe() {
        // Fig. 8(a): on GbE all three are network-bound for large messages.
        let sys = SystemConfig::cichlid();
        let size = 32 << 20;
        let pinned = sustained_bps(&sys, TransferStrategy::Pinned, size);
        let mapped = sustained_bps(&sys, TransferStrategy::Mapped, size);
        let piped = sustained_bps(&sys, TransferStrategy::Pipelined(4 << 20), size);
        let lo = pinned.min(mapped).min(piped);
        let hi = pinned.max(mapped).max(piped);
        assert!(hi / lo < 1.15, "within ~15% of each other: {lo} vs {hi}");
    }

    #[test]
    fn cichlid_mapped_wins_small_messages() {
        // Fig. 8(a): "the mapped data transfer is faster for small
        // messages on Cichlid due to the short latency".
        let sys = SystemConfig::cichlid();
        let size = 64 << 10;
        let pinned = transfer_ns(&sys, TransferStrategy::Pinned, size);
        let mapped = transfer_ns(&sys, TransferStrategy::Mapped, size);
        assert!(mapped < pinned);
    }

    #[test]
    fn pipeline_block_tradeoff_matches_paper() {
        // Fig. 8(b): small blocks win for small messages, large blocks for
        // large messages.
        let sys = SystemConfig::ricc();
        let small_msg = 4 << 20;
        let big_msg = 256 << 20;
        let b1 = TransferStrategy::Pipelined(1 << 20);
        let b16 = TransferStrategy::Pipelined(16 << 20);
        assert!(
            transfer_ns(&sys, b1, small_msg) < transfer_ns(&sys, b16, small_msg),
            "1M block pipelines a 4M message; 16M cannot"
        );
        assert!(
            transfer_ns(&sys, b16, big_msg) < transfer_ns(&sys, b1, big_msg),
            "16M block amortizes per-chunk overhead on a 256M message"
        );
    }
}
