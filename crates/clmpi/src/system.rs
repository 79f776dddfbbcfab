//! System configurations: cluster + device + transfer-strategy policy.

use minicl::DeviceSpec;
use simnet::ClusterSpec;
use simtime::SimNs;

use crate::strategy::TransferStrategy;

/// Everything the clMPI runtime needs to know about the system it runs on
/// (one per Table I system). The policy fields encode §V-B: "the current
/// implementation of the clMPI runtime can use either the pinned or mapped
/// data transfer for small messages, and the pipelined data transfer can
/// be performed for large messages … the mapped and pinned data transfers
/// are used for Cichlid and RICC, respectively."
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Interconnect + node inventory (Table I).
    pub cluster: ClusterSpec,
    /// GPU model (Table I).
    pub device: DeviceSpec,
    /// Strategy for messages below [`SystemConfig::pipeline_threshold`].
    pub small_message_strategy: TransferStrategy,
    /// Messages of at least this many bytes use the pipelined path.
    pub pipeline_threshold: usize,
    /// Default pipeline block size when the caller does not force one.
    pub default_pipeline_block: usize,
}

impl SystemConfig {
    /// Cichlid: GbE + Tesla C2070. Mapped transfers win for the small/
    /// medium messages GbE can carry, so the runtime prefers them.
    pub fn cichlid() -> Self {
        SystemConfig {
            cluster: ClusterSpec::cichlid(),
            device: DeviceSpec::tesla_c2070(),
            small_message_strategy: TransferStrategy::Mapped,
            // On GbE the network is the bottleneck; pipelining only helps
            // for very large messages.
            pipeline_threshold: 16 << 20,
            default_pipeline_block: 1 << 20,
        }
    }

    /// RICC: InfiniBand DDR (IPoIB) + Tesla C1060. Mapped streaming on the
    /// C1060 is slow, so small messages use the pinned path and large ones
    /// the pipelined path.
    pub fn ricc() -> Self {
        SystemConfig {
            cluster: ClusterSpec::ricc(),
            device: DeviceSpec::tesla_c1060(),
            small_message_strategy: TransferStrategy::Pinned,
            pipeline_threshold: 1 << 20,
            default_pipeline_block: 4 << 20,
        }
    }

    /// CXL-Pod: 16 nodes in pods of four around CXL 2.0 memory pools,
    /// 100GbE between pods, NVIDIA A30 devices. Small messages stay on
    /// the pinned path (RoCE latency dwarfs pin setup on Gen4 PCIe);
    /// one-sided window traffic rides the pool port when ranks share one.
    pub fn cxl_pod() -> Self {
        SystemConfig {
            cluster: ClusterSpec::cxl_pod(),
            device: DeviceSpec::a30(),
            small_message_strategy: TransferStrategy::Pinned,
            pipeline_threshold: 1 << 20,
            default_pipeline_block: 4 << 20,
        }
    }

    /// The preset named `name` ("cichlid", "ricc", or "cxl-pod"),
    /// case-insensitive.
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "cichlid" => Some(Self::cichlid()),
            "ricc" => Some(Self::ricc()),
            "cxl-pod" | "cxl_pod" | "cxlpod" => Some(Self::cxl_pod()),
            _ => None,
        }
    }

    /// The strategy the runtime would use for a `size`-byte transfer when
    /// the application forces `forced` (or `Auto`).
    pub fn resolve(&self, forced: TransferStrategy, size: usize) -> TransferStrategy {
        match forced {
            TransferStrategy::Auto => {
                if size >= self.pipeline_threshold {
                    TransferStrategy::Pipelined(self.auto_block(size))
                } else {
                    self.small_message_strategy
                }
            }
            TransferStrategy::Pipelined(0) => TransferStrategy::Pipelined(self.auto_block(size)),
            other => other,
        }
    }

    /// Wire time of a `bytes`-byte chunk under the mapped strategy: the
    /// NIC streams straight through PCIe, so the injection and the
    /// zero-copy stream fuse into one stage at the slower one's pace. The
    /// engine and the closed form ([`crate::analytic`]) both ask here.
    pub fn mapped_wire_ns(&self, bytes: usize) -> SimNs {
        let stream = self.device.pcie.mapped_stream_ns(bytes);
        self.cluster.link.injection_ns(bytes).max(stream)
    }

    /// Automatic pipeline block size: grows with the message (paper §V-B:
    /// "the optimal pipeline buffer size changes depending at least on the
    /// message size"), clamped to [default/4, 16 MiB] and never larger
    /// than the message itself.
    pub fn auto_block(&self, size: usize) -> usize {
        let target = (size / 8).next_power_of_two().max(1);
        target
            .clamp(self.default_pipeline_block / 4, 16 << 20)
            .min(size.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_encode_paper_policy() {
        let c = SystemConfig::cichlid();
        assert_eq!(c.small_message_strategy, TransferStrategy::Mapped);
        let r = SystemConfig::ricc();
        assert_eq!(r.small_message_strategy, TransferStrategy::Pinned);
        assert!(r.pipeline_threshold < c.pipeline_threshold);
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert!(SystemConfig::by_name("Cichlid").is_some());
        assert!(SystemConfig::by_name("RICC").is_some());
        assert!(SystemConfig::by_name("summit").is_none());
    }

    #[test]
    fn auto_resolution_switches_at_threshold() {
        let r = SystemConfig::ricc();
        assert_eq!(
            r.resolve(TransferStrategy::Auto, 64 << 10),
            TransferStrategy::Pinned
        );
        match r.resolve(TransferStrategy::Auto, 64 << 20) {
            TransferStrategy::Pipelined(b) => assert!(b >= 1 << 20),
            other => panic!("expected pipelined, got {other:?}"),
        }
    }

    #[test]
    fn forced_strategy_is_respected() {
        let c = SystemConfig::cichlid();
        assert_eq!(
            c.resolve(TransferStrategy::Pinned, 64 << 20),
            TransferStrategy::Pinned
        );
    }

    #[test]
    fn auto_block_grows_with_message_and_is_bounded() {
        let r = SystemConfig::ricc();
        let b1 = r.auto_block(2 << 20);
        let b2 = r.auto_block(128 << 20);
        assert!(b2 >= b1);
        assert!(b2 <= 16 << 20);
        assert!(r.auto_block(10) <= 10usize.next_power_of_two().max(1 << 20));
    }
}
