//! Device performance models (Table I GPUs).
//!
//! Kernels compute real results on the host CPU; their *duration* in
//! virtual time comes from these models. The stencil and map workloads in
//! this workspace are memory-bandwidth bound, so the primary knob is
//! `mem_bw_bps`; the PCIe model carries the pinned/pageable/mapped rate
//! split that the paper's three transfer implementations exercise.

use simtime::SimNs;

/// PCIe / host-interface cost model of a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieModel {
    /// Per-transfer latency (ns): driver + DMA engine kickoff.
    pub latency_ns: SimNs,
    /// Staged copy rate from/to **pinned** host memory (bytes/s).
    pub pinned_bps: f64,
    /// Staged copy rate from/to **pageable** host memory (bytes/s) —
    /// lower, because the driver bounce-buffers.
    pub pageable_bps: f64,
    /// Zero-copy streaming rate through a **mapped** buffer (bytes/s).
    /// On older devices (C1060) this is far below the staged rate; the
    /// asymmetry is what makes the paper's best strategy system-dependent.
    pub mapped_bps: f64,
    /// Software setup cost of the pinned/staged path per transfer (ns):
    /// staging-buffer management and synchronization.
    pub pin_setup_ns: SimNs,
    /// Map/unmap bookkeeping per transfer (ns). Much cheaper than
    /// `pin_setup_ns` — the reason mapped wins for small messages on
    /// Cichlid (paper §V-B).
    pub map_setup_ns: SimNs,
}

impl PcieModel {
    /// Staged-copy duration for `bytes` (excluding strategy setup costs).
    pub fn staged_ns(&self, bytes: usize, pinned: bool) -> SimNs {
        let rate = if pinned {
            self.pinned_bps
        } else {
            self.pageable_bps
        };
        self.latency_ns + (bytes as f64 * 1e9 / rate).round() as SimNs
    }

    /// Zero-copy streaming duration for `bytes` through a mapped buffer
    /// (excluding the map/unmap bookkeeping).
    pub fn mapped_stream_ns(&self, bytes: usize) -> SimNs {
        (bytes as f64 * 1e9 / self.mapped_bps).round() as SimNs
    }
}

/// Static performance description of a compute device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name (Table I).
    pub name: &'static str,
    /// Device memory bandwidth (bytes/s) — governs memory-bound kernels.
    pub mem_bw_bps: f64,
    /// Peak single-precision throughput (FLOP/s) — governs compute-bound
    /// kernels.
    pub peak_flops: f64,
    /// Fixed kernel launch overhead (ns).
    pub kernel_launch_ns: SimNs,
    /// Host-interface model.
    pub pcie: PcieModel,
}

impl DeviceSpec {
    /// NVIDIA Tesla C2070 (Fermi) — the Cichlid GPU.
    pub fn tesla_c2070() -> Self {
        DeviceSpec {
            name: "NVIDIA Tesla C2070",
            mem_bw_bps: 144.0e9,
            peak_flops: 1.03e12,
            kernel_launch_ns: 7_000,
            pcie: PcieModel {
                latency_ns: 8_000,
                pinned_bps: 5.8e9,
                pageable_bps: 3.2e9,
                mapped_bps: 2.6e9,
                pin_setup_ns: 60_000,
                map_setup_ns: 10_000,
            },
        }
    }

    /// NVIDIA Tesla C1060 (GT200) — the RICC GPU. Mapped (zero-copy)
    /// streaming on this generation is poor, which is why the paper's
    /// runtime picks the pinned path on RICC.
    pub fn tesla_c1060() -> Self {
        DeviceSpec {
            name: "NVIDIA Tesla C1060",
            mem_bw_bps: 102.0e9,
            peak_flops: 0.622e12,
            kernel_launch_ns: 9_000,
            pcie: PcieModel {
                latency_ns: 10_000,
                pinned_bps: 5.2e9,
                pageable_bps: 2.8e9,
                mapped_bps: 0.8e9,
                // GT200-generation zero-copy needs expensive per-transfer
                // mapping bookkeeping, while recycled pinned staging is
                // cheap — the reason the paper's runtime picks the pinned
                // path on RICC even for small messages.
                pin_setup_ns: 15_000,
                map_setup_ns: 50_000,
            },
        }
    }

    /// NVIDIA A30 (Ampere) — the CXL-pod study device: PCIe Gen4 host
    /// interface, much faster staging than the Fermi/GT200 parts, so the
    /// wire (NIC or CXL pool port) dominates end-to-end transfer cost.
    pub fn a30() -> Self {
        DeviceSpec {
            name: "NVIDIA A30",
            mem_bw_bps: 933.0e9,
            peak_flops: 10.3e12,
            kernel_launch_ns: 4_000,
            pcie: PcieModel {
                latency_ns: 2_000,
                pinned_bps: 24.0e9,
                pageable_bps: 11.0e9,
                mapped_bps: 18.0e9,
                pin_setup_ns: 25_000,
                map_setup_ns: 6_000,
            },
        }
    }

    /// Duration of a memory-bound kernel that moves `bytes` through device
    /// memory (reads + writes combined).
    pub fn membound_kernel_ns(&self, bytes: usize) -> SimNs {
        self.kernel_launch_ns + (bytes as f64 * 1e9 / self.mem_bw_bps).round() as SimNs
    }

    /// Duration of a compute-bound kernel of `flops` floating operations,
    /// at `efficiency` of peak (0 < efficiency <= 1).
    pub fn compute_kernel_ns(&self, flops: f64, efficiency: f64) -> SimNs {
        assert!(efficiency > 0.0 && efficiency <= 1.0, "efficiency in (0,1]");
        self.kernel_launch_ns + (flops * 1e9 / (self.peak_flops * efficiency)).round() as SimNs
    }

    /// Duration of a stencil-style kernel over `points` grid points that
    /// touches `bytes_per_point` of device memory per point — the model
    /// used for the Himeno Jacobi kernel (memory bound on both GPUs).
    pub fn stencil_kernel_ns(&self, points: usize, bytes_per_point: usize) -> SimNs {
        self.membound_kernel_ns(points * bytes_per_point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_distinct_and_ordered() {
        let fermi = DeviceSpec::tesla_c2070();
        let gt200 = DeviceSpec::tesla_c1060();
        assert!(fermi.mem_bw_bps > gt200.mem_bw_bps);
        assert!(fermi.pcie.mapped_bps > gt200.pcie.mapped_bps * 2.0);
    }

    #[test]
    fn staged_rate_pinned_beats_pageable() {
        let p = DeviceSpec::tesla_c2070().pcie;
        let n = 1 << 20;
        assert!(p.staged_ns(n, true) < p.staged_ns(n, false));
    }

    #[test]
    fn membound_kernel_scales_linearly() {
        let d = DeviceSpec::tesla_c2070();
        let t1 = d.membound_kernel_ns(1 << 20) - d.kernel_launch_ns;
        let t4 = d.membound_kernel_ns(4 << 20) - d.kernel_launch_ns;
        assert!((t4 as f64 / t1 as f64 - 4.0).abs() < 0.01);
    }

    #[test]
    fn compute_kernel_efficiency_bounds() {
        let d = DeviceSpec::tesla_c1060();
        let full = d.compute_kernel_ns(1e9, 1.0);
        let half = d.compute_kernel_ns(1e9, 0.5);
        assert!(half > full);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn zero_efficiency_rejected() {
        DeviceSpec::tesla_c2070().compute_kernel_ns(1e9, 0.0);
    }
}
