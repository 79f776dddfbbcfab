//! Contexts and devices.

use std::sync::Arc;

use simnet::{Link, LinkSpec};
use simtime::SimClock;

use crate::{Buffer, CommandQueue, DeviceSpec, UserEvent};

struct DeviceInner {
    spec: DeviceSpec,
    index: usize,
    /// Host→device PCIe direction (serialized DMA engine).
    h2d: Link,
    /// Device→host PCIe direction.
    d2h: Link,
    /// The compute engine: kernels serialize here even when issued from
    /// several command queues — one device executes one kernel at a time
    /// (the concurrency these GPUs actually offer is compute/DMA overlap,
    /// which the separate PCIe timelines already model).
    compute: Link,
    /// The pack engine: the dedicated stream the runtime's datatype
    /// pack/unpack kernels run on (TEMPI-style), serialized among
    /// themselves but overlapping application kernels. Kept separate from
    /// `compute` so only the transfer engine's actor ever reserves it —
    /// two unordered actors sharing one FIFO timeline would make the
    /// schedule depend on wall-clock interleaving.
    pack: Link,
}

/// A compute device within a context. Cheap to clone.
#[derive(Clone)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

impl Device {
    /// Static performance description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.inner.spec
    }

    /// Index within the context.
    pub fn index(&self) -> usize {
        self.inner.index
    }

    /// The host→device PCIe timeline (for transfer reservations).
    pub fn h2d_link(&self) -> &Link {
        &self.inner.h2d
    }

    /// The device→host PCIe timeline.
    pub fn d2h_link(&self) -> &Link {
        &self.inner.d2h
    }

    /// The compute-engine timeline (kernels serialize on it).
    pub fn compute_link(&self) -> &Link {
        &self.inner.compute
    }

    /// The pack-engine timeline (runtime datatype pack/unpack kernels).
    pub fn pack_link(&self) -> &Link {
        &self.inner.pack
    }
}

struct ContextInner {
    clock: SimClock,
    devices: Vec<Device>,
}

/// An OpenCL-style context: owns devices and creates resources.
#[derive(Clone)]
pub struct Context {
    inner: Arc<ContextInner>,
}

impl Context {
    /// Create a context over `specs` (one [`Device`] each), sharing the
    /// given virtual clock.
    pub fn new(clock: SimClock, specs: &[DeviceSpec]) -> Self {
        assert!(!specs.is_empty(), "context needs at least one device");
        let devices = specs
            .iter()
            .enumerate()
            .map(|(index, spec)| {
                let pcie_link = LinkSpec {
                    latency_ns: spec.pcie.latency_ns,
                    bandwidth_bps: spec.pcie.pinned_bps,
                    per_msg_overhead_ns: 0,
                };
                let engine = LinkSpec {
                    latency_ns: 0,
                    bandwidth_bps: 1.0,
                    per_msg_overhead_ns: 0,
                };
                Device {
                    inner: Arc::new(DeviceInner {
                        spec: *spec,
                        index,
                        h2d: Link::new(clock.clone(), pcie_link),
                        d2h: Link::new(clock.clone(), pcie_link),
                        compute: Link::new(clock.clone(), engine),
                        pack: Link::new(clock.clone(), engine),
                    }),
                }
            })
            .collect();
        Context {
            inner: Arc::new(ContextInner { clock, devices }),
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// Devices in this context.
    pub fn devices(&self) -> &[Device] {
        &self.inner.devices
    }

    /// Device by index (panics out of range).
    pub fn device(&self, index: usize) -> &Device {
        &self.inner.devices[index]
    }

    /// Allocate a device buffer that reads as zeroes (`clCreateBuffer`).
    pub fn create_buffer(&self, size: usize) -> Buffer {
        Buffer::alloc(size)
    }

    /// Create an in-order command queue on device `device_index`
    /// (`clCreateCommandQueue`). Spawns the executor thread; the calling
    /// thread must belong to a registered actor (see
    /// [`simtime::SimClock::register`]'s ordering rule).
    pub fn create_queue(&self, device_index: usize, label: impl Into<String>) -> CommandQueue {
        CommandQueue::new(
            self.inner.clock.clone(),
            self.device(device_index).clone(),
            label.into(),
        )
    }

    /// Create a user event (`clCreateUserEvent`).
    pub fn create_user_event(&self, label: impl Into<String>) -> UserEvent {
        UserEvent::new(self.inner.clock.clone(), label)
    }
}
