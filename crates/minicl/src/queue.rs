//! In-order command queues with executor tasks.
//!
//! Each queue owns one executor, an `async` loop ([`execute`]) spawned as
//! a task through [`SimClock::spawn_task`], a resident of the clock's
//! scheduler. Commands are dispatched strictly in enqueue order; a command
//! first waits for its wait-list events (possibly from other queues), then
//! runs. This is the OpenCL in-order execution model, and because the
//! executor is a concurrent actor of its own, enqueues never block the
//! host thread — the exact property the paper's clMPI design builds on.

use simtime::plock::Mutex;
use std::sync::Arc;

use simtime::{until, Actor, SimChannel, SimClock, SimNs, Trace};

use crate::buffer::Dir;
use crate::status::EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST;
use crate::{Buffer, ClResult, CommandStatus, Device, Event, HostBuffer, WaitListStatus};

type Body = Box<dyn FnOnce() + Send>;

enum Command {
    Shutdown,
    /// Generic device task: optional host-side body (real computation) and
    /// a device-time cost.
    Task {
        event: Event,
        wait: Vec<Event>,
        cost_ns: SimNs,
        body: Option<Body>,
        kind: &'static str,
    },
    /// Transfer over PCIe between a device and a host buffer: a read
    /// ([`Dir::ToHost`]) or a write.
    Transfer {
        event: Event,
        wait: Vec<Event>,
        dir: Dir,
        buf: Buffer,
        offset: usize,
        size: usize,
        host: HostBuffer,
        host_offset: usize,
    },
}

struct QueueShared {
    clock: SimClock,
    device: Device,
    label: String,
    chan: SimChannel<Command>,
    trace: Mutex<Option<(Trace, String)>>,
}

/// An in-order command queue (`cl_command_queue`).
pub struct CommandQueue {
    shared: Arc<QueueShared>,
}

impl CommandQueue {
    pub(crate) fn new(clock: SimClock, device: Device, label: String) -> Self {
        let shared = Arc::new(QueueShared {
            chan: SimChannel::new(clock.clone()),
            clock: clock.clone(),
            device,
            label: label.clone(),
            trace: Mutex::new(None),
        });
        let exec = shared.clone();
        clock.spawn_task(format!("queue:{label}"), "queue executor", |_| {
            execute(exec)
        });
        CommandQueue { shared }
    }

    /// The device this queue feeds.
    pub fn device(&self) -> &Device {
        &self.shared.device
    }

    /// Record every executed command into `trace` under `lane`.
    pub fn set_trace(&self, trace: Trace, lane: impl Into<String>) {
        *self.shared.trace.lock() = Some((trace, lane.into()));
    }

    /// Enqueue a kernel: `body` runs on the executor (real computation),
    /// `cost_ns` of device time is charged (`clEnqueueNDRangeKernel`).
    pub fn enqueue_kernel(
        &self,
        name: &'static str,
        cost_ns: SimNs,
        wait_list: &[Event],
        body: impl FnOnce() + Send + 'static,
    ) -> Event {
        let event = Event::new_queued(self.shared.clock.clone(), name);
        self.shared.chan.send(Command::Task {
            event: event.clone(),
            wait: wait_list.to_vec(),
            cost_ns,
            body: Some(Box::new(body)),
            kind: name,
        });
        event
    }

    /// Enqueue a marker that completes once all preceding commands (and
    /// `wait_list`) have completed (`clEnqueueMarkerWithWaitList`).
    pub fn enqueue_marker(&self, wait_list: &[Event]) -> Event {
        let event = Event::new_queued(self.shared.clock.clone(), "marker");
        self.shared.chan.send(Command::Task {
            event: event.clone(),
            wait: wait_list.to_vec(),
            cost_ns: 0,
            body: None,
            kind: "marker",
        });
        event
    }

    /// Enqueue a device→host read (`clEnqueueReadBuffer`). When `blocking`
    /// the call waits for completion on `actor` before returning.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_read_buffer(
        &self,
        actor: &Actor,
        buf: &Buffer,
        blocking: bool,
        offset: usize,
        size: usize,
        host: &HostBuffer,
        host_offset: usize,
        wait_list: &[Event],
    ) -> ClResult<Event> {
        let region = (buf, offset, size, host, host_offset);
        self.enqueue_transfer(actor, Dir::ToHost, blocking, region, wait_list)
    }

    /// Enqueue a host→device write (`clEnqueueWriteBuffer`).
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_write_buffer(
        &self,
        actor: &Actor,
        buf: &Buffer,
        blocking: bool,
        offset: usize,
        size: usize,
        host: &HostBuffer,
        host_offset: usize,
        wait_list: &[Event],
    ) -> ClResult<Event> {
        let region = (buf, offset, size, host, host_offset);
        self.enqueue_transfer(actor, Dir::ToDevice, blocking, region, wait_list)
    }

    /// Both of the above. Misuse — either range outside its buffer — is
    /// the caller's `CL_INVALID_VALUE`, found here on the calling thread
    /// with nothing enqueued: the executor's copy cannot miss.
    fn enqueue_transfer(
        &self,
        actor: &Actor,
        dir: Dir,
        blocking: bool,
        (buf, offset, size, host, host_offset): (&Buffer, usize, usize, &HostBuffer, usize),
        wait_list: &[Event],
    ) -> ClResult<Event> {
        buf.check_range(offset, size)?;
        host.check_range(host_offset, size)?;
        let label = match dir {
            Dir::ToHost => "read-buffer",
            Dir::ToDevice => "write-buffer",
        };
        let event = Event::new_queued(self.shared.clock.clone(), label);
        self.shared.chan.send(Command::Transfer {
            event: event.clone(),
            wait: wait_list.to_vec(),
            dir,
            buf: buf.clone(),
            offset,
            size,
            host: host.clone(),
            host_offset,
        });
        if blocking {
            event.wait(actor);
        }
        Ok(event)
    }

    /// Map a buffer region for host access (`clEnqueueMapBuffer`): copies
    /// the region into a pageable host buffer at the mapped rate and pays
    /// the map setup cost. Returns (event, mapped region).
    pub fn enqueue_map_buffer(
        &self,
        actor: &Actor,
        buf: &Buffer,
        blocking: bool,
        offset: usize,
        size: usize,
        wait_list: &[Event],
    ) -> ClResult<(Event, HostBuffer)> {
        buf.check_range(offset, size)?;
        let host = HostBuffer::pageable(size);
        let spec = self.shared.device.spec().pcie;
        let cost = spec.map_setup_ns + spec.mapped_stream_ns(size);
        let event = Event::new_queued(self.shared.clock.clone(), "map-buffer");
        let buf2 = buf.clone();
        let host2 = host.clone();
        self.shared.chan.send(Command::Task {
            event: event.clone(),
            wait: wait_list.to_vec(),
            cost_ns: cost,
            body: Some(Box::new(move || {
                buf2.copy(Dir::ToHost, offset, size, &host2, 0)
            })),
            kind: "map-buffer",
        });
        if blocking {
            event.wait(actor);
        }
        Ok((event, host))
    }

    /// Unmap a previously mapped region (`clEnqueueUnmapMemObject`):
    /// writes the host copy back at the mapped rate.
    pub fn enqueue_unmap(
        &self,
        buf: &Buffer,
        offset: usize,
        mapped: &HostBuffer,
        wait_list: &[Event],
    ) -> ClResult<Event> {
        let size = mapped.size();
        buf.check_range(offset, size)?;
        let spec = self.shared.device.spec().pcie;
        let cost = spec.map_setup_ns + spec.mapped_stream_ns(size);
        let event = Event::new_queued(self.shared.clock.clone(), "unmap");
        let buf2 = buf.clone();
        let mapped2 = mapped.clone();
        self.shared.chan.send(Command::Task {
            event: event.clone(),
            wait: wait_list.to_vec(),
            cost_ns: cost,
            body: Some(Box::new(move || {
                buf2.copy(Dir::ToDevice, offset, size, &mapped2, 0)
            })),
            kind: "unmap",
        });
        Ok(event)
    }

    /// Device→device copy within the same device (`clEnqueueCopyBuffer`):
    /// charged at device memory bandwidth (read + write), and moved that
    /// way — a load and a store, the two passes its 2 × `size` cost models.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_copy_buffer(
        &self,
        src: &Buffer,
        src_offset: usize,
        dst: &Buffer,
        dst_offset: usize,
        size: usize,
        wait_list: &[Event],
    ) -> ClResult<Event> {
        src.check_range(src_offset, size)?;
        dst.check_range(dst_offset, size)?;
        let cost = self.shared.device.spec().membound_kernel_ns(2 * size);
        let event = Event::new_queued(self.shared.clock.clone(), "copy-buffer");
        let (src, dst) = (src.clone(), dst.clone());
        self.shared.chan.send(Command::Task {
            event: event.clone(),
            wait: wait_list.to_vec(),
            cost_ns: cost,
            body: Some(Box::new(move || {
                let bytes = src.load(src_offset, size).expect("range checked");
                dst.store(dst_offset, bytes.as_slice())
                    .expect("range checked");
            })),
            kind: "copy-buffer",
        });
        Ok(event)
    }

    /// Fill a buffer region with a repeated byte pattern
    /// (`clEnqueueFillBuffer`): charged at device memory write bandwidth.
    pub fn enqueue_fill_buffer(
        &self,
        buf: &Buffer,
        pattern: Vec<u8>,
        offset: usize,
        size: usize,
        wait_list: &[Event],
    ) -> ClResult<Event> {
        buf.check_range(offset, size)?;
        if pattern.is_empty() || !size.is_multiple_of(pattern.len()) {
            return Err(crate::ClError::InvalidValue(format!(
                "fill size {size} is not a multiple of the {}-byte pattern",
                pattern.len()
            )));
        }
        let cost = self.shared.device.spec().membound_kernel_ns(size);
        let event = Event::new_queued(self.shared.clock.clone(), "fill-buffer");
        let buf = buf.clone();
        self.shared.chan.send(Command::Task {
            event: event.clone(),
            wait: wait_list.to_vec(),
            cost_ns: cost,
            body: Some(Box::new(move || {
                buf.write(|d| {
                    for chunk in d.as_mut_slice()[offset..offset + size].chunks_mut(pattern.len()) {
                        chunk.copy_from_slice(&pattern[..chunk.len()]);
                    }
                });
            })),
            kind: "fill-buffer",
        });
        Ok(event)
    }

    /// Block until every enqueued command has completed (`clFinish`).
    pub fn finish(&self, actor: &Actor) {
        self.enqueue_marker(&[]).wait(actor);
    }
}

impl Drop for CommandQueue {
    /// Ask the executor to retire once the commands ahead of it are done;
    /// it does so on the scheduler.
    fn drop(&mut self) {
        self.shared.chan.send(Command::Shutdown);
    }
}

impl Command {
    fn event(&self) -> Option<&Event> {
        match self {
            Command::Shutdown => None,
            Command::Task { event, .. } | Command::Transfer { event, .. } => Some(event),
        }
    }

    /// The command's event wait list (named to stay distinct from the
    /// blocking `wait` vocabulary — this is an accessor, it never parks).
    fn wait_list(&self) -> &[Event] {
        match self {
            Command::Shutdown => &[],
            Command::Task { wait, .. } | Command::Transfer { wait, .. } => wait,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Command::Shutdown => "shutdown",
            Command::Task { kind, .. } => kind,
            Command::Transfer { dir, .. } => match dir {
                Dir::ToHost => "read",
                Dir::ToDevice => "write",
            },
        }
    }
}

/// The queue executor: dequeue → settle the wait list → reserve and run →
/// sleep until the reservation ends → complete, strictly in order, until
/// the queue's `Shutdown`. Every transition counts one scheduler event.
async fn execute(shared: Arc<QueueShared>) {
    let clock = &shared.clock;
    loop {
        let mut cmd = until(|| shared.chan.try_recv()).await;
        clock.count_events(1);
        // Submission instant: when the executor reaches the command.
        match cmd.event() {
            Some(event) => event.mark_submitted(clock.now_ns()),
            None => return, // Shutdown
        }
        let wait = cmd.wait_list();
        let deps = until(|| match Event::poll_wait_list(wait) {
            WaitListStatus::Pending => None,
            settled => Some(settled),
        })
        .await;
        let start = clock.now_ns();
        clock.count_events(1);
        if let WaitListStatus::Failed { .. } = deps {
            // The command is poisoned: its body never runs, no device
            // time is charged.
            if let Some(event) = cmd.event() {
                event.fail(start, EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST);
            }
            if let Some((trace, lane)) = shared.trace.lock().as_ref() {
                let poisoned = format!("{}@{} poisoned", cmd.kind(), shared.label);
                trace.record(lane.clone(), poisoned, start, start);
            }
            continue;
        }
        let end = begin_command(&shared, &mut cmd, start);
        clock.sleep_until(end).await;
        complete_command(&shared, cmd, start, end);
        clock.count_events(1);
    }
}

/// Start the head command at `start`: mark it running, execute its host
/// body (a Task's body runs at its start instant), and reserve its device
/// engine/link. Returns the occupancy end instant.
fn begin_command(shared: &QueueShared, cmd: &mut Command, start: SimNs) -> SimNs {
    cmd.event().expect("non-shutdown").mark_running(start);
    match cmd {
        Command::Shutdown => start,
        Command::Task { cost_ns, body, .. } => {
            if let Some(b) = body.take() {
                b();
            }
            if *cost_ns > 0 {
                // Kernels serialize on the device's compute engine, even
                // across queues.
                shared
                    .device
                    .compute_link()
                    .reserve_duration(*cost_ns, start)
                    .end
            } else {
                start
            }
        }
        Command::Transfer {
            dir, size, host, ..
        } => {
            let dur = shared.device.spec().pcie.staged_ns(*size, host.is_pinned());
            let link = match dir {
                Dir::ToHost => shared.device.d2h_link(),
                Dir::ToDevice => shared.device.h2d_link(),
            };
            link.reserve_duration(dur, start).end
        }
    }
}

/// Finish the head command at `end`: a transfer's payload moves at its
/// completion instant — whoever reads the destination before the event
/// completes sees the old bytes — then the event completes and the span is
/// recorded.
fn complete_command(shared: &QueueShared, cmd: Command, start: SimNs, end: SimNs) {
    let kind = cmd.kind();
    let event = match cmd {
        Command::Shutdown => unreachable!("shutdown never runs"),
        Command::Task { event, .. } => event,
        Command::Transfer {
            event,
            dir,
            buf,
            offset,
            size,
            host,
            host_offset,
            ..
        } => {
            buf.copy(dir, offset, size, &host, host_offset);
            event
        }
    };
    event.complete(end);
    debug_assert_eq!(event.status(), CommandStatus::Complete);
    if let Some((trace, lane)) = shared.trace.lock().as_ref() {
        trace.record(lane.clone(), format!("{kind}@{}", shared.label), start, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, DeviceSpec};

    fn ctx_and_actor() -> (Context, Actor) {
        let clock = SimClock::new();
        let actor = clock.register("host");
        let ctx = Context::new(clock, &[DeviceSpec::tesla_c2070()]);
        (ctx, actor)
    }

    #[test]
    fn kernel_runs_and_charges_cost() {
        let (ctx, actor) = ctx_and_actor();
        let q = ctx.create_queue(0, "q0");
        let buf = ctx.create_buffer(16);
        let b2 = buf.clone();
        let e = q.enqueue_kernel("fill", 1_000, &[], move || {
            b2.write(|d| d.as_f32_mut().iter_mut().for_each(|x| *x = 2.0));
        });
        e.wait(&actor);
        assert!(buf.read(|d| d.as_f32().iter().all(|&x| x == 2.0)));
        let p = e.profiling().unwrap();
        assert_eq!(p.completed - p.started, 1_000);
    }

    #[test]
    fn in_order_execution_serializes_commands() {
        let (ctx, actor) = ctx_and_actor();
        let q = ctx.create_queue(0, "q0");
        let e1 = q.enqueue_kernel("a", 500, &[], || {});
        let e2 = q.enqueue_kernel("b", 300, &[], || {});
        e2.wait(&actor);
        let p1 = e1.profiling().unwrap();
        let p2 = e2.profiling().unwrap();
        assert!(p2.started >= p1.completed, "in-order queue");
        assert_eq!(p2.completed, 800);
    }

    #[test]
    fn two_queues_one_device_serialize_kernels() {
        // One compute engine: kernels from different queues cannot
        // overlap on the same device.
        let (ctx, actor) = ctx_and_actor();
        let q1 = ctx.create_queue(0, "q1");
        let q2 = ctx.create_queue(0, "q2");
        let e1 = q1.enqueue_kernel("a", 1_000, &[], || {});
        let e2 = q2.enqueue_kernel("b", 1_000, &[], || {});
        e1.wait(&actor);
        e2.wait(&actor);
        assert_eq!(actor.now_ns(), 2_000, "compute engine is serialized");
    }

    #[test]
    fn two_devices_overlap_kernels() {
        let clock = SimClock::new();
        let actor = clock.register("host");
        let ctx = Context::new(
            clock,
            &[DeviceSpec::tesla_c2070(), DeviceSpec::tesla_c2070()],
        );
        let q1 = ctx.create_queue(0, "q1");
        let q2 = ctx.create_queue(1, "q2");
        let e1 = q1.enqueue_kernel("a", 1_000, &[], || {});
        let e2 = q2.enqueue_kernel("b", 1_000, &[], || {});
        e1.wait(&actor);
        e2.wait(&actor);
        assert!(actor.now_ns() < 1_500, "distinct devices run concurrently");
    }

    #[test]
    fn kernel_overlaps_pcie_transfer() {
        // Compute/DMA overlap is real: a kernel and a buffer write from
        // two queues proceed concurrently.
        let (ctx, actor) = ctx_and_actor();
        let qk = ctx.create_queue(0, "qk");
        let qx = ctx.create_queue(0, "qx");
        let buf = ctx.create_buffer(8 << 20);
        let host = HostBuffer::pinned(8 << 20);
        let ek = qk.enqueue_kernel("k", 2_000_000, &[], || {});
        let ex = qx
            .enqueue_write_buffer(&actor, &buf, false, 0, 8 << 20, &host, 0, &[])
            .unwrap();
        ek.wait(&actor);
        ex.wait(&actor);
        assert!(
            actor.now_ns() < 2_600_000,
            "transfer hidden under the kernel: {}",
            actor.now_ns()
        );
    }

    #[test]
    fn wait_list_orders_across_queues() {
        let (ctx, actor) = ctx_and_actor();
        let q1 = ctx.create_queue(0, "q1");
        let q2 = ctx.create_queue(0, "q2");
        let e1 = q1.enqueue_kernel("producer", 2_000, &[], || {});
        let e2 = q2.enqueue_kernel("consumer", 100, std::slice::from_ref(&e1), || {});
        e2.wait(&actor);
        let p1 = e1.profiling().unwrap();
        let p2 = e2.profiling().unwrap();
        assert!(p2.started >= p1.completed, "wait list enforced");
    }

    #[test]
    fn read_write_buffer_roundtrip_with_timing() {
        let (ctx, actor) = ctx_and_actor();
        let q = ctx.create_queue(0, "q0");
        let buf = ctx.create_buffer(1 << 20);
        let src = HostBuffer::pinned(1 << 20);
        assert_eq!(src.store(0, &vec![7u8; 1 << 20]), Ok(()));
        let dst = HostBuffer::pinned(1 << 20);
        q.enqueue_write_buffer(&actor, &buf, true, 0, 1 << 20, &src, 0, &[])
            .unwrap();
        q.enqueue_read_buffer(&actor, &buf, true, 0, 1 << 20, &dst, 0, &[])
            .unwrap();
        assert_eq!(dst.to_vec(), vec![7u8; 1 << 20]);
        // 2 MB over ~5.8 GB/s plus latencies: ~360 us total.
        let t = actor.now_ns();
        assert!(t > 300_000 && t < 500_000, "pcie timing plausible: {t}");
    }

    #[test]
    fn pageable_transfer_slower_than_pinned() {
        let (ctx, actor) = ctx_and_actor();
        let q = ctx.create_queue(0, "q0");
        let buf = ctx.create_buffer(4 << 20);
        let pinned = HostBuffer::pinned(4 << 20);
        let pageable = HostBuffer::pageable(4 << 20);
        let t0 = actor.now_ns();
        q.enqueue_write_buffer(&actor, &buf, true, 0, 4 << 20, &pinned, 0, &[])
            .unwrap();
        let t1 = actor.now_ns();
        q.enqueue_write_buffer(&actor, &buf, true, 0, 4 << 20, &pageable, 0, &[])
            .unwrap();
        let t2 = actor.now_ns();
        assert!(t2 - t1 > (t1 - t0) * 3 / 2, "pageable visibly slower");
    }

    #[test]
    fn map_unmap_roundtrip() {
        let (ctx, actor) = ctx_and_actor();
        let q = ctx.create_queue(0, "q0");
        let buf = ctx.create_buffer(64);
        buf.store(0, &[3u8; 64]).unwrap();
        let (me, mapped) = q
            .enqueue_map_buffer(&actor, &buf, true, 0, 64, &[])
            .unwrap();
        assert!(me.is_complete());
        assert_eq!(mapped.to_vec(), vec![3u8; 64]);
        assert_eq!(mapped.store(0, &[9u8; 64]), Ok(()));
        let ue = q.enqueue_unmap(&buf, 0, &mapped, &[]).unwrap();
        ue.wait(&actor);
        assert_eq!(buf.load(0, 64).unwrap().as_slice(), [9u8; 64]);
    }

    #[test]
    fn copy_buffer_moves_bytes_with_cost() {
        let (ctx, actor) = ctx_and_actor();
        let q = ctx.create_queue(0, "q0");
        let a = ctx.create_buffer(1 << 20);
        let b = ctx.create_buffer(1 << 20);
        a.store(0, &vec![3u8; 1 << 20]).unwrap();
        let e = q.enqueue_copy_buffer(&a, 0, &b, 0, 1 << 20, &[]).unwrap();
        e.wait(&actor);
        assert_eq!(b.load(0, 1 << 20).unwrap().as_slice(), vec![3u8; 1 << 20]);
        let p = e.profiling().unwrap();
        // 2 MiB through 144 GB/s ≈ 14.5 us + launch overhead.
        assert!(p.completed - p.started > 10_000);
    }

    #[test]
    fn fill_buffer_patterns_region() {
        let (ctx, actor) = ctx_and_actor();
        let q = ctx.create_queue(0, "q0");
        let b = ctx.create_buffer(32);
        let e = q
            .enqueue_fill_buffer(&b, vec![0xAB, 0xCD], 8, 16, &[])
            .unwrap();
        e.wait(&actor);
        let out = b.load(0, 32).unwrap();
        let out = out.as_slice();
        assert!(out[..8].iter().all(|&x| x == 0));
        assert_eq!(&out[8..12], &[0xAB, 0xCD, 0xAB, 0xCD]);
        assert!(out[24..].iter().all(|&x| x == 0));
    }

    #[test]
    fn fill_buffer_rejects_misaligned_pattern() {
        let (ctx, actor) = ctx_and_actor();
        let q = ctx.create_queue(0, "q0");
        let b = ctx.create_buffer(32);
        assert!(q
            .enqueue_fill_buffer(&b, vec![1, 2, 3], 0, 32, &[])
            .is_err());
        q.finish(&actor);
    }

    #[test]
    fn finish_drains_the_queue() {
        let (ctx, actor) = ctx_and_actor();
        let q = ctx.create_queue(0, "q0");
        for _ in 0..5 {
            q.enqueue_kernel("k", 100, &[], || {});
        }
        q.finish(&actor);
        assert_eq!(actor.now_ns(), 500);
    }

    #[test]
    fn enqueue_does_not_block_host() {
        let (ctx, actor) = ctx_and_actor();
        let q = ctx.create_queue(0, "q0");
        let e = q.enqueue_kernel("slow", 1_000_000, &[], || {});
        // Host can do its own work concurrently.
        actor.advance_ns(400_000);
        assert!(!e.is_complete() || e.completion_time().unwrap() <= 1_000_000);
        e.wait(&actor);
        assert_eq!(actor.now_ns(), 1_000_000, "overlapped, not serialized");
    }

    #[test]
    fn out_of_range_enqueue_rejected() {
        let (ctx, actor) = ctx_and_actor();
        let q = ctx.create_queue(0, "q0");
        let buf = ctx.create_buffer(16);
        let host = HostBuffer::pinned(16);
        assert!(q
            .enqueue_read_buffer(&actor, &buf, false, 8, 16, &host, 0, &[])
            .is_err());
        q.finish(&actor);
    }

    /// A host buffer shorter than `host_offset + size` is the caller's
    /// `CL_INVALID_VALUE`, found on the calling thread with nothing
    /// enqueued — never an out-of-range slice on the executor, whose panic
    /// poisons the clock for every actor.
    #[test]
    fn short_host_buffer_rejected_at_enqueue() {
        let (ctx, actor) = ctx_and_actor();
        let q = ctx.create_queue(0, "q0");
        let buf = ctx.create_buffer(64);
        let host = HostBuffer::pinned(16);
        for (host_offset, size) in [(0, 64), (8, 16), (usize::MAX, 2)] {
            let r = q.enqueue_read_buffer(&actor, &buf, false, 0, size, &host, host_offset, &[]);
            assert!(matches!(r, Err(crate::ClError::InvalidValue(_))), "read");
            let w = q.enqueue_write_buffer(&actor, &buf, false, 0, size, &host, host_offset, &[]);
            assert!(matches!(w, Err(crate::ClError::InvalidValue(_))), "write");
        }
        // Nothing was enqueued, and the queue still works.
        q.finish(&actor);
        assert_eq!(actor.now_ns(), 0);
        let e = q.enqueue_read_buffer(&actor, &buf, true, 0, 8, &host, 8, &[]);
        assert!(e.is_ok_and(|e| e.is_complete()));
    }

    #[test]
    fn failed_dependency_poisons_gated_command() {
        let (ctx, actor) = ctx_and_actor();
        let q = ctx.create_queue(0, "q0");
        let ue = ctx.create_user_event("gate");
        let ran = Arc::new(Mutex::new(false));
        let r2 = ran.clone();
        let e = q.enqueue_kernel("gated", 10_000, &[ue.event()], move || {
            *r2.lock() = true;
        });
        // A second, chained command is poisoned transitively.
        let e2 = q.enqueue_marker(std::slice::from_ref(&e));
        actor.advance_ns(100);
        ue.set_failed(actor.now_ns(), -42).unwrap();
        assert!(e.wait_result(&actor).is_err());
        assert_eq!(
            e.status(),
            CommandStatus::Failed(crate::EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST)
        );
        assert!(!*ran.lock(), "poisoned command body never ran");
        assert!(e2.wait_result(&actor).is_err(), "failure cascades");
        // The queue itself stays usable: an ungated command still runs.
        let e3 = q.enqueue_kernel("after", 10, &[], || {});
        e3.wait(&actor);
        assert!(e3.is_complete());
    }

    #[test]
    fn user_event_gates_queue_command() {
        let (ctx, actor) = ctx_and_actor();
        let q = ctx.create_queue(0, "q0");
        let ue = ctx.create_user_event("gate");
        let e = q.enqueue_kernel("gated", 10, &[ue.event()], || {});
        actor.advance_ns(5_000);
        assert!(!e.is_complete(), "blocked on user event");
        ue.set_complete(actor.now_ns()).unwrap();
        e.wait(&actor);
        assert_eq!(e.profiling().unwrap().started, 5_000);
    }
}
