//! Future-work extension (paper §VI): file-I/O commands.
//!
//! "Not only MPI peer-to-peer communications but also other
//! time-consuming tasks such as file I/O would be encapsulated in other
//! additional OpenCL commands." This module prototypes that: a simulated
//! node-local storage device ([`SimStorage`]) and
//! [`ClMpi::enqueue_write_file`] / [`ClMpi::enqueue_read_file`] commands
//! that move device buffers to/from it, returning ordinary events — so
//! checkpointing overlaps computation exactly like communication does.

use std::collections::BTreeMap;
use std::sync::Arc;

use minicl::{Buffer, ClResult, CommandQueue, Device, Event, UserEvent, CL_MPI_TRANSFER_ERROR};
use simnet::{Link, LinkSpec};
use simtime::plock::Mutex;
use simtime::{Actor, Monitor, SimClock, SimNs, WakeKey};

use crate::engine::{deps_settled, record_envelope, EngineOp, Step};
use crate::obs::ChildIds;
use crate::runtime::Inner;

/// A simulated node-local storage device: an in-memory "filesystem" plus
/// a serialized bandwidth/latency timeline (one head, like a real disk or
/// a shared SSD namespace).
#[derive(Clone)]
pub struct SimStorage {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
    link: Arc<Link>,
    clock: SimClock,
    defer: Arc<Mutex<StorageDefer>>,
    /// Wake key of the arbiter, a pump key like the fabric's: the alarm
    /// that makes a job grantable wakes one of the machines that pump.
    key: WakeKey,
}

/// Where a deferred reservation's arrival instant lands once granted. A
/// `Monitor`, so a grant made by another rank's pump wakes the op that
/// owns the cell.
type GrantCell = Arc<Monitor<Option<SimNs>>>;

/// A deferred storage reservation, granted later in canonical order.
/// Several ranks share one storage device (the shared-PFS model), and
/// their engine threads hit the timeline at the same virtual instant;
/// granting in real call order would leak host scheduling into virtual
/// time. Same design as the fabric's deferred-send arbiter.
struct StorageJob {
    /// Canonical tiebreak between posters at the same instant (the
    /// poster's global rank — unique per shared storage).
    prio: u64,
    bytes: usize,
    earliest: SimNs,
    seq: u64,
    /// Filled with the reservation's arrival instant at grant time.
    cell: GrantCell,
}

#[derive(Default)]
struct StorageDefer {
    pending: Vec<StorageJob>,
    next_seq: u64,
}

impl SimStorage {
    /// A ~2012 cluster-node local disk array: ~200 MB/s streaming,
    /// ~4 ms access latency, small per-op overhead.
    pub fn node_local_disk(clock: SimClock) -> Self {
        Self::with_spec(
            clock,
            LinkSpec {
                latency_ns: 4_000_000,
                bandwidth_bps: 200.0e6,
                per_msg_overhead_ns: 100_000,
            },
        )
    }

    /// Storage with an explicit cost model.
    pub fn with_spec(clock: SimClock, spec: LinkSpec) -> Self {
        SimStorage {
            files: Arc::new(Mutex::new(BTreeMap::new())),
            link: Arc::new(Link::new(clock.clone(), spec)),
            key: clock.new_pump_key(),
            clock,
            defer: Arc::new(Mutex::new(StorageDefer::default())),
        }
    }

    /// Bytes currently stored under `path`.
    pub fn file_len(&self, path: &str) -> Option<usize> {
        self.files.lock().get(path).map(|v| v.len())
    }

    /// Snapshot a file's contents.
    pub fn read_file(&self, path: &str) -> Option<Vec<u8>> {
        self.files.lock().get(path).cloned()
    }

    /// Store raw bytes (host-side write, no device involved).
    pub fn write_file(&self, path: &str, data: Vec<u8>) {
        self.files.lock().insert(path.to_string(), data);
    }

    /// Synchronous reservation (first-come timeline order). Only safe
    /// when a single thread drives the storage; the engine machines go
    /// through [`SimStorage::reserve_deferred`] instead.
    #[cfg(test)]
    pub(crate) fn reserve(&self, bytes: usize, earliest: SimNs) -> SimNs {
        let r = self.link.reserve(bytes, earliest);
        r.arrival
    }

    /// Post a reservation to the deferred arbiter. The returned cell is
    /// filled with the arrival instant once [`SimStorage::pump`] grants
    /// the job; poll it after pumping. `prio` breaks same-instant ties
    /// canonically (pass the poster's global rank).
    pub(crate) fn reserve_deferred(&self, prio: u64, bytes: usize, earliest: SimNs) -> GrantCell {
        let mut q = self.defer.lock();
        // Clamp stale instants up to now. Grant batches are frozen: the
        // poster is runnable, so the clock cannot advance while this job
        // is posted — every later post lands at `earliest` ≥ any instant
        // a pump has already granted through.
        let earliest = earliest.max(self.clock.now_ns());
        let cell = Arc::new(Monitor::new(self.clock.clone(), None));
        let seq = q.next_seq;
        q.next_seq += 1;
        q.pending.push(StorageJob {
            prio,
            bytes,
            earliest,
            seq,
            cell: cell.clone(),
        });
        // Drive the clock past the grant threshold even if every actor
        // is parked waiting on this very reservation.
        self.clock.schedule_alarm_keyed(earliest + 1, self.key);
        cell
    }

    /// Grant every deferred job whose instant has strictly passed, in
    /// canonical `(earliest, prio, seq)` order. Reservations are
    /// backdated to their (clamped) post instants, so the timeline is
    /// identical to the eager first-come order — minus the race.
    pub(crate) fn pump(&self, now: SimNs) {
        // checker-allow(lock-lifetime): defer is the serialization point
        // for the canonical (earliest, prio, seq) grant order — releasing
        // it mid-grant would let a racing pump interleave reservations.
        // The nested `cell` monitor is a per-job leaf whose mutation
        // takes nothing but the clock lock (its notify).
        simtime::note_read(self.key);
        let mut q = self.defer.lock();
        if !q.pending.iter().any(|j| j.earliest < now) {
            return;
        }
        let mut due = Vec::new();
        let mut i = 0;
        while i < q.pending.len() {
            if q.pending[i].earliest < now {
                due.push(q.pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by_key(|j| (j.earliest, j.prio, j.seq));
        for j in due {
            let r = self.link.reserve(j.bytes, j.earliest);
            j.cell.with(|g| *g = Some(r.arrival));
        }
    }
}

// ----------------------------------------------------------------------
// Checkpoint framing (crash-consistent device-state snapshots)
// ----------------------------------------------------------------------

/// Magic prefix of every checkpoint file.
pub const CKPT_MAGIC: [u8; 8] = *b"CLMPICKP";
/// Framing overhead: magic + payload length + FNV-1a checksum.
pub const CKPT_HEADER_LEN: usize = 24;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Frame `payload` as a checkpoint file: magic, length, checksum,
/// payload. [`decode_checkpoint`] rejects anything torn or corrupted.
pub fn encode_checkpoint(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(CKPT_HEADER_LEN + payload.len());
    out.extend_from_slice(&CKPT_MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate a checkpoint file and return its payload. Errors describe
/// why the file is unusable — a write torn by a node kill shows up as a
/// length mismatch; corruption as a checksum mismatch.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<&[u8], String> {
    if bytes.len() < CKPT_HEADER_LEN {
        return Err(format!(
            "checkpoint torn: {} bytes, header needs {CKPT_HEADER_LEN}",
            bytes.len()
        ));
    }
    if bytes[..8] != CKPT_MAGIC {
        return Err("checkpoint has no CLMPICKP magic".into());
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("sliced")) as usize;
    let sum = u64::from_le_bytes(bytes[16..24].try_into().expect("sliced"));
    let body = &bytes[CKPT_HEADER_LEN..];
    if body.len() != len {
        return Err(format!(
            "checkpoint torn: header promises {len} payload bytes, file holds {}",
            body.len()
        ));
    }
    if fnv1a(body) != sum {
        return Err("checkpoint checksum mismatch".into());
    }
    Ok(body)
}

impl crate::runtime::ClMpi {
    /// Write `size` bytes at `offset` of device buffer `buf` to
    /// `storage` under `path` (a checkpoint). Non-blocking: the returned
    /// event completes when the data is durable; gate subsequent commands
    /// on it (or don't, and keep computing — that is the point).
    ///
    /// Cost: device→host staging (pinned path) then the storage stream,
    /// serialized on the storage timeline.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_write_file(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        size: usize,
        storage: &SimStorage,
        path: impl Into<String>,
        wait_list: &[Event],
        _actor: &Actor,
    ) -> ClResult<Event> {
        buf.check_range(offset, size)?;
        let ue = self
            .context()
            .create_user_event(format!("write-file {size}B"));
        let event = ue.event();
        self.inner.engine.submit(Box::new(FileWriteOp {
            device: queue.device().clone(),
            buf: buf.clone(),
            offset,
            size,
            storage: storage.clone(),
            path: path.into(),
            wait: wait_list.to_vec(),
            ue,
            label: format!("clmpi-fwrite-r{}", self.rank()),
            prio: self.inner.comm.global_rank(self.inner.comm.rank()) as u64,
            state: FileState::WaitDeps,
        }));
        Ok(event)
    }

    /// Read a file from `storage` into `offset` of device buffer `buf`.
    /// The file must hold at least `size` bytes *by the time the command
    /// runs* (its wait list has completed).
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_read_file(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        size: usize,
        storage: &SimStorage,
        path: impl Into<String>,
        wait_list: &[Event],
        _actor: &Actor,
    ) -> ClResult<Event> {
        buf.check_range(offset, size)?;
        let ue = self
            .context()
            .create_user_event(format!("read-file {size}B"));
        let event = ue.event();
        self.inner.engine.submit(Box::new(FileReadOp {
            device: queue.device().clone(),
            buf: buf.clone(),
            offset,
            size,
            storage: storage.clone(),
            path: path.into(),
            wait: wait_list.to_vec(),
            ue,
            label: format!("clmpi-fread-r{}", self.rank()),
            prio: self.inner.comm.global_rank(self.inner.comm.rank()) as u64,
            state: FileState::WaitDeps,
        }));
        Ok(event)
    }

    /// `clEnqueueCheckpointBuffer`: write `size` bytes at `offset` of
    /// device buffer `buf` to `storage` under `path`, framed with a
    /// checksum ([`encode_checkpoint`]) for crash consistency. While the
    /// write is in flight the file exists *torn* (header plus a partial
    /// payload, as on a real disk); the complete framed file replaces it
    /// only at the durable instant. If this rank's node is killed inside
    /// the write window, the torn file is what survives — and
    /// [`crate::ClMpi::enqueue_restore_buffer`] rejects it — and the returned
    /// event is poisoned with `CL_MPI_TRANSFER_ERROR`.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_checkpoint_buffer(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        size: usize,
        storage: &SimStorage,
        path: impl Into<String>,
        wait_list: &[Event],
        _actor: &Actor,
    ) -> ClResult<Event> {
        buf.check_range(offset, size)?;
        let ue = self.context().create_user_event(format!("ckpt {size}B"));
        let event = ue.event();
        let ids = self.inner.new_op();
        self.inner.engine.submit(Box::new(CheckpointWriteOp {
            inner: self.inner.clone(),
            device: queue.device().clone(),
            buf: buf.clone(),
            offset,
            size,
            storage: storage.clone(),
            path: path.into(),
            wait: wait_list.to_vec(),
            ue,
            label: format!("clmpi-ckpt-r{}", self.rank()),
            ids,
            submit_ns: self.inner.clock.now_ns(),
            state: CkptState::WaitDeps,
        }));
        Ok(event)
    }

    /// `clEnqueueRestoreBuffer`: read the checkpoint at `path` from
    /// `storage`, validate its framing ([`decode_checkpoint`]), and land
    /// the `size`-byte payload at `offset` of device buffer `buf`. A
    /// missing, torn, or corrupted file — or a payload of the wrong
    /// length — poisons the event with `CL_MPI_TRANSFER_ERROR` and
    /// leaves the buffer untouched, so recovery code can probe
    /// candidate checkpoints safely. Recorded as an `op.restore` span.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_restore_buffer(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        size: usize,
        storage: &SimStorage,
        path: impl Into<String>,
        wait_list: &[Event],
        _actor: &Actor,
    ) -> ClResult<Event> {
        buf.check_range(offset, size)?;
        let ue = self.context().create_user_event(format!("restore {size}B"));
        let event = ue.event();
        let ids = self.inner.new_op();
        self.inner.engine.submit(Box::new(RestoreOp {
            inner: self.inner.clone(),
            device: queue.device().clone(),
            buf: buf.clone(),
            offset,
            size,
            storage: storage.clone(),
            path: path.into(),
            wait: wait_list.to_vec(),
            ue,
            label: format!("clmpi-restore-r{}", self.rank()),
            ids,
            submit_ns: self.inner.clock.now_ns(),
            state: RestoreState::WaitDeps,
        }));
        Ok(event)
    }
}

/// Shared shape of both file machines: wait for the dependency list,
/// post the storage reservation to the arbiter, poll for the grant,
/// then park until the terminal instant and publish the payload.
enum FileState {
    WaitDeps,
    /// Storage reservation posted; polling the arbiter for the grant.
    WaitDisk {
        cell: GrantCell,
        earliest: SimNs,
        payload: Vec<u8>,
    },
    Finish {
        at: SimNs,
        payload: Vec<u8>,
    },
    Done,
}

/// `enqueue_write_file`: device→host staging (pinned path), then the
/// storage stream; the bytes become durable — and the event completes —
/// at the storage timeline's arrival instant.
struct FileWriteOp {
    device: Device,
    buf: Buffer,
    offset: usize,
    size: usize,
    storage: SimStorage,
    path: String,
    wait: Vec<Event>,
    ue: UserEvent,
    label: String,
    prio: u64,
    state: FileState,
}

impl EngineOp for FileWriteOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn step(&mut self, now: SimNs, _actor: &Actor) -> Step {
        loop {
            if let FileState::WaitDisk {
                ref cell, earliest, ..
            } = self.state
            {
                self.storage.pump(now);
                let granted: Option<SimNs> = cell.peek(|g| *g);
                let Some(durable_at) = granted else {
                    return Step::Park(Some(now.max(earliest) + 1));
                };
                let state = std::mem::replace(&mut self.state, FileState::Done);
                let FileState::WaitDisk { payload, .. } = state else {
                    unreachable!("matched above")
                };
                self.state = FileState::Finish {
                    at: durable_at,
                    payload,
                };
            }
            match self.state {
                FileState::WaitDeps => {
                    // Like the collective prototype, this future-work
                    // command ignores dependency failures.
                    if !deps_settled(&self.wait) {
                        return Step::Park(None);
                    }
                    let pcie = self.device.spec().pcie;
                    let staged = self
                        .device
                        .d2h_link()
                        .reserve_duration(pcie.staged_ns(self.size, true), now + pcie.pin_setup_ns);
                    // Snapshot the region when staging starts: later
                    // device-side writes do not leak into the checkpoint.
                    let bytes = self
                        .buf
                        .load(self.offset, self.size)
                        .expect("range checked at enqueue");
                    let cell = self
                        .storage
                        .reserve_deferred(self.prio, self.size, staged.end);
                    self.state = FileState::WaitDisk {
                        cell,
                        earliest: staged.end,
                        payload: bytes,
                    };
                }
                FileState::WaitDisk { .. } => unreachable!("handled above"),
                FileState::Finish { at, .. } => {
                    if now < at {
                        return Step::Park(Some(at));
                    }
                    let state = std::mem::replace(&mut self.state, FileState::Done);
                    let FileState::Finish { payload, .. } = state else {
                        unreachable!("matched above")
                    };
                    self.storage.write_file(&self.path, payload);
                    self.ue.set_complete(at).expect("file write completed once");
                    return Step::Done;
                }
                FileState::Done => return Step::Done,
            }
        }
    }
}

/// `enqueue_read_file`: the storage stream, then host→device staging;
/// the event completes with the data in device memory. A missing or
/// short file is a programming error and panics (poisoning the world,
/// like any rank panic).
struct FileReadOp {
    device: Device,
    buf: Buffer,
    offset: usize,
    size: usize,
    storage: SimStorage,
    path: String,
    wait: Vec<Event>,
    ue: UserEvent,
    label: String,
    prio: u64,
    state: FileState,
}

impl EngineOp for FileReadOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn step(&mut self, now: SimNs, _actor: &Actor) -> Step {
        loop {
            if let FileState::WaitDisk {
                ref cell, earliest, ..
            } = self.state
            {
                self.storage.pump(now);
                let granted: Option<SimNs> = cell.peek(|g| *g);
                let Some(read_done) = granted else {
                    return Step::Park(Some(now.max(earliest) + 1));
                };
                let state = std::mem::replace(&mut self.state, FileState::Done);
                let FileState::WaitDisk { payload, .. } = state else {
                    unreachable!("matched above")
                };
                // The per-rank h2d link has a single driving thread, so
                // the synchronous reservation stays deterministic.
                let pcie = self.device.spec().pcie;
                let h2d = self.device.h2d_link().reserve_duration(
                    pcie.staged_ns(self.size, true),
                    read_done + pcie.pin_setup_ns,
                );
                self.state = FileState::Finish {
                    at: h2d.end,
                    payload,
                };
            }
            match self.state {
                FileState::WaitDeps => {
                    if !deps_settled(&self.wait) {
                        return Step::Park(None);
                    }
                    let path = &self.path;
                    // Snapshot the file when the read starts (the old
                    // behavior): later writes do not leak into it.
                    let data = self
                        .storage
                        .read_file(path)
                        .unwrap_or_else(|| panic!("enqueue_read_file: no file '{path}'"));
                    assert!(
                        data.len() >= self.size,
                        "file '{path}' holds {} bytes, {} requested",
                        data.len(),
                        self.size
                    );
                    let cell = self.storage.reserve_deferred(self.prio, self.size, now);
                    self.state = FileState::WaitDisk {
                        cell,
                        earliest: now,
                        payload: data,
                    };
                }
                FileState::WaitDisk { .. } => unreachable!("handled above"),
                FileState::Finish { at, .. } => {
                    if now < at {
                        return Step::Park(Some(at));
                    }
                    let state = std::mem::replace(&mut self.state, FileState::Done);
                    let FileState::Finish { payload, .. } = state else {
                        unreachable!("matched above")
                    };
                    self.buf
                        .store(self.offset, &payload[..self.size])
                        .expect("range checked");
                    self.ue.set_complete(at).expect("file read completed once");
                    return Step::Done;
                }
                FileState::Done => return Step::Done,
            }
        }
    }
}

enum CkptState {
    WaitDeps,
    /// Storage reservation posted (torn file already on disk); polling
    /// the arbiter for the durable instant.
    WaitDisk {
        cell: GrantCell,
        write_start: SimNs,
        full: Vec<u8>,
    },
    /// Write in flight: a torn file is already on disk; the complete
    /// framed file replaces it at `at` unless the node dies first.
    Finish {
        at: SimNs,
        write_start: SimNs,
        full: Vec<u8>,
    },
    Done,
}

/// `clEnqueueCheckpointBuffer`: the [`FileWriteOp`] pipeline plus
/// checkpoint framing and crash consistency. The torn intermediate file
/// is published when the storage write begins; a node kill inside
/// `[write_start, durable)` leaves it there and poisons the event.
struct CheckpointWriteOp {
    inner: Arc<Inner>,
    device: Device,
    buf: Buffer,
    offset: usize,
    size: usize,
    storage: SimStorage,
    path: String,
    wait: Vec<Event>,
    ue: UserEvent,
    label: String,
    ids: ChildIds,
    submit_ns: SimNs,
    state: CkptState,
}

impl EngineOp for CheckpointWriteOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn step(&mut self, now: SimNs, _actor: &Actor) -> Step {
        loop {
            if let CkptState::WaitDisk {
                ref cell,
                write_start,
                ..
            } = self.state
            {
                self.storage.pump(now);
                let granted: Option<SimNs> = cell.peek(|g| *g);
                let Some(durable_at) = granted else {
                    return Step::Park(Some(now.max(write_start) + 1));
                };
                let state = std::mem::replace(&mut self.state, CkptState::Done);
                let CkptState::WaitDisk { full, .. } = state else {
                    unreachable!("matched above")
                };
                self.state = CkptState::Finish {
                    at: durable_at,
                    write_start,
                    full,
                };
            }
            match self.state {
                CkptState::WaitDeps => {
                    if !deps_settled(&self.wait) {
                        return Step::Park(None);
                    }
                    let pcie = self.device.spec().pcie;
                    let staged = self
                        .device
                        .d2h_link()
                        .reserve_duration(pcie.staged_ns(self.size, true), now + pcie.pin_setup_ns);
                    // Snapshot the region when staging starts, as
                    // `enqueue_write_file` does.
                    let payload = self
                        .buf
                        .load(self.offset, self.size)
                        .expect("range checked at enqueue");
                    let full = encode_checkpoint(&payload);
                    let prio = self.inner.comm.global_rank(self.inner.comm.rank()) as u64;
                    let cell = self.storage.reserve_deferred(prio, full.len(), staged.end);
                    // The file exists — torn — from the moment the
                    // storage write begins, like a file growing on a
                    // real disk. Header plus half the payload: enough
                    // for restore to see the promise it cannot keep.
                    let torn =
                        full[..CKPT_HEADER_LEN + (full.len() - CKPT_HEADER_LEN) / 2].to_vec();
                    self.storage.write_file(&self.path, torn);
                    self.state = CkptState::WaitDisk {
                        cell,
                        write_start: staged.end,
                        full,
                    };
                }
                CkptState::WaitDisk { .. } => unreachable!("handled above"),
                CkptState::Finish {
                    at, write_start, ..
                } => {
                    if now < at {
                        return Step::Park(Some(at));
                    }
                    let state = std::mem::replace(&mut self.state, CkptState::Done);
                    let CkptState::Finish { full, .. } = state else {
                        unreachable!("matched above")
                    };
                    let me = self.inner.comm.global_rank(self.inner.comm.rank());
                    if self.inner.comm.world().node_down_in(me, write_start, at) {
                        // Killed mid-write: the torn file is what the
                        // survivors find on the shared storage.
                        record_envelope(
                            &self.inner,
                            &self.ids,
                            "op.ckpt",
                            format!("ckpt torn {}", self.path),
                            self.submit_ns,
                            at,
                            self.size as u64,
                            false,
                            None,
                            None,
                        );
                        self.inner.note_settled(false, 0, 0);
                        self.ue
                            .set_failed(at, CL_MPI_TRANSFER_ERROR)
                            .expect("ckpt event settled once");
                        return Step::Done;
                    }
                    self.storage.write_file(&self.path, full);
                    record_envelope(
                        &self.inner,
                        &self.ids,
                        "op.ckpt",
                        format!("ckpt {}", self.path),
                        self.submit_ns,
                        at,
                        self.size as u64,
                        true,
                        None,
                        None,
                    );
                    self.inner.note_settled(true, 0, 0);
                    self.ue.set_complete(at).expect("ckpt event completed once");
                    return Step::Done;
                }
                CkptState::Done => return Step::Done,
            }
        }
    }
}

enum RestoreState {
    WaitDeps,
    /// Storage read (or missing-file probe, `data == None`) posted to
    /// the arbiter; polling for the grant.
    WaitDisk {
        cell: GrantCell,
        earliest: SimNs,
        data: Option<Vec<u8>>,
    },
    /// Validated: the payload lands in device memory at `at`.
    Land {
        at: SimNs,
        payload: Vec<u8>,
    },
    /// Rejected (missing/torn/corrupt/mis-sized): poison at `at`.
    Fail {
        at: SimNs,
        why: String,
    },
    Done,
}

/// `clEnqueueRestoreBuffer`: storage stream, framing validation, then
/// host→device staging. Every rejection settles the event as failed —
/// never a panic — so recovery code can probe candidate checkpoints.
struct RestoreOp {
    inner: Arc<Inner>,
    device: Device,
    buf: Buffer,
    offset: usize,
    size: usize,
    storage: SimStorage,
    path: String,
    wait: Vec<Event>,
    ue: UserEvent,
    label: String,
    ids: ChildIds,
    submit_ns: SimNs,
    state: RestoreState,
}

impl RestoreOp {
    fn settle(&mut self, ok: bool, name: String, at: SimNs) -> Step {
        record_envelope(
            &self.inner,
            &self.ids,
            "op.restore",
            name,
            self.submit_ns,
            at,
            self.size as u64,
            ok,
            None,
            None,
        );
        self.inner.note_settled(ok, 0, 0);
        if ok {
            self.ue
                .set_complete(at)
                .expect("restore event completed once");
        } else {
            self.ue
                .set_failed(at, CL_MPI_TRANSFER_ERROR)
                .expect("restore event settled once");
        }
        self.state = RestoreState::Done;
        Step::Done
    }
}

impl EngineOp for RestoreOp {
    fn label(&self) -> &str {
        &self.label
    }

    fn step(&mut self, now: SimNs, _actor: &Actor) -> Step {
        loop {
            if let RestoreState::WaitDisk {
                ref cell, earliest, ..
            } = self.state
            {
                self.storage.pump(now);
                let granted: Option<SimNs> = cell.peek(|g| *g);
                let Some(read_done) = granted else {
                    return Step::Park(Some(now.max(earliest) + 1));
                };
                let state = std::mem::replace(&mut self.state, RestoreState::Done);
                let RestoreState::WaitDisk { data, .. } = state else {
                    unreachable!("matched above")
                };
                let Some(data) = data else {
                    // The probe came back empty; it still paid the
                    // access latency.
                    self.state = RestoreState::Fail {
                        at: read_done,
                        why: format!("no file '{}'", self.path),
                    };
                    continue;
                };
                let verdict = match decode_checkpoint(&data) {
                    Err(why) => Err(why),
                    Ok(p) if p.len() != self.size => Err(format!(
                        "payload holds {} bytes, {} requested",
                        p.len(),
                        self.size
                    )),
                    Ok(p) => Ok(p.to_vec()),
                };
                match verdict {
                    Err(why) => self.state = RestoreState::Fail { at: read_done, why },
                    Ok(payload) => {
                        let pcie = self.device.spec().pcie;
                        let h2d = self.device.h2d_link().reserve_duration(
                            pcie.staged_ns(self.size, true),
                            read_done + pcie.pin_setup_ns,
                        );
                        self.state = RestoreState::Land {
                            at: h2d.end,
                            payload,
                        };
                    }
                }
            }
            match self.state {
                RestoreState::WaitDeps => {
                    if !deps_settled(&self.wait) {
                        return Step::Park(None);
                    }
                    // Snapshot the file when the read starts; a missing
                    // file still pays the access latency before the
                    // probe fails.
                    let data = self.storage.read_file(&self.path);
                    let bytes = data.as_ref().map_or(0, Vec::len);
                    let prio = self.inner.comm.global_rank(self.inner.comm.rank()) as u64;
                    let cell = self.storage.reserve_deferred(prio, bytes, now);
                    self.state = RestoreState::WaitDisk {
                        cell,
                        earliest: now,
                        data,
                    };
                }
                RestoreState::WaitDisk { .. } => unreachable!("handled above"),
                RestoreState::Land { at, .. } => {
                    if now < at {
                        return Step::Park(Some(at));
                    }
                    let state = std::mem::replace(&mut self.state, RestoreState::Done);
                    let RestoreState::Land { payload, .. } = state else {
                        unreachable!("matched above")
                    };
                    self.buf
                        .store(self.offset, &payload)
                        .expect("range checked at enqueue");
                    return self.settle(true, format!("restore {}", self.path), at);
                }
                RestoreState::Fail { at, .. } => {
                    if now < at {
                        return Step::Park(Some(at));
                    }
                    let state = std::mem::replace(&mut self.state, RestoreState::Done);
                    let RestoreState::Fail { why, .. } = state else {
                        unreachable!("matched above")
                    };
                    return self.settle(false, format!("restore {}: {why}", self.path), at);
                }
                RestoreState::Done => return Step::Done,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;
    use minimpi::run_world_sized;

    #[test]
    fn checkpoint_roundtrip_through_storage() {
        run_world_sized(SystemConfig::ricc().cluster.clone(), 1, |p| {
            let rt = crate::ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, "q");
            let storage = SimStorage::node_local_disk(p.clock().clone());
            let a = rt.context().create_buffer(1 << 20);
            let b = rt.context().create_buffer(1 << 20);
            a.store(0, &vec![42u8; 1 << 20]).expect("store in range");
            let ew = rt
                .enqueue_write_file(&q, &a, 0, 1 << 20, &storage, "ckpt.bin", &[], &p.actor)
                .expect("enqueue accepted");
            let er = rt
                .enqueue_read_file(&q, &b, 0, 1 << 20, &storage, "ckpt.bin", &[ew], &p.actor)
                .expect("enqueue accepted");
            er.wait(&p.actor);
            assert_eq!(
                b.load(0, 1 << 20).expect("load in range"),
                vec![42u8; 1 << 20]
            );
            assert_eq!(storage.file_len("ckpt.bin"), Some(1 << 20));
            rt.shutdown(&p.actor);
        });
    }

    #[test]
    fn checkpoint_overlaps_computation() {
        run_world_sized(SystemConfig::ricc().cluster.clone(), 1, |p| {
            let rt = crate::ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, "q");
            let storage = SimStorage::node_local_disk(p.clock().clone());
            let buf = rt.context().create_buffer(8 << 20);
            // 8 MiB at ~200 MB/s ≈ 40 ms of storage time…
            let ew = rt
                .enqueue_write_file(&q, &buf, 0, 8 << 20, &storage, "c", &[], &p.actor)
                .expect("enqueue accepted");
            // …hidden under 50 ms of computation on the same device.
            let ek = q.enqueue_kernel("compute", 50_000_000, &[], || {});
            ek.wait(&p.actor);
            ew.wait(&p.actor);
            assert!(
                p.actor.now_ns() < 60_000_000,
                "checkpoint hidden under compute: {}",
                p.actor.now_ns()
            );
            rt.shutdown(&p.actor);
        });
    }

    #[test]
    fn storage_operations_serialize_on_the_device() {
        let clock = SimClock::new();
        let s = SimStorage::node_local_disk(clock);
        let a = s.reserve(1 << 20, 0);
        let b = s.reserve(1 << 20, 0);
        assert!(b > a, "second op queues behind the first");
    }

    #[test]
    fn checkpoint_restore_roundtrip_validates_framing() {
        run_world_sized(SystemConfig::ricc().cluster.clone(), 1, |p| {
            let rt = crate::ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, "q");
            let storage = SimStorage::node_local_disk(p.clock().clone());
            let a = rt.context().create_buffer(1 << 16);
            let b = rt.context().create_buffer(1 << 16);
            let data: Vec<u8> = (0..1 << 16).map(|i| (i % 251) as u8).collect();
            a.store(0, &data).expect("store in range");
            let ew = rt
                .enqueue_checkpoint_buffer(&q, &a, 0, 1 << 16, &storage, "ck", &[], &p.actor)
                .expect("enqueue accepted");
            let er = rt
                .enqueue_restore_buffer(&q, &b, 0, 1 << 16, &storage, "ck", &[ew], &p.actor)
                .expect("enqueue accepted");
            er.wait_result(&p.actor).expect("restore validates");
            assert_eq!(b.load(0, 1 << 16).expect("load in range"), data);
            // The file carries the framing header on top of the payload.
            assert_eq!(storage.file_len("ck"), Some((1 << 16) + CKPT_HEADER_LEN));
            let file = storage.read_file("ck").expect("file durable");
            assert_eq!(decode_checkpoint(&file).expect("valid"), &data[..]);
            rt.shutdown(&p.actor);
        });
    }

    #[test]
    fn restore_rejects_torn_and_missing_files_without_touching_the_buffer() {
        run_world_sized(SystemConfig::ricc().cluster.clone(), 1, |p| {
            let rt = crate::ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, "q");
            let storage = SimStorage::node_local_disk(p.clock().clone());
            let buf = rt.context().create_buffer(1024);
            buf.store(0, &[7u8; 1024]).expect("store in range");
            // A torn file: valid header, truncated payload.
            let full = encode_checkpoint(&[1u8; 1024]);
            storage.write_file("torn", full[..full.len() / 2].to_vec());
            let e = rt
                .enqueue_restore_buffer(&q, &buf, 0, 1024, &storage, "torn", &[], &p.actor)
                .expect("enqueue accepted");
            let err = e.wait_result(&p.actor).expect_err("torn file rejected");
            assert!(format!("{err:?}").contains(&CL_MPI_TRANSFER_ERROR.to_string()));
            // Missing file: same failure mode, no panic.
            let e2 = rt
                .enqueue_restore_buffer(&q, &buf, 0, 1024, &storage, "nope", &[], &p.actor)
                .expect("enqueue accepted");
            e2.wait_result(&p.actor).expect_err("missing file rejected");
            // The buffer kept its prior contents through both rejections.
            assert_eq!(buf.load(0, 1024).expect("load in range"), vec![7u8; 1024]);
            rt.shutdown(&p.actor);
        });
    }

    #[test]
    fn kill_mid_write_leaves_a_torn_file_that_restore_rejects() {
        use minimpi::{run_world_faulty, FaultPlan};
        // 4 MiB at ~200 MB/s streams for ~20 ms; the node dies at 5 ms,
        // squarely inside the write window.
        let plan = FaultPlan::none().with_node_down(0, 5_000_000);
        run_world_faulty(SystemConfig::ricc().cluster.clone(), 1, plan, |p| {
            let rt = crate::ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, "q");
            let storage = SimStorage::node_local_disk(p.clock().clone());
            let buf = rt.context().create_buffer(4 << 20);
            buf.store(0, &vec![9u8; 4 << 20]).expect("store in range");
            let ew = rt
                .enqueue_checkpoint_buffer(&q, &buf, 0, 4 << 20, &storage, "ck", &[], &p.actor)
                .expect("enqueue accepted");
            ew.wait_result(&p.actor)
                .expect_err("mid-write kill poisons the checkpoint event");
            // What survives on storage is the torn intermediate file…
            let file = storage.read_file("ck").expect("torn file present");
            decode_checkpoint(&file).expect_err("torn file detected");
            // …and restore refuses to use it.
            let er = rt
                .enqueue_restore_buffer(&q, &buf, 0, 4 << 20, &storage, "ck", &[], &p.actor)
                .expect("enqueue accepted");
            er.wait_result(&p.actor).expect_err("restore rejects torn");
            rt.shutdown(&p.actor);
        });
    }

    #[test]
    #[should_panic(expected = "clock poisoned by a panicking actor")]
    fn reading_missing_file_fails() {
        run_world_sized(SystemConfig::ricc().cluster.clone(), 1, |p| {
            let rt = crate::ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, "q");
            let storage = SimStorage::node_local_disk(p.clock().clone());
            let buf = rt.context().create_buffer(64);
            let e = rt
                .enqueue_read_file(&q, &buf, 0, 64, &storage, "nope", &[], &p.actor)
                .expect("enqueue accepted");
            e.wait(&p.actor);
            rt.shutdown(&p.actor);
        });
    }
}
