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

use minicl::{Buffer, ClError, ClResult, CommandQueue, Device, Event};
use simnet::{DeferredArbiter, Link, LinkSpec};
use simtime::plock::Mutex;
use simtime::{note_wake_at, until, Actor, Monitor, SimClock, SimNs};

use crate::engine::{load, store, Envelope, Hop, OpBody, OpCx, OpSpec, Outcome};
use crate::obs::fnv1a;

/// A simulated node-local storage device: an in-memory "filesystem" plus
/// a serialized bandwidth/latency timeline (one head, like a real disk or
/// a shared SSD namespace).
#[derive(Clone)]
pub struct SimStorage {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
    clock: SimClock,
    /// Several ranks share one storage device (the shared-PFS model), and
    /// their engine threads hit the timeline at the same virtual instant;
    /// granting in real call order would leak host scheduling into virtual
    /// time. Same-instant posters sort by global rank (unique per shared
    /// storage); a job is the byte count and the cell its grant fills.
    defer: Arc<DeferredArbiter<u64, (usize, GrantCell)>>,
}

/// Where a deferred reservation's arrival instant lands once granted. A
/// `Monitor`, so the grant the clock makes wakes the op that owns the
/// cell.
type GrantCell = Arc<Monitor<Option<SimNs>>>;

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
        let link = Link::new(clock.clone(), spec);
        // Reservations are backdated to their (clamped) post instants, so
        // the timeline is identical to the eager first-come order — minus
        // the race.
        let grant = move |earliest, _prio, (bytes, cell): (usize, GrantCell)| {
            let r = link.reserve(bytes, earliest);
            cell.with(|g| *g = Some(r.arrival));
        };
        SimStorage {
            files: Arc::new(Mutex::new(BTreeMap::new())),
            defer: DeferredArbiter::new(clock.clone(), grant),
            clock,
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

    /// Post a reservation to the deferred arbiter. The returned cell is
    /// filled with the arrival instant once the clock has passed
    /// `earliest` and granted the job, in canonical `(earliest, prio,
    /// seq)` order. `prio` breaks same-instant ties canonically (pass the
    /// poster's global rank).
    pub(crate) fn reserve_deferred(&self, prio: u64, bytes: usize, earliest: SimNs) -> GrantCell {
        let cell = Arc::new(Monitor::new(self.clock.clone(), None));
        self.defer.post(earliest, prio, (bytes, cell.clone()));
        cell
    }
}

// ----------------------------------------------------------------------
// Checkpoint framing (crash-consistent device-state snapshots)
// ----------------------------------------------------------------------

/// Magic prefix of every checkpoint file.
pub const CKPT_MAGIC: [u8; 8] = *b"CLMPICKP";
/// Framing overhead: magic + payload length + FNV-1a checksum.
pub const CKPT_HEADER_LEN: usize = 24;

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
        let body = FileStoreBody {
            device: queue.device().clone(),
            buf: buf.clone(),
            offset,
            size,
            storage: storage.clone(),
            path: path.into(),
            framed: false,
        };
        Ok(self.submit_file(format!("write-file {size}B"), None, wait_list, body))
    }

    /// Read a file from `storage` into `offset` of device buffer `buf`.
    /// The file must hold at least `size` bytes *by the time the command
    /// runs* (its wait list has completed); a missing or short file pays
    /// the storage access and fails the event with
    /// `CL_MPI_TRANSFER_ERROR`, leaving the buffer untouched.
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
        let body = FileLoadBody {
            device: queue.device().clone(),
            buf: buf.clone(),
            offset,
            size,
            storage: storage.clone(),
            path: path.into(),
            framed: false,
        };
        Ok(self.submit_file(format!("read-file {size}B"), None, wait_list, body))
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
        let path = path.into();
        let env = Envelope {
            bytes: size as u64,
            ..Envelope::new("op.ckpt", format!("ckpt {path}"), None)
        };
        let body = FileStoreBody {
            device: queue.device().clone(),
            buf: buf.clone(),
            offset,
            size,
            storage: storage.clone(),
            path,
            framed: true,
        };
        Ok(self.submit_file(format!("ckpt {size}B"), Some(env), wait_list, body))
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
        let path = path.into();
        let env = Envelope {
            bytes: size as u64,
            ..Envelope::new("op.restore", format!("restore {path}"), None)
        };
        let body = FileLoadBody {
            device: queue.device().clone(),
            buf: buf.clone(),
            offset,
            size,
            storage: storage.clone(),
            path,
            framed: true,
        };
        Ok(self.submit_file(format!("restore {size}B"), Some(env), wait_list, body))
    }

    /// The four file commands share an irregular gate: their wait list
    /// only orders them — a failed dependency is ignored, as this
    /// future-work prototype always did. `env` is `None` for the two
    /// unframed commands, which are also untraced (no envelope, no
    /// counters).
    fn submit_file(
        &self,
        event: String,
        env: Option<Envelope>,
        wait: &[Event],
        body: impl OpBody,
    ) -> Event {
        let spec = OpSpec {
            event,
            wait,
            poison: false,
            env,
            result: None,
        };
        spec.submit(&self.inner, body)
    }
}

/// A storage reservation posted to the arbiter and not granted yet.
struct DiskWait {
    cell: GrantCell,
    earliest: SimNs,
}

impl DiskWait {
    /// Post `bytes` bytes of storage time from `earliest` on behalf of
    /// the rank behind `cx`.
    fn post(storage: &SimStorage, cx: &OpCx, bytes: usize, earliest: SimNs) -> Self {
        let prio = cx.inner.comm.global_rank(cx.inner.comm.rank()) as u64;
        DiskWait {
            cell: storage.reserve_deferred(prio, bytes, earliest),
            earliest,
        }
    }

    /// The reservation's arrival instant, once granted. The grant comes
    /// one tick after the clamped post instant.
    async fn granted(&self, cx: &OpCx) -> SimNs {
        until(|| {
            let granted = self.cell.peek(|g| *g);
            if granted.is_none() {
                note_wake_at(cx.now().max(self.earliest) + 1);
            }
            granted
        })
        .await
    }
}

/// `enqueue_write_file` and, `framed`, `clEnqueueCheckpointBuffer`:
/// device→host staging (pinned path), then the storage stream; the bytes
/// become durable — and the event completes — at the storage timeline's
/// arrival instant.
///
/// Framed, the file carries the checkpoint header and is crash
/// consistent: the torn intermediate file is published when the storage
/// write begins, and a node kill inside `[write_start, durable)` leaves
/// it there and poisons the event.
struct FileStoreBody {
    device: Device,
    buf: Buffer,
    offset: usize,
    size: usize,
    storage: SimStorage,
    path: String,
    framed: bool,
}

impl OpBody for FileStoreBody {
    async fn run(self, cx: &mut OpCx) -> Outcome {
        let pcie = self.device.spec().pcie;
        let cost = pcie.staged_ns(self.size, true);
        let staged = Hop::D2h.reserve(&self.device, cost, cx.now() + pcie.pin_setup_ns);
        // Snapshot the region when staging starts: later device-side
        // writes do not leak into the file.
        let payload = load(&self.buf, self.offset, self.size);
        let file = if self.framed {
            encode_checkpoint(&payload)
        } else {
            payload
        };
        let wait = DiskWait::post(&self.storage, cx, file.len(), staged.1);
        if self.framed {
            // The file exists — torn — from the moment the storage write
            // begins, like a file growing on a real disk. Header plus half
            // the payload: enough for restore to see the promise it cannot
            // keep.
            let torn = CKPT_HEADER_LEN + (file.len() - CKPT_HEADER_LEN) / 2;
            self.storage.write_file(&self.path, file[..torn].to_vec());
        }
        // Granted: the write is in flight until `at`.
        let at = wait.granted(cx).await;
        cx.inner.clock.sleep_until(at).await;
        let me = cx.inner.comm.global_rank(cx.inner.comm.rank());
        if self.framed && cx.inner.comm.world().node_down_in(me, wait.earliest, at) {
            // Killed mid-write: the torn file is what the survivors find
            // on the shared storage.
            let why = format!("ckpt torn {}", self.path);
            if let Some(env) = cx.env_mut() {
                env.name = why.clone();
            }
            return Err((ClError::TransferFailed(why), at));
        }
        self.storage.write_file(&self.path, file);
        Ok(at)
    }
}

/// `enqueue_read_file` and, `framed`, `clEnqueueRestoreBuffer`: the
/// storage stream, validation, then host→device staging; the event
/// completes with the data in device memory. Every rejection — missing,
/// short, torn, corrupt or mis-sized — pays the storage access and
/// settles the event as failed, never a panic, so recovery code can
/// probe candidate files.
struct FileLoadBody {
    device: Device,
    buf: Buffer,
    offset: usize,
    size: usize,
    storage: SimStorage,
    path: String,
    /// Is the file a checkpoint ([`decode_checkpoint`]) whose payload must
    /// be exactly `size` bytes, or raw bytes of which the first `size`
    /// are wanted?
    framed: bool,
}

impl FileLoadBody {
    /// The `size` payload bytes of the file, or why it is unusable.
    fn validate(&self, data: Option<Vec<u8>>) -> Result<Vec<u8>, String> {
        let mut data = data.ok_or_else(|| format!("no file '{}'", self.path))?;
        if self.framed {
            let payload = decode_checkpoint(&data)?;
            return if payload.len() == self.size {
                Ok(payload.to_vec())
            } else {
                Err(format!(
                    "payload holds {} bytes, {} requested",
                    payload.len(),
                    self.size
                ))
            };
        }
        if data.len() < self.size {
            return Err(format!(
                "file holds {} bytes, {} requested",
                data.len(),
                self.size
            ));
        }
        data.truncate(self.size);
        Ok(data)
    }
}

impl OpBody for FileLoadBody {
    async fn run(self, cx: &mut OpCx) -> Outcome {
        // Snapshot the file when the read starts: later writes do not
        // leak into it. A checkpoint streams whole; a raw read streams the
        // bytes asked for — or what there is of them: a missing file still
        // pays the access latency before the probe fails.
        let data = self.storage.read_file(&self.path);
        let len = data.as_ref().map_or(0, Vec::len);
        let bytes = if self.framed { len } else { len.min(self.size) };
        let wait = DiskWait::post(&self.storage, cx, bytes, cx.now());
        let read_done = wait.granted(cx).await;
        match self.validate(data) {
            Err(why) => {
                // Rejected: the failure waits out the read it paid for.
                cx.inner.clock.sleep_until(read_done).await;
                if let Some(env) = cx.env_mut() {
                    env.name = format!("{}: {why}", env.name);
                }
                Err((
                    ClError::TransferFailed(format!("{}: {why}", self.path)),
                    read_done,
                ))
            }
            Ok(payload) => {
                // The per-rank h2d link has a single driving engine, so
                // the synchronous reservation stays deterministic.
                let pcie = self.device.spec().pcie;
                let cost = pcie.staged_ns(self.size, true);
                let h2d = Hop::H2d.reserve(&self.device, cost, read_done + pcie.pin_setup_ns);
                cx.inner.clock.sleep_until(h2d.1).await;
                store(&self.buf, self.offset, &payload);
                Ok(h2d.1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;
    use minicl::{CL_MPI_TRANSFER_ERROR, EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST};
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
                b.load(0, 1 << 20).expect("load in range").as_slice(),
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
        let s = SimStorage::node_local_disk(SimClock::new());
        let b = s.reserve_deferred(1, 1 << 20, 0);
        let a = s.reserve_deferred(0, 1 << 20, 0);
        s.defer.pump(1); // what the clock does once it passes t=0
        let (a, b) = (a.peek(|g| *g), b.peek(|g| *g));
        assert!(a.is_some() && b > a, "second op queues behind the first");
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
            assert_eq!(b.load(0, 1 << 16).expect("load in range").as_slice(), data);
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
            assert_eq!(
                buf.load(0, 1024).expect("load in range").as_slice(),
                vec![7u8; 1024]
            );
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

    /// A missing or short file fails the read the way a bad checkpoint
    /// fails a restore: the probe pays the storage access, the event
    /// settles −1100, a dependant gets −14, the buffer is untouched and
    /// the world finishes.
    #[test]
    fn reading_missing_file_fails() {
        run_world_sized(SystemConfig::ricc().cluster.clone(), 1, |p| {
            let rt = crate::ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, "q");
            let storage = SimStorage::node_local_disk(p.clock().clone());
            storage.write_file("short", vec![1u8; 63]);
            let buf = rt.context().create_buffer(64);
            buf.store(0, &[7u8; 64]).expect("store in range");
            for path in ["nope", "short"] {
                let t0 = p.actor.now_ns();
                let e = rt
                    .enqueue_read_file(&q, &buf, 0, 64, &storage, path, &[], &p.actor)
                    .expect("enqueue accepted");
                let dep = q.enqueue_kernel("after-read", 1_000, std::slice::from_ref(&e), || {});
                dep.wait(&p.actor);
                assert_eq!(e.error_code(), Some(CL_MPI_TRANSFER_ERROR), "{path}");
                assert_eq!(
                    dep.error_code(),
                    Some(EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST),
                    "{path}: dependant poisoned"
                );
                let now = p.actor.now_ns();
                assert!(
                    now >= t0 + 4_000_000,
                    "{path}: the probe paid the 4 ms access ({t0} → {now})"
                );
            }
            assert_eq!(
                buf.load(0, 64).expect("load in range").as_slice(),
                vec![7u8; 64]
            );
            rt.shutdown(&p.actor);
        });
    }
}
