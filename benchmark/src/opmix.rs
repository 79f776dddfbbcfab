//! The `op_mix_*` workloads: a seeded schedule of small operations over
//! the whole `clmpi` surface, run as one SPMD program on two CXL pods.
//!
//! Every rank derives nothing: the harness generates one global schedule
//! from `--seed` and each rank walks it, enqueueing the commands that
//! name it. A rank only ever blocks on events of earlier steps, so the
//! program cannot deadlock whatever the schedule. Every payload is a
//! pattern keyed by its step, and every receiver checks what landed.

use std::sync::Arc;

use clmpi::{ClMpi, ObsSummary, PackMode, ReduceOp, RetryPolicy, SimStorage, SystemConfig};
use minicl::{Buffer, CommandQueue, Event, HostBuffer};
use minimpi::{run_world_faulty, CommittedType, DerivedType, FaultPlan, Process, Tag, WorldResult};
use simtime::XorShift64;

use crate::spans;

/// Ranks of the world: two pods of four on `cxl_pod`, so loopback-free
/// traffic routes over both the CXL pool ports and the inter-pod NIC.
pub const WORLD: usize = 8;
/// One-sided access epochs per repetition and ops per epoch.
const EPOCHS: usize = 4;
const EPOCH_OPS: usize = 7;
/// Per-rank device arena that two-sided, collective and file payloads
/// are carved from; a `Sync` step recycles it.
const ARENA: usize = 4 << 20;
/// Steps between two `Sync` steps, at most.
const SEGMENT_STEPS: usize = 16;

// Window layout of every rank, then the origin-side scratch that one-sided
// commands read from and land in (they address the window's own buffer).
const WIN_STATIC: usize = 16 << 10; // seeded once, only ever read by gets
const WIN_ACC: usize = 16 << 10; // f64 zeros, only ever accumulated into
const WIN_PUT: usize = 256 << 10; // each put lands in a slice of its own
const WIN: usize = WIN_STATIC + WIN_ACC + WIN_PUT;
const SCRATCH: usize = 256 << 10;

/// Drop probability and jitter of the lossy variant, and the attempt
/// budget that keeps every chunk's loss odds (`p^attempts`) negligible
/// at any seed.
const LOSSY_DROP_P: f64 = 0.08;
const LOSSY_JITTER_NS: u64 = 20_000;
const LOSSY_ATTEMPTS: u32 = 8;

const PACK_MODES: [PackMode; 3] = [
    PackMode::HostPack,
    PackMode::DevicePack,
    PackMode::PipelinedPack,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmaKind {
    Put,
    Get,
    Accumulate,
}

#[derive(Debug, Clone, PartialEq)]
pub struct RmaOp {
    pub origin: usize,
    pub target: usize,
    pub kind: RmaKind,
    pub size: usize,
    /// Offset of the origin-side bytes in the origin's scratch.
    pub off: usize,
    /// Offset in the target's window.
    pub win_off: usize,
    pub chain: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// `enqueue_send_buffer` at `src`, `enqueue_recv_buffer` at `dst`.
    P2p {
        src: usize,
        dst: usize,
        size: usize,
        src_off: usize,
        dst_off: usize,
        chain: bool,
    },
    /// `enqueue_send_datatype` / `enqueue_recv_datatype` of a `Vector`.
    Datatype {
        src: usize,
        dst: usize,
        count: usize,
        blocklen: usize,
        mode: usize,
        src_off: usize,
        dst_off: usize,
        chain: bool,
    },
    /// One access epoch: the ops, then `enqueue_win_fence` on every rank.
    Epoch { ops: Vec<RmaOp> },
    Bcast {
        root: usize,
        size: usize,
        off: usize,
        chain: bool,
    },
    Allreduce {
        count: usize,
        off: usize,
        chain: bool,
    },
    /// Host-memory message: `isend_cl`/`irecv_cl`, or a plain
    /// `isend`/`irecv` pair wrapped by `event_from_request`.
    HostMsg {
        src: usize,
        dst: usize,
        size: usize,
        wrapped: bool,
    },
    /// `enqueue_write_file` then `enqueue_read_file`, or — `framed` —
    /// `enqueue_checkpoint_buffer` then `enqueue_restore_buffer`, the
    /// second command gated on the first.
    File {
        rank: usize,
        size: usize,
        off: usize,
        back_off: usize,
        framed: bool,
        chain: bool,
    },
    /// Every rank waits for and checks what it has outstanding.
    Sync,
}

impl Step {
    /// Commands this step enqueues, summed over ranks.
    pub fn commands(&self) -> u64 {
        match self {
            Step::P2p { .. } | Step::Datatype { .. } | Step::HostMsg { .. } | Step::File { .. } => {
                2
            }
            Step::Epoch { ops } => (ops.len() + WORLD) as u64,
            Step::Bcast { .. } | Step::Allreduce { .. } => WORLD as u64,
            Step::Sync => 0,
        }
    }
}

/// One generated program: the schedule every rank walks.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub steps: Vec<Step>,
    /// Commands per repetition (the workload's op count).
    pub commands: u64,
    /// Mixed into every payload pattern.
    seed: u64,
    /// Final contents of every rank's accumulate region.
    acc_expected: Vec<Vec<f64>>,
    /// Self-test only: the receiver of this step expects a payload
    /// nobody sends.
    corrupt_step: Option<usize>,
}

fn round8(n: usize) -> usize {
    n & !7
}

/// Point `k` of `n` on the log-uniform grid over `[lo, hi]`, a multiple
/// of 8.
fn log_grid(lo: usize, hi: usize, k: usize, n: usize) -> usize {
    let x = lo as f64 * (hi as f64 / lo as f64).powf(k as f64 / (n - 1) as f64);
    round8(x.round() as usize).clamp(lo, hi)
}

/// What a step costs, fixed for every seed; [`Program::generate`] adds
/// the seeded part (order, peers, offsets).
enum Shape {
    P2p(usize),
    Datatype {
        packed: usize,
        blocklen: usize,
        mode: usize,
    },
    Epoch,
    Collective {
        size: usize,
        bcast: bool,
    },
    HostMsg {
        size: usize,
        wrapped: bool,
    },
    File {
        size: usize,
        framed: bool,
    },
}

/// Two distinct ranks.
fn pair(rng: &mut XorShift64) -> (usize, usize) {
    let src = rng.gen_range_usize(0, WORLD);
    let dst = (src + rng.gen_range_usize(1, WORLD)) % WORLD;
    (src, dst)
}

fn acc_value(i: usize) -> f64 {
    (i % 7) as f64
}

const ALLREDUCE_PERIOD: usize = 5;

fn allreduce_contrib(rank: usize, i: usize) -> f64 {
    ((rank + i) % ALLREDUCE_PERIOD) as f64
}

/// Bump allocator over each rank's arena, reset by `Sync`.
struct Arenas {
    next: [usize; WORLD],
    steps_in_segment: usize,
}

impl Arenas {
    fn fits(&self, needs: &[(usize, usize)]) -> bool {
        self.steps_in_segment < SEGMENT_STEPS
            && (0..WORLD).all(|r| {
                let need: usize = needs.iter().filter(|n| n.0 == r).map(|n| n.1).sum();
                self.next[r] + need <= ARENA
            })
    }

    fn take(&mut self, rank: usize, len: usize) -> usize {
        let off = self.next[rank];
        self.next[rank] += len.next_multiple_of(8);
        off
    }

    /// The same offset on every rank (collectives).
    fn take_all(&mut self, len: usize) -> usize {
        let off = *self.next.iter().max().expect("WORLD > 0");
        self.next = [off + len.next_multiple_of(8); WORLD];
        off
    }
}

impl Program {
    /// Generate the schedule for `seed`.
    ///
    /// What a repetition costs must not depend on the seed (runs at
    /// different seeds are compared with each other), so the *shapes* —
    /// how many commands of each family, their sizes, which half chains —
    /// are a fixed table: 40% two-sided buffers, 15% datatypes, 15%
    /// one-sided epochs, 10% collectives, 10% host messages, 10% file
    /// commands, sizes on log-uniform grids. The seed decides the order
    /// of the steps, who talks to whom, and every payload byte.
    pub fn generate(seed: u64) -> Program {
        let mut rng = XorShift64::new(seed ^ 0x6f70_5f6d_6978); // "op_mix"
        let mut shapes = Vec::new();
        let mut add = |n: usize, shape: &dyn Fn(usize) -> Shape| {
            shapes.extend((0..n).map(shape));
        };
        add(80, &|k| Shape::P2p(log_grid(1 << 10, 1 << 20, k, 80)));
        add(30, &|k| Shape::Datatype {
            packed: log_grid(1 << 10, 256 << 10, k, 30),
            blocklen: [64, 256, 1024][k % 3],
            mode: k % PACK_MODES.len(),
        });
        add(EPOCHS, &|_| Shape::Epoch);
        add(5, &|k| Shape::Collective {
            size: log_grid(64 << 10, 1 << 20, k, 5),
            bcast: k % 2 == 0,
        });
        add(20, &|k| Shape::HostMsg {
            size: log_grid(1 << 10, 64 << 10, k, 20),
            wrapped: k % 2 == 0,
        });
        add(20, &|k| Shape::File {
            size: log_grid(1 << 10, 256 << 10, k, 20),
            framed: k % 2 == 0,
        });
        // Fisher–Yates; the chain flag then alternates along the
        // shuffled order, so exactly half the steps chain.
        for i in (1..shapes.len()).rev() {
            shapes.swap(i, rng.gen_range_usize(0, i + 1));
        }

        let mut steps = Vec::new();
        let mut arenas = Arenas {
            next: [0; WORLD],
            steps_in_segment: 0,
        };
        let mut put_next = [WIN_STATIC + WIN_ACC; WORLD];
        let mut scratch_next = [WIN; WORLD];
        let mut acc_expected = vec![vec![0.0f64; WIN_ACC / 8]; WORLD];
        let mut rma_ops = 0;
        for (i, shape) in shapes.into_iter().enumerate() {
            let chain = i % 2 == 0;
            let step = match shape {
                Shape::P2p(size) => {
                    let (src, dst) = pair(&mut rng);
                    Self::place(&mut steps, &mut arenas, &[(src, size), (dst, size)]);
                    Step::P2p {
                        src,
                        dst,
                        size,
                        src_off: arenas.take(src, size),
                        dst_off: arenas.take(dst, size),
                        chain,
                    }
                }
                Shape::Datatype {
                    packed,
                    blocklen,
                    mode,
                } => {
                    let (src, dst) = pair(&mut rng);
                    let count = (packed / blocklen).max(2);
                    let extent = count * 2 * blocklen;
                    Self::place(&mut steps, &mut arenas, &[(src, extent), (dst, extent)]);
                    Step::Datatype {
                        src,
                        dst,
                        count,
                        blocklen,
                        mode,
                        src_off: arenas.take(src, extent),
                        dst_off: arenas.take(dst, extent),
                        chain,
                    }
                }
                Shape::Epoch => {
                    let mut ops = Vec::new();
                    for _ in 0..EPOCH_OPS {
                        let (origin, target) = pair(&mut rng);
                        let size = log_grid(256, 8 << 10, rma_ops, EPOCHS * EPOCH_OPS);
                        let kind = [RmaKind::Put, RmaKind::Get, RmaKind::Accumulate][rma_ops % 3];
                        let win_off = match kind {
                            RmaKind::Put => {
                                put_next[target] += size;
                                put_next[target] - size
                            }
                            RmaKind::Get => round8(rng.gen_range_usize(0, WIN_STATIC - size + 1)),
                            RmaKind::Accumulate => {
                                let at = round8(rng.gen_range_usize(0, WIN_ACC - size + 1));
                                let region = &mut acc_expected[target][at / 8..(at + size) / 8];
                                for (i, v) in region.iter_mut().enumerate() {
                                    *v += acc_value(i);
                                }
                                WIN_STATIC + at
                            }
                        };
                        scratch_next[origin] += size;
                        ops.push(RmaOp {
                            origin,
                            target,
                            kind,
                            size,
                            off: scratch_next[origin] - size,
                            win_off,
                            chain: rma_ops % 2 == 0,
                        });
                        rma_ops += 1;
                    }
                    Step::Epoch { ops }
                }
                Shape::Collective { size, bcast } => {
                    let needs: Vec<(usize, usize)> = (0..WORLD).map(|r| (r, size)).collect();
                    Self::place(&mut steps, &mut arenas, &needs);
                    let off = arenas.take_all(size);
                    if bcast {
                        Step::Bcast {
                            root: rng.gen_range_usize(0, WORLD),
                            size,
                            off,
                            chain,
                        }
                    } else {
                        Step::Allreduce {
                            count: size / 8,
                            off,
                            chain,
                        }
                    }
                }
                Shape::HostMsg { size, wrapped } => {
                    let (src, dst) = pair(&mut rng);
                    Step::HostMsg {
                        src,
                        dst,
                        size,
                        wrapped,
                    }
                }
                Shape::File { size, framed } => {
                    let rank = rng.gen_range_usize(0, WORLD);
                    Self::place(&mut steps, &mut arenas, &[(rank, 2 * size)]);
                    Step::File {
                        rank,
                        size,
                        off: arenas.take(rank, size),
                        back_off: arenas.take(rank, size),
                        framed,
                        chain,
                    }
                }
            };
            arenas.steps_in_segment += 1;
            steps.push(step);
        }
        steps.push(Step::Sync);
        // Even if one rank were origin or target of every one-sided op,
        // its scratch and put regions hold them all.
        assert!(put_next.iter().all(|&end| end <= WIN));
        assert!(scratch_next.iter().all(|&end| end <= WIN + SCRATCH));
        let commands = steps.iter().map(Step::commands).sum();
        Program {
            steps,
            commands,
            seed,
            acc_expected,
            corrupt_step: None,
        }
    }

    /// Close the current segment first if the step's arena needs do not
    /// fit it.
    fn place(steps: &mut Vec<Step>, arenas: &mut Arenas, needs: &[(usize, usize)]) {
        if !arenas.fits(needs) {
            steps.push(Step::Sync);
            arenas.next = [0; WORLD];
            arenas.steps_in_segment = 0;
        }
    }

    /// The same program whose first two-sided receiver expects the wrong
    /// payload (proves the payload checks are not vacuous).
    pub fn corrupted(mut self) -> Program {
        self.corrupt_step = self
            .steps
            .iter()
            .position(|s| matches!(s, Step::P2p { .. }));
        self
    }

    /// Fingerprint of the schedule (FNV-1a of its debug rendering).
    pub fn schedule_hash(&self) -> u64 {
        clmpi::obs::fnv1a(format!("{:?}", self.steps).as_bytes())
    }
}

// -- payload patterns ----------------------------------------------------

fn pattern_word(key: u64, i: u64) -> u64 {
    (key.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15)).rotate_left(23) ^ key
}

/// Fill `out` with the pattern of `key`.
pub fn fill(key: u64, out: &mut [u8]) {
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        let w = pattern_word(key, i as u64).to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
}

/// True if `bytes` hold exactly the pattern of `key`.
pub fn matches(key: u64, bytes: &[u8]) -> bool {
    bytes.chunks(8).enumerate().all(|(i, chunk)| {
        let w = pattern_word(key, i as u64).to_le_bytes();
        chunk == &w[..chunk.len()]
    })
}

impl Program {
    /// Pattern key of payload `sub` of step `step`.
    fn key(&self, step: usize, sub: usize) -> u64 {
        ((step as u64) << 16 | sub as u64) ^ self.seed.rotate_left(32)
    }
}

fn static_key(rank: usize) -> u64 {
    0x57A7_1C00 + rank as u64
}

// -- the SPMD program ----------------------------------------------------

/// What a command's completion is checked against.
enum Check {
    None,
    Pattern {
        buf: Buffer,
        off: usize,
        len: usize,
        key: u64,
    },
    Bytes {
        buf: Buffer,
        off: usize,
        expect: Vec<u8>,
    },
    Host {
        host: HostBuffer,
        len: usize,
        key: u64,
    },
    Outcome {
        outcome: clmpi::RequestOutcome,
        len: usize,
        key: u64,
    },
    Allreduce {
        buf: Buffer,
        off: usize,
        count: usize,
    },
}

impl Check {
    fn holds(self) -> bool {
        match self {
            Check::None => true,
            Check::Pattern { buf, off, len, key } => {
                buf.read(|b| matches(key, &b.as_slice()[off..off + len]))
            }
            Check::Bytes { buf, off, expect } => {
                buf.read(|b| b.as_slice()[off..off + expect.len()] == expect[..])
            }
            Check::Host { host, len, key } => host.read(|b| matches(key, &b.as_slice()[..len])),
            Check::Outcome { outcome, len, key } => outcome
                .take()
                .is_some_and(|r| r.data.len() == len && matches(key, &r.data)),
            Check::Allreduce { buf, off, count } => {
                // The expected sums repeat with the contributions' period.
                let sums: [f64; ALLREDUCE_PERIOD] =
                    std::array::from_fn(|i| (0..WORLD).map(|r| allreduce_contrib(r, i)).sum());
                buf.read(|b| {
                    b.as_f64()[off / 8..off / 8 + count]
                        .iter()
                        .enumerate()
                        .all(|(i, &v)| v == sums[i % ALLREDUCE_PERIOD])
                })
            }
        }
    }
}

enum Pending {
    Event(Event, Check),
    HostSend(clmpi::ClSendRequest),
}

/// One rank's walk state.
struct Rank<'a> {
    p: &'a Process,
    rt: ClMpi,
    q: CommandQueue,
    arena: Buffer,
    pending: Vec<Pending>,
    /// The last event this rank enqueued (what chained commands wait on).
    prev: Option<Event>,
    commands: u64,
    failed: u64,
}

impl Rank<'_> {
    fn wait_list(&self, chain: bool) -> &[Event] {
        if chain {
            self.prev.as_slice()
        } else {
            &[]
        }
    }

    /// Account one enqueued command: keep its event with the check to
    /// run at the next sync, or count it failed if it was refused.
    fn track(
        &mut self,
        name: &str,
        enqueued: minicl::ClResult<Event>,
        check: Check,
    ) -> Option<Event> {
        self.commands += 1;
        match enqueued {
            Ok(ev) => {
                self.prev = Some(ev.clone());
                self.pending.push(Pending::Event(ev.clone(), check));
                Some(ev)
            }
            Err(e) => {
                eprintln!("op_mix: r{} {name} refused: {e}", self.p.rank());
                self.failed += 1;
                None
            }
        }
    }

    /// Wait for everything outstanding and check what landed.
    fn sync(&mut self) {
        let _s = spans::enter("minicl.event.wait");
        for pending in std::mem::take(&mut self.pending) {
            let ok = match pending {
                Pending::Event(ev, check) => {
                    let settled = ev.wait_result(&self.p.actor);
                    if let Err(e) = &settled {
                        eprintln!("op_mix: r{} {}: {e}", self.p.rank(), ev.label());
                    }
                    settled.is_ok() && check.holds()
                }
                Pending::HostSend(req) => req.wait_result(&self.p.actor).is_ok(),
            };
            self.failed += u64::from(!ok);
        }
    }

    fn fill_arena(&self, off: usize, len: usize, key: u64) {
        self.arena
            .write(|b| fill(key, &mut b.as_mut_slice()[off..off + len]));
    }

    fn arena_check(&self, off: usize, len: usize, key: u64) -> Check {
        Check::Pattern {
            buf: self.arena.clone(),
            off,
            len,
            key,
        }
    }
}

/// Per-rank result of one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankOut {
    pub commands: u64,
    pub failed: u64,
}

fn vector_type(count: usize, blocklen: usize) -> CommittedType {
    DerivedType::Vector {
        count,
        blocklen,
        stride: 2 * blocklen,
        extent: count * 2 * blocklen,
    }
    .commit()
    .expect("generated vector types are valid")
}

fn rank_body(prog: &Program, sys: &SystemConfig, lossy: bool, p: Process) -> RankOut {
    let me = p.rank();
    let rt = {
        let _s = spans::enter("clmpi.new");
        ClMpi::new(&p, sys.clone())
    };
    if lossy {
        rt.set_retry_policy(RetryPolicy::new(
            LOSSY_ATTEMPTS,
            RetryPolicy::default().backoff_base_ns,
        ));
    }
    let q = rt.context().create_queue(0, format!("r{me}"));
    let (arena, wbuf) = {
        let _s = spans::enter("minicl.create_buffer");
        (
            rt.context().create_buffer(ARENA),
            rt.context().create_buffer(WIN + SCRATCH),
        )
    };
    wbuf.write(|b| fill(static_key(me), &mut b.as_mut_slice()[..WIN_STATIC]));
    let win = {
        let _s = spans::enter("clmpi.expose_window");
        rt.expose_buffer_as_window(&wbuf, WIN, &p.actor)
            .expect("window over an in-range buffer")
    };
    let storage = SimStorage::node_local_disk(p.clock().clone());
    let mut r = Rank {
        p: &p,
        rt,
        q,
        arena,
        pending: Vec::new(),
        prev: None,
        commands: 0,
        failed: 0,
    };
    let mut accumulated_into_me = 0u64;

    for (idx, step) in prog.steps.iter().enumerate() {
        let tag = idx as Tag;
        match step {
            Step::P2p {
                src,
                dst,
                size,
                src_off,
                dst_off,
                chain,
            } => {
                let key = prog.key(idx, 0);
                if *src == me {
                    r.fill_arena(*src_off, *size, key);
                    let _s = spans::enter("clmpi.enqueue.send");
                    let e = r.rt.enqueue_send_buffer(
                        &r.q,
                        &r.arena,
                        false,
                        *src_off,
                        *size,
                        *dst,
                        tag,
                        r.wait_list(*chain),
                        &p.actor,
                    );
                    r.track("send", e, Check::None);
                }
                if *dst == me {
                    let expect = key ^ u64::from(prog.corrupt_step == Some(idx));
                    let _s = spans::enter("clmpi.enqueue.recv");
                    let e = r.rt.enqueue_recv_buffer(
                        &r.q,
                        &r.arena,
                        false,
                        *dst_off,
                        *size,
                        *src,
                        tag,
                        r.wait_list(*chain),
                        &p.actor,
                    );
                    let check = r.arena_check(*dst_off, *size, expect);
                    r.track("recv", e, check);
                }
            }
            Step::Datatype {
                src,
                dst,
                count,
                blocklen,
                mode,
                src_off,
                dst_off,
                chain,
            } => {
                let (send_key, init_key) = (prog.key(idx, 0), prog.key(idx, 1));
                let ty = vector_type(*count, *blocklen);
                let extent = ty.extent();
                if *src == me {
                    r.fill_arena(*src_off, extent, send_key);
                    let _s = spans::enter("clmpi.enqueue.send_datatype");
                    let e = r.rt.enqueue_send_datatype(
                        &r.q,
                        &r.arena,
                        false,
                        *src_off,
                        &ty,
                        PACK_MODES[*mode],
                        *dst,
                        tag,
                        r.wait_list(*chain),
                        &p.actor,
                    );
                    r.track("send_datatype", e, Check::None);
                }
                if *dst == me {
                    // Serial reference: host pack of the sender's region,
                    // host unpack over the receiver's initial bytes.
                    r.fill_arena(*dst_off, extent, init_key);
                    let mut sent = vec![0u8; extent];
                    fill(send_key, &mut sent);
                    let mut expect = vec![0u8; extent];
                    fill(init_key, &mut expect);
                    ty.unpack(&ty.pack(&sent), &mut expect)
                        .expect("packed size matches the type");
                    let _s = spans::enter("clmpi.enqueue.recv_datatype");
                    let e = r.rt.enqueue_recv_datatype(
                        &r.q,
                        &r.arena,
                        false,
                        *dst_off,
                        &ty,
                        PACK_MODES[*mode],
                        *src,
                        tag,
                        r.wait_list(*chain),
                        &p.actor,
                    );
                    let check = Check::Bytes {
                        buf: r.arena.clone(),
                        off: *dst_off,
                        expect,
                    };
                    r.track("recv_datatype", e, check);
                }
            }
            Step::Epoch { ops } => {
                let mut gate = Vec::new();
                for (sub, op) in ops.iter().enumerate().filter(|(_, op)| op.origin == me) {
                    let key = prog.key(idx, sub);
                    let e = match op.kind {
                        RmaKind::Put => {
                            wbuf.write(|b| {
                                fill(key, &mut b.as_mut_slice()[op.off..op.off + op.size])
                            });
                            let _s = spans::enter("clmpi.enqueue.put");
                            let e = r.rt.enqueue_put_buffer(
                                &r.q,
                                &win,
                                false,
                                op.off,
                                op.win_off,
                                op.size,
                                op.target,
                                r.wait_list(op.chain),
                                &p.actor,
                            );
                            r.track("put", e, Check::None)
                        }
                        RmaKind::Get => {
                            let _s = spans::enter("clmpi.enqueue.get");
                            let e = r.rt.enqueue_get_buffer(
                                &r.q,
                                &win,
                                false,
                                op.off,
                                op.win_off,
                                op.size,
                                op.target,
                                r.wait_list(op.chain),
                                &p.actor,
                            );
                            // The target's static region, from win_off on.
                            let mut expect = vec![0u8; WIN_STATIC];
                            fill(static_key(op.target), &mut expect);
                            let check = Check::Bytes {
                                buf: wbuf.clone(),
                                off: op.off,
                                expect: expect[op.win_off..op.win_off + op.size].to_vec(),
                            };
                            r.track("get", e, check)
                        }
                        RmaKind::Accumulate => {
                            wbuf.write(|b| {
                                let vals = &mut b.as_f64_mut()[op.off / 8..(op.off + op.size) / 8];
                                for (i, v) in vals.iter_mut().enumerate() {
                                    *v = acc_value(i);
                                }
                            });
                            let _s = spans::enter("clmpi.enqueue.accumulate");
                            let e = r.rt.enqueue_accumulate_buffer(
                                &r.q,
                                &win,
                                false,
                                op.off,
                                op.win_off,
                                op.size,
                                op.target,
                                ReduceOp::Sum,
                                r.wait_list(op.chain),
                                &p.actor,
                            );
                            r.track("accumulate", e, Check::None)
                        }
                    };
                    gate.extend(e);
                }
                {
                    let _s = spans::enter("clmpi.enqueue.win_fence");
                    let e = r.rt.enqueue_win_fence(&win, false, &gate, &p.actor);
                    r.track("win_fence", e, Check::None);
                }
                r.sync();
                // Past the fence every put of the epoch has landed here.
                let mine = |kind| {
                    ops.iter()
                        .enumerate()
                        .filter(move |(_, op)| op.target == me && op.kind == kind)
                };
                accumulated_into_me += mine(RmaKind::Accumulate).count() as u64;
                if mine(RmaKind::Put).next().is_some() {
                    let image = win.win().read_local();
                    for (sub, op) in mine(RmaKind::Put) {
                        let landed = &image[op.win_off..op.win_off + op.size];
                        r.failed += u64::from(!matches(prog.key(idx, sub), landed));
                    }
                }
            }
            Step::Bcast {
                root,
                size,
                off,
                chain,
            } => {
                let key = prog.key(idx, 0);
                let check = if *root == me {
                    r.fill_arena(*off, *size, key);
                    Check::None
                } else {
                    r.arena_check(*off, *size, key)
                };
                let _s = spans::enter("clmpi.enqueue.bcast");
                let e = r.rt.enqueue_bcast_buffer(
                    &r.q,
                    &r.arena,
                    *off,
                    *size,
                    *root,
                    tag,
                    r.wait_list(*chain),
                    &p.actor,
                );
                r.track("bcast", e, check);
            }
            Step::Allreduce { count, off, chain } => {
                r.arena.write(|b| {
                    let vals = &mut b.as_f64_mut()[off / 8..off / 8 + count];
                    for (i, v) in vals.iter_mut().enumerate() {
                        *v = allreduce_contrib(me, i);
                    }
                });
                let _s = spans::enter("clmpi.enqueue.allreduce");
                let e = r.rt.enqueue_allreduce_buffer(
                    &r.q,
                    &r.arena,
                    *off,
                    *count,
                    ReduceOp::Sum,
                    tag,
                    r.wait_list(*chain),
                    &p.actor,
                );
                let check = Check::Allreduce {
                    buf: r.arena.clone(),
                    off: *off,
                    count: *count,
                };
                r.track("allreduce", e, check);
            }
            Step::HostMsg {
                src,
                dst,
                size,
                wrapped,
            } => {
                let key = prog.key(idx, 0);
                if *src == me {
                    let mut data = vec![0u8; *size];
                    fill(key, &mut data);
                    if *wrapped {
                        let _s = spans::enter("clmpi.event_from_request");
                        let req = p.comm.isend(&p.actor, *dst, tag, &data);
                        let (ev, _) = r.rt.event_from_request(req);
                        r.track("event_from_request", Ok(ev), Check::None);
                    } else {
                        let _s = spans::enter("clmpi.isend_cl");
                        let req = r.rt.isend_cl(&p.actor, *dst, tag, &data);
                        r.commands += 1;
                        r.pending.push(Pending::HostSend(req));
                    }
                }
                if *dst == me {
                    if *wrapped {
                        let _s = spans::enter("clmpi.event_from_request");
                        let req = p.comm.irecv(&p.actor, Some(*src), Some(tag));
                        let (ev, outcome) = r.rt.event_from_request(req);
                        let check = Check::Outcome {
                            outcome,
                            len: *size,
                            key,
                        };
                        r.track("event_from_request", Ok(ev), check);
                    } else {
                        let _s = spans::enter("clmpi.irecv_cl");
                        let req = r.rt.irecv_cl(&p.actor, *src, tag, *size);
                        let check = Check::Host {
                            host: req.data,
                            len: *size,
                            key,
                        };
                        r.track("irecv_cl", Ok(req.event), check);
                    }
                }
            }
            Step::File {
                rank,
                size,
                off,
                back_off,
                framed,
                chain,
            } if *rank == me => {
                let key = prog.key(idx, 0);
                let path = format!("r{me}/step{idx}");
                r.fill_arena(*off, *size, key);
                let written = {
                    let _s = spans::enter("clmpi.enqueue.file_out");
                    let e = if *framed {
                        r.rt.enqueue_checkpoint_buffer(
                            &r.q,
                            &r.arena,
                            *off,
                            *size,
                            &storage,
                            path.clone(),
                            r.wait_list(*chain),
                            &p.actor,
                        )
                    } else {
                        r.rt.enqueue_write_file(
                            &r.q,
                            &r.arena,
                            *off,
                            *size,
                            &storage,
                            path.clone(),
                            r.wait_list(*chain),
                            &p.actor,
                        )
                    };
                    r.track("file_out", e, Check::None)
                };
                let _s = spans::enter("clmpi.enqueue.file_in");
                let e = if *framed {
                    r.rt.enqueue_restore_buffer(
                        &r.q,
                        &r.arena,
                        *back_off,
                        *size,
                        &storage,
                        path,
                        written.as_slice(),
                        &p.actor,
                    )
                } else {
                    r.rt.enqueue_read_file(
                        &r.q,
                        &r.arena,
                        *back_off,
                        *size,
                        &storage,
                        path,
                        written.as_slice(),
                        &p.actor,
                    )
                };
                let check = r.arena_check(*back_off, *size, key);
                r.track("file_in", e, check);
            }
            Step::File { .. } => {}
            Step::Sync => r.sync(),
        }
    }

    // Every epoch is closed, so the accumulate region is final.
    if accumulated_into_me > 0 {
        let image = win.win().read_local();
        let region = &image[WIN_STATIC..WIN_STATIC + WIN_ACC];
        let wrong = region
            .chunks_exact(8)
            .zip(&prog.acc_expected[me])
            .any(|(b, want)| f64::from_le_bytes(b.try_into().expect("8-byte chunk")) != *want);
        if wrong {
            r.failed += accumulated_into_me;
        }
    }
    {
        let _s = spans::enter("minimpi.barrier");
        p.comm.barrier(&p.actor);
    }
    {
        let _s = spans::enter("clmpi.shutdown");
        r.rt.shutdown(&p.actor);
    }
    RankOut {
        commands: r.commands,
        failed: r.failed,
    }
}

/// The fault plan of the lossy variant for `seed`.
pub fn lossy_plan(seed: u64) -> FaultPlan {
    clmpi::data_plane_faults(FaultPlan::drops(seed, LOSSY_DROP_P).with_jitter(LOSSY_JITTER_NS))
}

/// Run the program once; returns the world result and its summary.
pub fn run(prog: &Arc<Program>, plan: &FaultPlan) -> (WorldResult<RankOut>, ObsSummary) {
    let sys = SystemConfig::cxl_pod();
    let lossy = !plan.is_none();
    let res = {
        let _s = spans::enter("minimpi.run_world").adopt_threads();
        let (prog, sys) = (prog.clone(), sys.clone());
        run_world_faulty(sys.cluster.clone(), WORLD, plan.clone(), move |p| {
            rank_body(&prog, &sys, lossy, p)
        })
    };
    let summary = {
        let _s = spans::enter("obs.summary");
        ObsSummary::from_trace(&res.trace)
    };
    (res, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_other_seed_differs() {
        let a = Program::generate(1);
        assert_eq!(a, Program::generate(1));
        assert_eq!(a.schedule_hash(), Program::generate(1).schedule_hash());
        assert_ne!(a.schedule_hash(), Program::generate(2).schedule_hash());
    }

    #[test]
    fn schedules_hold_their_command_mix_and_stay_in_bounds() {
        for seed in [1, 2, 3, 7, 99, 12345, u64::MAX] {
            let prog = Program::generate(seed);
            let total: u64 = prog.steps.iter().map(Step::commands).sum();
            assert_eq!(total, prog.commands);
            // The same 400 commands at every seed, in the stated mix.
            assert_eq!(total, 400, "seed {seed}");
            let commands = |pick: fn(&Step) -> bool| -> u64 {
                prog.steps
                    .iter()
                    .filter(|s| pick(s))
                    .map(Step::commands)
                    .sum()
            };
            assert_eq!(commands(|s| matches!(s, Step::P2p { .. })), 160);
            assert_eq!(commands(|s| matches!(s, Step::Datatype { .. })), 60);
            assert_eq!(commands(|s| matches!(s, Step::Epoch { .. })), 60);
            assert_eq!(
                commands(|s| matches!(s, Step::Bcast { .. } | Step::Allreduce { .. })),
                40
            );
            assert_eq!(commands(|s| matches!(s, Step::HostMsg { .. })), 40);
            assert_eq!(commands(|s| matches!(s, Step::File { .. })), 40);
            assert_eq!(prog.steps.last(), Some(&Step::Sync));
            for step in &prog.steps {
                match step {
                    Step::P2p {
                        size,
                        src_off,
                        dst_off,
                        src,
                        dst,
                        ..
                    } => {
                        assert_ne!(src, dst);
                        assert!(src_off + size <= ARENA && dst_off + size <= ARENA);
                    }
                    Step::Epoch { ops } => {
                        for op in ops {
                            assert!(op.off >= WIN && op.off + op.size <= WIN + SCRATCH);
                            assert!(op.win_off + op.size <= WIN);
                            assert_eq!(op.size % 8, 0);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn patterns_round_trip_and_detect_a_flipped_bit() {
        let mut buf = vec![0u8; 1029];
        fill(42, &mut buf);
        assert!(matches(42, &buf));
        assert!(!matches(43, &buf));
        buf[1028] ^= 1;
        assert!(!matches(42, &buf));
    }
}
