//! One body, two launchers: an `async` SPMD body runs as a task per rank
//! (`run_world_tasks`) or on a thread per rank that drives it with
//! `Actor::block_on` (`run_world_faulty`), and ends every phase at the
//! same virtual instant either way.

use minimpi::{run_world_faulty, run_world_tasks, FaultPlan, Process, WorldResult};
use simnet::ClusterSpec;
use simtime::{until, SimNs};

const RANKS: usize = 6;

/// Rank `me` sends a message to the next rank that grows with `me` and
/// receives one from the previous, sleeps a rank-dependent while, meets
/// the others in a barrier, and trades a page with both neighbours in a
/// `sendrecv`. Each phase counts one transition and records a span on the
/// rank's lane. Returns the instant the body ends at.
async fn body(p: &Process) -> SimNs {
    let (a, me, n) = (&p.actor, p.rank(), p.size());
    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
    let (clock, trace) = (p.clock(), p.comm.world().trace());
    let lane = format!("r{me}");
    let phase = |name: &str, start: SimNs| {
        clock.count_events(1);
        trace.record(lane.as_str(), name, start, clock.now_ns());
        clock.now_ns()
    };

    let mut sreq = p.comm.isend(a, next, 1, &vec![me as u8; 4096 * (me + 1)]);
    let mut rreq = p.comm.irecv(a, Some(prev), Some(1));
    let got = until(|| rreq.test(a)).await;
    assert_eq!(got.map(|r| r.data.len()), Some(4096 * (prev + 1)));
    until(|| sreq.test(a)).await;
    let t = phase("isend/recv", 0);

    clock.sleep_until(t + 1_000 * (me as SimNs + 1)).await;
    let t = phase("sleep", t);

    p.comm.barrier_async(a).await;
    let t = phase("barrier", t);

    let got = p
        .comm
        .sendrecv_async(a, prev, 2, &[me as u8; 4096], Some(next), Some(2))
        .await;
    assert_eq!(got.data, vec![next as u8; 4096]);
    phase("sendrecv", t)
}

/// What both launchers must agree on: the makespan, the transitions, the
/// trace's spans in a total order, and each rank's end instant.
type Run = (SimNs, u64, Vec<(String, String, SimNs, SimNs)>, Vec<SimNs>);

fn run(res: WorldResult<SimNs>) -> Run {
    let mut spans: Vec<_> = (res.trace.spans().into_iter())
        .map(|s| (s.lane, s.label, s.start, s.end))
        .collect();
    spans.sort();
    (res.elapsed_ns, res.events, spans, res.outputs)
}

#[test]
fn one_body_runs_alike_as_tasks_and_on_threads() {
    let spec = || ClusterSpec::ricc();
    let as_tasks = run(run_world_tasks(
        spec(),
        RANKS,
        FaultPlan::none(),
        |p| async move { body(&p).await },
    ));
    let on_threads = run(run_world_faulty(spec(), RANKS, FaultPlan::none(), |p| {
        p.actor.block_on("body", body(&p))
    }));
    assert_eq!(as_tasks.1, 4 * RANKS as u64, "four phases per rank");
    assert_eq!(as_tasks.2.len(), 4 * RANKS, "one span per phase");
    assert_eq!(
        on_threads, as_tasks,
        "run_world_faulty and run_world_tasks agree"
    );
}

/// The receive paths of a rank body: rank `me` posts a receive from the
/// previous rank and sends the next one a page that grows with `me`, then
/// waits for both (`irecv` + wait, `isend` + wait). It sends a second
/// page, sleeps until that page from its own predecessor has surely
/// arrived, and receives it (`recv` of a message that is already there).
/// Returns the instants each step ended at.
async fn receives(p: &Process) -> Vec<SimNs> {
    let (a, me, n) = (&p.actor, p.rank(), p.size());
    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
    let clock = p.clock();
    let mut ends = Vec::new();

    let rreq = p.comm.irecv(a, Some(prev), Some(3));
    let sreq = p.comm.isend(a, next, 3, &vec![me as u8; 4096 * (me + 1)]);
    let got = rreq.wait_async().await.map(|r| r.data);
    assert_eq!(got, Some(vec![prev as u8; 4096 * (prev + 1)]));
    ends.push(clock.now_ns());
    assert!(
        sreq.wait_async().await.is_none(),
        "a send yields no payload"
    );
    ends.push(clock.now_ns());

    p.comm.isend(a, next, 4, &[me as u8; 64]).wait_async().await;
    ends.push(clock.now_ns());
    clock.sleep_until(clock.now_ns() + 1_000_000).await;
    let got = p.comm.recv_async(a, Some(prev), Some(4)).await;
    assert_eq!((got.data, got.status.source), (vec![prev as u8; 64], prev));
    ends.push(clock.now_ns());
    ends
}

/// [`receives`] in the blocking calls a rank thread makes.
fn receives_blocking(p: &Process) -> Vec<SimNs> {
    let (a, me, n) = (&p.actor, p.rank(), p.size());
    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
    let mut ends = Vec::new();

    let rreq = p.comm.irecv(a, Some(prev), Some(3));
    let sreq = p.comm.isend(a, next, 3, &vec![me as u8; 4096 * (me + 1)]);
    let got = rreq.wait(a).map(|r| r.data);
    assert_eq!(got, Some(vec![prev as u8; 4096 * (prev + 1)]));
    ends.push(a.now_ns());
    assert!(sreq.wait(a).is_none(), "a send yields no payload");
    ends.push(a.now_ns());

    p.comm.send(a, next, 4, &[me as u8; 64]);
    ends.push(a.now_ns());
    a.advance_ns(1_000_000);
    let got = p.comm.recv(a, Some(prev), Some(4));
    assert_eq!((got.data, got.status.source), (vec![prev as u8; 64], prev));
    ends.push(a.now_ns());
    ends
}

#[test]
fn receives_and_waits_end_alike_as_tasks_and_on_threads() {
    let spec = || ClusterSpec::ricc();
    let as_tasks = run_world_tasks(spec(), RANKS, FaultPlan::none(), |p| async move {
        receives(&p).await
    });
    let on_threads = run_world_faulty(spec(), RANKS, FaultPlan::none(), |p| {
        p.actor.block_on("body", receives(&p))
    });
    let blocking = run_world_faulty(spec(), RANKS, FaultPlan::none(), |p| receives_blocking(&p));
    let ends = |r: &WorldResult<Vec<SimNs>>| (r.elapsed_ns, r.events, r.outputs.clone());
    let want = ends(&as_tasks);
    for (rank, e) in want.2.iter().enumerate() {
        assert!(e[0] > 0 && e[2] > e[1], "rank {rank}: {e:?}");
        assert_eq!(
            e[3],
            e[2] + 1_000_000,
            "rank {rank}: a receive of a message already there takes no time"
        );
    }
    assert_eq!(ends(&on_threads), want, "the async cores on rank threads");
    assert_eq!(ends(&blocking), want, "the blocking calls on rank threads");
    for (label, w) in &as_tasks.wake.labels {
        assert!(
            *label == "launcher" || w.parked == 0,
            "as tasks only the launcher parks, but `{label}` did: {w:?}"
        );
    }
    let recv = blocking.wake.labels.get("mpi recv").copied();
    assert!(
        recv.is_some_and(|w| w.parked > 0),
        "the first receives park their rank threads: {recv:?}"
    );
}
