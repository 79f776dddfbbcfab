//! Every rank thread allocates from one heap (`src/heap.rs`): memory a
//! world's ranks freed is reused by the next world's ranks, whichever
//! threads they are.
//!
//! No test harness: the check runs on the main thread, alone in its
//! binary. glibc caps the arenas of threads created *after* the launcher's
//! `mallopt`; a thread that allocated before it (a harness's test thread)
//! keeps an arena of its own, and rank threads would then be spread over
//! it and the main arena by lock contention.

use minimpi::run_world_sized;
use simnet::ClusterSpec;

/// Minor page faults of the whole process (`/proc/self/stat`, field 10;
/// the command name in field 2 may hold spaces, so count from its closing
/// parenthesis). `None` where procfs does not say.
fn process_minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let after_name = &stat[stat.rfind(')')? + 1..];
    after_name.split_whitespace().nth(7)?.parse().ok()
}

/// A 64-rank world in which every rank allocates, touches and frees 1 MiB
/// three times, all ranks holding theirs at once.
fn churn() {
    const RANKS: usize = 64;
    const BYTES: usize = 1 << 20;
    let res = run_world_sized(ClusterSpec::ricc(), RANKS, |p| {
        for _ in 0..3 {
            let mut buf = vec![0u8; BYTES];
            for page in buf.chunks_mut(4096) {
                page[0] = 1;
            }
            std::hint::black_box(&buf);
            // Every buffer is live at once: a world's high-water mark does
            // not depend on how the host interleaved the ranks.
            p.comm.barrier(&p.actor);
        }
        p.rank()
    });
    assert_eq!(res.outputs.len(), RANKS);
}

fn main() {
    if cfg!(all(target_os = "linux", target_env = "gnu")) {
        a_world_reuses_what_the_previous_worlds_ranks_freed();
    }
}

fn a_world_reuses_what_the_previous_worlds_ranks_freed() {
    // Three warm-up worlds touch the pages the measured ones will need.
    for _ in 0..3 {
        churn();
    }
    // 64 × 3 MiB touched is 49,152 pages a world; a buffer is 256. Under
    // glibc's per-thread arenas each rank thread lands in one of up to
    // 8 × cores arenas, and a world's buffers fault in whatever their
    // arena has not held yet: on a 2-core host 6 to 13 worlds in 16 took
    // one to four buffers more than the fewest (about 100 in release, 200
    // in debug), world after world. One arena has held them all: a world
    // takes about 95 faults in release and 145 in debug (thread stacks and
    // the world's own state), and one world in 25 a buffer more.
    const WORLDS: usize = 16;
    let mut faults = Vec::new();
    for _ in 0..WORLDS {
        let Some(before) = process_minor_faults() else {
            eprintln!("skipped: /proc/self/stat is not readable here");
            return;
        };
        churn();
        let Some(after) = process_minor_faults() else {
            return;
        };
        faults.push(after - before);
    }
    let fewest = faults.iter().copied().min().unwrap_or_default();
    let refaulted = faults.iter().filter(|&&f| f >= fewest + 128).count();
    assert!(
        refaulted <= 4,
        "{refaulted} of {WORLDS} warm 64-rank worlds faulted a buffer back in \
         ({faults:?} minor faults): their ranks did not reuse what the previous worlds freed"
    );
    println!("test a_world_reuses_what_the_previous_worlds_ranks_freed ... ok");
}
