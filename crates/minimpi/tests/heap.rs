//! The launcher tells glibc to keep what worlds free (`src/heap.rs`).
//! One test, alone in its binary, so no other thread's allocations move
//! the counts.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use minimpi::run_world_sized;
use simnet::ClusterSpec;

/// Minor page faults of the calling thread (`/proc/thread-self/stat`,
/// field 10; the command name in field 2 may hold spaces, so count from
/// its closing parenthesis). `None` where procfs does not say.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    let after_name = &stat[stat.rfind(')')? + 1..];
    after_name.split_whitespace().nth(7)?.parse().ok()
}

/// Allocate, touch and free a rank-sized buffer; returns the faults it took.
fn touch_and_free(bytes: usize) -> Option<u64> {
    let before = minor_faults()?;
    let mut buf = vec![0u8; bytes];
    for page in buf.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&buf);
    drop(buf);
    Some(minor_faults()? - before)
}

#[test]
fn memory_a_world_freed_is_reused_without_faulting_it_back_in() {
    const BYTES: usize = 16 << 20;
    // Any launch makes the call; what the ranks do does not matter.
    let res = run_world_sized(ClusterSpec::cichlid(), 2, |p| p.rank());
    assert_eq!(res.outputs, vec![0, 1]);

    // With glibc's defaults the first round is an `mmap` handed back on
    // free and the second comes fresh from the heap: 4,096 faults each.
    let (Some(first), Some(second)) = (touch_and_free(BYTES), touch_and_free(BYTES)) else {
        eprintln!("skipped: /proc/thread-self/stat is not readable here");
        return;
    };
    assert!(
        second < 256,
        "the second {BYTES}-byte buffer took {second} minor faults (the first {first}): \
         freed memory went back to the kernel"
    );
}
