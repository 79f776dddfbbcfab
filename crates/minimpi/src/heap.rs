//! Keep freed memory in the process between worlds, in one heap.
//!
//! A world builds per-rank state (device buffers, staging buffers, wire
//! payloads — hundreds of megabytes at 16 ranks of nanopowder) and frees
//! all of it when its ranks return. glibc's defaults hand most of that
//! back to the kernel (top-of-heap trimming, deleting empty thread-arena
//! heaps, `mmap` for anything above a threshold it keeps adjusting), and
//! the next world faults it back in page by page: measured on identical
//! `nanopowder` repetitions in one process, 12,750–107,610 minor faults
//! and 0.26–0.42 s; on Himeno at 256 ranks 15,000–69,000 and 0.26–0.31 s
//! (DESIGN.md §14, "Allocator").
//!
//! Keeping the memory is not enough while glibc gives each thread an
//! arena of its own (up to 8 per core, shared round-robin past that):
//! what one world's rank threads freed is reusable only by whichever of
//! the next world's threads land in the same arenas, and a scheduler pass
//! allocates from the arena of whichever rank thread happens to run it.
//! So every thread created after the first launch allocates from the
//! arenas that exist by then — the main thread's alone, in a program that
//! launches before it starts threads of its own — and a world's memory is
//! there for the next world whichever threads it lands on.
//!
//! MPI libraries meet the same allocator from the other side — a
//! registration cache is only valid while the pages stay mapped — and
//! settle it the same way at `MPI_Init` (MVAPICH2 and Open MPI's
//! `leave_pinned` both call `mallopt` to stop trimming). [`keep_freed`]
//! is that call for this runtime, made once by the launcher.

/// Ask the allocator to keep what worlds free instead of returning it to
/// the kernel, and to give no thread created from now on an arena of its
/// own. Idempotent.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub(crate) fn keep_freed() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // <malloc.h>
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_TOP_PAD: i32 = -2;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    /// The largest threshold glibc accepts (half a thread-arena heap);
    /// setting it also stops glibc adjusting it.
    const MMAP_THRESHOLD: i32 = 32 << 20;
    /// A whole thread-arena heap: the pad at which an empty one is no
    /// longer deleted.
    const TOP_PAD: i32 = 64 << 20;

    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        // SAFETY: `mallopt(3)` takes two ints and is thread-safe (it
        // takes the main arena's lock); a refused value returns 0 and
        // leaves the default in place, which is only slower.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_TOP_PAD, TOP_PAD);
            mallopt(M_ARENA_MAX, 1);
        }
    });
}

/// Only glibc is known to need it.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub(crate) fn keep_freed() {}
