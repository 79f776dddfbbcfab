//! Keep freed memory in the process between worlds.
//!
//! A world builds per-rank state (device buffers, staging buffers, wire
//! payloads — hundreds of megabytes at 16 ranks of nanopowder) and frees
//! all of it when its ranks return. glibc's defaults hand most of that
//! back to the kernel (top-of-heap trimming, deleting empty thread-arena
//! heaps, `mmap` for anything above a threshold it keeps adjusting), and
//! the next world faults it back in page by page. How much depends on
//! which rank thread landed in which arena and in what order the ranks
//! freed, so it differs from one world to the next: measured on
//! identical `nanopowder` repetitions in one process, 12,750–107,610
//! minor faults and 0.26–0.42 s; on Himeno at 256 ranks 15,000–69,000
//! and 0.26–0.31 s (DESIGN.md §14, "Allocator").
//!
//! MPI libraries meet the same allocator from the other side — a
//! registration cache is only valid while the pages stay mapped — and
//! settle it the same way at `MPI_Init` (MVAPICH2 and Open MPI's
//! `leave_pinned` both call `mallopt` to stop trimming). [`keep_freed`]
//! is that call for this runtime, made once by the launcher.

/// Ask the allocator to keep what worlds free instead of returning it to
/// the kernel. Idempotent.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub(crate) fn keep_freed() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // <malloc.h>
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_TOP_PAD: i32 = -2;
    const M_MMAP_THRESHOLD: i32 = -3;
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
        }
    });
}

/// Only glibc is known to need it.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub(crate) fn keep_freed() {}
