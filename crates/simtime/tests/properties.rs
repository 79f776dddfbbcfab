//! Property-style tests of the virtual-clock invariants.
//!
//! Inputs are generated from a seeded [`XorShift64`] loop (many cases per
//! test), so each test is a deterministic, dependency-free property check:
//! the case number doubles as the replay seed.

use std::sync::Arc;
use std::thread;

use simtime::plock::Mutex;
use simtime::{SimClock, XorShift64};

/// A single actor's advances always sum exactly.
#[test]
fn serial_advances_sum_exactly() {
    for case in 0..48u64 {
        let mut rng = XorShift64::new(0x5E41_0000 + case);
        let durations: Vec<u64> = (0..rng.gen_range_usize(1, 50))
            .map(|_| rng.gen_range_u64(0, 1_000_000))
            .collect();
        let clock = SimClock::new();
        let a = clock.register("solo");
        let mut expect = 0u64;
        for d in durations {
            a.advance_ns(d);
            expect += d;
            assert_eq!(a.now_ns(), expect, "case {case}");
        }
    }
}

/// N actors advancing concurrently finish at exactly their own sums, and
/// the clock ends at the maximum — never the total.
#[test]
fn concurrent_advances_overlap_to_max() {
    for case in 0..24u64 {
        let mut rng = XorShift64::new(0xC0_0000 + case);
        let plans: Vec<Vec<u64>> = (0..rng.gen_range_usize(2, 6))
            .map(|_| {
                (0..rng.gen_range_usize(1, 10))
                    .map(|_| rng.gen_range_u64(1, 100_000))
                    .collect()
            })
            .collect();
        let clock = SimClock::new();
        let actors: Vec<_> = (0..plans.len())
            .map(|i| clock.register(format!("w{i}")))
            .collect();
        let handles: Vec<_> = actors
            .into_iter()
            .zip(plans.clone())
            .map(|(a, plan)| {
                thread::spawn(move || {
                    for d in plan {
                        a.advance_ns(d);
                    }
                    a.now_ns()
                })
            })
            .collect();
        let ends: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let sums: Vec<u64> = plans.iter().map(|p| p.iter().sum()).collect();
        assert_eq!(ends, sums, "case {case}");
        assert_eq!(clock.now_ns(), *sums.iter().max().unwrap(), "case {case}");
    }
}

/// Clock time is monotone across arbitrary alarm/advance interleaving.
#[test]
fn alarms_never_move_clock_backwards() {
    for case in 0..48u64 {
        let mut rng = XorShift64::new(0xA1A2_0000 + case);
        let alarms: Vec<u64> = (0..rng.gen_range_usize(0, 20))
            .map(|_| rng.gen_range_u64(0, 500_000))
            .collect();
        let steps: Vec<u64> = (0..rng.gen_range_usize(1, 20))
            .map(|_| rng.gen_range_u64(1, 100_000))
            .collect();
        let clock = SimClock::new();
        let a = clock.register("stepper");
        let key = clock.new_key();
        for t in alarms {
            clock.schedule_alarm_keyed(t, key);
        }
        let mut last = 0;
        for d in steps {
            a.advance_ns(d);
            let now = a.now_ns();
            assert!(now >= last, "case {case}");
            last = now;
        }
    }
}

/// Message passing via a notify of the slot's key: a receiver observes
/// each token at the sender's virtual send time, never later than the
/// next send.
#[test]
fn token_stream_preserves_timestamps() {
    for case in 0..24u64 {
        let mut rng = XorShift64::new(0x707E_0000 + case);
        let gaps: Vec<u64> = (0..rng.gen_range_usize(1, 30))
            .map(|_| rng.gen_range_u64(1, 10_000))
            .collect();
        let clock = SimClock::new();
        let key = clock.new_key();
        let slot: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
        let s = clock.register("send");
        let r = clock.register("recv");
        let n = gaps.len();
        let s_slot = slot.clone();
        let sender = thread::spawn(move || {
            for g in gaps {
                s.advance_ns(g);
                // one-slot channel: wait for it to be empty
                s.wait_on(&[key], "slot free", || {
                    s_slot.lock().is_none().then_some(())
                });
                *s_slot.lock() = Some(s.now_ns());
                s.clock().notify_key(key);
            }
        });
        let mut last = 0u64;
        for _ in 0..n {
            let sent_at = r.wait_on(&[key], "slot full", || slot.lock().take());
            r.clock().notify_key(key);
            assert!(sent_at >= last, "case {case}");
            assert!(r.now_ns() >= sent_at, "case {case}");
            last = sent_at;
        }
        sender.join().unwrap();
    }
}
