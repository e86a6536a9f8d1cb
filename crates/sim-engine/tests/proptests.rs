//! Property tests: the event queue behaves like a stable sort, and the
//! deterministic RNG honours its contracts (deterministic thoth-testkit
//! cases).

use thoth_sim_engine::{Cycle, DetRng, HeapEventQueue};
use thoth_testkit::check;

#[test]
fn event_queue_is_a_stable_sort() {
    check(256, |g| {
        let times = g.vec_of(0, 200, |g| g.below(100));
        let mut q = HeapEventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.schedule(Cycle(t), seq);
        }
        // Reference: stable sort by time keeps insertion order for ties.
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort_by_key(|&(t, _)| t);
        let mut got = Vec::new();
        while let Some((at, seq)) = q.pop() {
            got.push((at.0, seq));
        }
        assert_eq!(got, expect);
    });
}

#[test]
fn rng_gen_range_is_always_in_bounds() {
    check(128, |g| {
        let seed = g.u64();
        let bound = g.range(1, 1_000_000);
        let mut r = DetRng::seed_from(seed);
        for _ in 0..100 {
            assert!(r.gen_range(bound) < bound);
        }
    });
}

#[test]
fn rng_fork_streams_are_reproducible() {
    check(128, |g| {
        let seed = g.u64();
        let mut a = DetRng::seed_from(seed);
        let mut b = DetRng::seed_from(seed);
        let mut fa = a.fork();
        let mut fb = b.fork();
        for _ in 0..16 {
            assert_eq!(fa.next_u64(), fb.next_u64());
        }
    });
}

#[test]
fn cycle_ordering_is_total() {
    check(256, |g| {
        let (a, b) = (g.u64(), g.u64());
        let (ca, cb) = (Cycle(a), Cycle(b));
        assert_eq!(ca < cb, a < b);
        assert_eq!(ca.max(cb).0, a.max(b));
        assert_eq!(ca.saturating_since(cb), a.saturating_sub(b));
    });
}
