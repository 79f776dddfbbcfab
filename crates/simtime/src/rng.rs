//! A small, seeded, deterministic PRNG (xorshift64*) and the workspace's
//! one stable hash ([`fnv1a`]).
//!
//! Used by the fault injector (`simnet`'s `FaultPlan`) and by the
//! seeded-loop property tests, replacing the external `rand` crate. The
//! stream is a pure function of the seed, so any run that records its seed
//! is exactly replayable — a requirement for deterministic fault
//! injection in virtual time.

/// FNV-1a over a byte stream: the workspace's stable fingerprint and its
/// host-independent way to derive an id (communicator contexts,
/// checkpoint checksums, every `*_fnv1a` artifact field).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Deterministic xorshift64* generator.
///
/// Not cryptographic; statistically plenty for fault sampling, jitter and
/// test-input generation.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Create a generator from a seed. Any seed is accepted; zero (which
    /// would trap plain xorshift in a fixed point) is remapped through a
    /// splitmix64 scramble like every other seed.
    pub fn new(seed: u64) -> Self {
        // splitmix64 scramble: decorrelates adjacent seeds (1, 2, 3, ...).
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        XorShift64 {
            state: if z == 0 { 0x4d59_5df4_d0f3_3173 } else { z },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[0, 1)` (single precision).
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `u64` in `[lo, hi)`. `hi` must exceed `lo`.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "gen_range_u64: empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`. `hi` must exceed `lo`.
    pub fn gen_range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.gen_range_u64(lo as u64, hi as u64) as usize
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fork an independent child stream (e.g. one per link) whose output
    /// is decorrelated from this stream and from other children.
    pub fn fork(&mut self, salt: u64) -> XorShift64 {
        XorShift64::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift64::new(0);
        let v: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(v.iter().any(|&x| x != 0));
    }

    #[test]
    fn unit_floats_in_range() {
        let mut r = XorShift64::new(7);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            let g = r.next_f32();
            assert!((0.0..1.0).contains(&g));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = XorShift64::new(11);
        for _ in 0..10_000 {
            let v = r.gen_range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn bernoulli_rate_roughly_matches() {
        let mut r = XorShift64::new(3);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.01)).count();
        assert!((500..1500).contains(&hits), "1% of 100k ≈ 1000, got {hits}");
    }

    #[test]
    fn forked_streams_are_decorrelated() {
        let mut root = XorShift64::new(5);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }
}
