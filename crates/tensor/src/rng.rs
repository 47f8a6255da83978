//! Deterministic pseudo-random number generation.
//!
//! Experiments in the paper are averaged over seeded runs; all of our
//! dataset generators and weight initialisers take an explicit [`Rng64`] so
//! every figure is bit-reproducible. The generator is xoshiro256++ seeded
//! via SplitMix64 — tiny, fast, and good enough for simulation workloads
//! (this is not a cryptographic generator).

/// xoshiro256++ pseudo-random generator.
#[derive(Clone, Debug)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Create a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Rng64 {
        // SplitMix64 expansion of the seed into the xoshiro state.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        Rng64 { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits → double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.uniform() * (hi - lo)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        // Multiply-shift rejection-free mapping; bias is negligible for the
        // simulation sizes used here (n << 2^64).
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = self.uniform().max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.normal()
    }

    /// Bernoulli draw with probability `p`.
    pub fn coin(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Sample from `Laplace(0, scale)` — the mechanism used by the paper's
    /// label-differential-privacy experiment (§5.4).
    pub fn laplace(&mut self, scale: f64) -> f64 {
        let u = self.uniform() - 0.5;
        -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Split off an independent generator (for per-worker streams).
    pub fn fork(&mut self) -> Rng64 {
        Rng64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::new(43);
        assert_ne!(Rng64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Rng64::new(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "uniform mean {mean}");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng64::new(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng64::new(11);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "normal mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "normal var {var}");
    }

    #[test]
    fn laplace_scale() {
        let mut r = Rng64::new(13);
        let n = 20_000;
        let scale = 10.0; // epsilon = 0.1 as in the paper
        let mean_abs: f64 = (0..n).map(|_| r.laplace(scale).abs()).sum::<f64>() / n as f64;
        // E|Laplace(0,b)| = b.
        assert!(
            (mean_abs - scale).abs() < 0.5,
            "laplace mean abs {mean_abs}"
        );
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng64::new(5);
        let mut xs: Vec<usize> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
