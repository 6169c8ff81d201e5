//! Deterministic randomness and fast hashing.
//!
//! Every stochastic component of the testbed (scanner campaigns, incident
//! synthesis, layout jitter) draws from a [`SimRng`] seeded explicitly, so
//! any experiment is reproducible from its seed. The distribution helpers
//! cover what the scenario generators need (normal, Poisson, exponential,
//! log-normal, Pareto, Zipf) without pulling in `rand_distr`.
//!
//! [`FxHashMap`]/[`FxHashSet`] are std collections with the rustc-hash
//! (`FxHasher`) function — the Performance Book's recommended fast hasher
//! for integer-keyed hot maps.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Seedable RNG with the distribution helpers used across the workspace.
///
/// The generator is xoshiro256++ (Blackman & Vigna) seeded through
/// SplitMix64. It is part of the seed-reproducibility contract: every
/// seeded campaign, incident set and fault plan is defined by this stream.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second sample from the Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        // SplitMix64 expansion, as recommended by the xoshiro authors.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
            gauss_spare: None,
        }
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Unbiased uniform in `[0, bound)` (Lemire's multiply-and-reject).
    #[inline]
    fn bounded(&mut self, bound: u64) -> u64 {
        loop {
            let m = u128::from(self.next_u64()) * u128::from(bound);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Derive an independent child generator. Used to give each subsystem
    /// (scanners, incidents, legit traffic) its own stream so that adding
    /// draws to one does not perturb the others.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let s = self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed(s)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.bounded(hi - lo)
    }

    /// Uniform `usize` in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index over empty range");
        self.bounded(n as u64) as usize
    }

    /// Bernoulli trial with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        // `clamp` passes NaN through; the assert rejects it.
        let p = p.clamp(0.0, 1.0);
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.f64() < p
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Standard normal via the Box–Muller transform (polar-free form).
    pub fn std_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Avoid ln(0) by drawing u1 from (0, 1].
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.std_normal()
    }

    /// Poisson-distributed count. Knuth's product method for small `lambda`,
    /// rounded-normal approximation for large `lambda` (error negligible for
    /// the daily-volume scales used here).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0, "negative lambda");
        if lambda == 0.0 {
            return 0;
        }
        if lambda < 30.0 {
            let l = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.f64();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            self.normal(lambda, lambda.sqrt()).round().max(0.0) as u64
        }
    }

    /// Exponential with the given rate (`1/mean`).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "non-positive rate");
        -(1.0 - self.f64()).ln() / rate
    }

    /// Log-normal: `exp(N(mu, sigma))`. Models the heavy-tailed inter-alert
    /// gaps of the manual attack stage (Insight 3).
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Pareto with scale `x_min` and shape `alpha` (heavy-tailed sizes).
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min > 0.0 && alpha > 0.0);
        x_min / (1.0 - self.f64()).powf(1.0 / alpha)
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Weighted choice over indices; weights need not be normalized.
    ///
    /// # Panics
    /// Panics if all weights are zero or the slice is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted_index needs a positive total weight");
        let mut x = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

/// Precomputed Zipf sampler over ranks `0..n` (rank 0 most likely).
/// Mass scanner target selection and alert-kind popularity are Zipfian.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the sampler is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draw a rank in `0..n`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let x = rng.f64();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).unwrap())
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// The rustc-hash ("Fx") hash function: fast, non-cryptographic, ideal for
/// the integer-keyed hot maps of the simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(42);
        let mut b = SimRng::seed(42);
        for _ in 0..100 {
            assert_eq!(a.range_u64(0, 1_000_000), b.range_u64(0, 1_000_000));
        }
        assert_ne!(SimRng::seed(42).f64(), SimRng::seed(43).f64());
    }

    /// Pins the stream itself: every seeded experiment in the workspace is
    /// defined by these draws, so a change here is a change of results.
    #[test]
    fn known_answers_for_a_fixed_seed() {
        let mut r = SimRng::seed(2_809_840_877);
        let f: Vec<u64> = (0..4).map(|_| r.f64().to_bits()).collect();
        assert_eq!(
            f,
            [
                4_600_793_962_819_896_680,
                4_600_224_718_230_982_110,
                4_601_224_370_447_183_764,
                4_605_723_691_906_662_032
            ]
        );
        let ru: Vec<u64> = (0..4).map(|_| r.range_u64(10, 1_000_003)).collect();
        assert_eq!(ru, [538_235, 988_387, 117_621, 392_134]);
        let ix: Vec<usize> = (0..4).map(|_| r.index(7)).collect();
        assert_eq!(ix, [5, 6, 4, 2]);
        let ch: Vec<bool> = (0..8).map(|_| r.chance(0.3)).collect();
        assert_eq!(ch, [true, true, false, false, false, true, false, false]);
        let mut child = r.fork(5);
        assert_eq!(child.range_u64(0, u64::MAX), 11_875_903_306_081_306_146);
        assert_eq!(r.f64().to_bits(), 4_579_428_303_109_798_528);
    }

    #[test]
    fn unit_interval() {
        let mut r = SimRng::seed(7);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&r.f64()));
        }
    }

    #[test]
    fn range_bounds_and_coverage() {
        let mut r = SimRng::seed(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[r.index(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1_000 {
            assert!((5..7).contains(&r.range_u64(5, 7)));
        }
        assert_eq!(r.range_u64(3, 4), 3);
        // The widest range must not overflow.
        let _ = r.range_u64(0, u64::MAX);
    }

    #[test]
    fn bool_bias() {
        let mut r = SimRng::seed(11);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac {frac}");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut root = SimRng::seed(7);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let xs: Vec<u64> = (0..16).map(|_| a.range_u64(0, u64::MAX - 1)).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.range_u64(0, u64::MAX - 1)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed(1);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn poisson_mean_small_and_large_lambda() {
        let mut rng = SimRng::seed(2);
        for &lambda in &[3.0, 100.0] {
            let n = 50_000;
            let mean = (0..n).map(|_| rng.poisson(lambda)).sum::<u64>() as f64 / n as f64;
            assert!(
                (mean - lambda).abs() / lambda < 0.03,
                "lambda {lambda} mean {mean}"
            );
        }
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::seed(3);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn zipf_rank_zero_most_frequent() {
        let mut rng = SimRng::seed(4);
        let z = Zipf::new(50, 1.1);
        let mut counts = [0u32; 50];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[10]);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::seed(5);
        let mut hits = [0u32; 3];
        for _ in 0..30_000 {
            hits[rng.weighted_index(&[1.0, 2.0, 7.0])] += 1;
        }
        assert!(hits[2] > hits[1] && hits[1] > hits[0]);
        let frac = hits[2] as f64 / 30_000.0;
        assert!((frac - 0.7).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed(6);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fxhash_stable_and_distinct() {
        fn h(x: u64) -> u64 {
            let mut hasher = FxHasher::default();
            hasher.write_u64(x);
            hasher.finish()
        }
        assert_eq!(h(12345), h(12345));
        assert_ne!(h(12345), h(12346));
        let mut hasher = FxHasher::default();
        hasher.write(b"alert_download_sensitive");
        assert_ne!(hasher.finish(), 0);
    }

    #[test]
    fn fx_collections_usable() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(5432, "postgres");
        assert_eq!(m.get(&5432), Some(&"postgres"));
        let mut s: FxHashSet<u32> = FxHashSet::default();
        s.insert(22);
        assert!(s.contains(&22));
    }
}
