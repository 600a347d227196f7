//! Deterministic random numbers and the distributions the workload
//! generators need.
//!
//! Every stochastic component in the workspace draws from a [`SimRng`]
//! seeded explicitly, so whole experiments replay bit-identically. The
//! generator core is an in-tree xoshiro256++ seeded through SplitMix64 —
//! the same construction the reference implementation recommends — so the
//! workspace carries no external RNG dependency and the byte streams are a
//! stable, documented contract (see the golden-vector tests below). The
//! distribution helpers are implemented directly (inverse-CDF or
//! Box-Muller) rather than pulling in `rand_distr`.

/// SplitMix64 step: used to expand a 64-bit seed into xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded pseudo-random number generator with distribution helpers.
///
/// The core is xoshiro256++ (Blackman & Vigna): 256 bits of state, 64-bit
/// output, period 2²⁵⁶−1. Seeding expands the `u64` seed via SplitMix64,
/// which guarantees a non-degenerate (non-zero) state for every seed.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second Box-Muller variate.
    gauss_spare: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            gauss_spare: None,
        }
    }

    /// Next raw 64-bit output of the xoshiro256++ core.
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

    /// Derives an independent child generator; useful for giving each
    /// workload stream its own deterministic substream.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64())
    }

    /// Uniform in `[0, 1)`, with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// Uses Lemire's multiply-shift method with rejection, so results are
    /// exactly uniform for every `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut m = (self.next_u64() as u128) * (n as u128);
        if (m as u64) < n {
            let threshold = n.wrapping_neg() % n;
            while (m as u64) < threshold {
                m = (self.next_u64() as u128) * (n as u128);
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed variate with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Inverse CDF; 1 - u avoids ln(0).
        -mean * (1.0 - self.f64()).ln()
    }

    /// Standard normal variate (Box-Muller with caching).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        let u1 = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * core::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sigma: f64) -> f64 {
        mean + sigma * self.gaussian()
    }

    /// Log-normally distributed variate parameterised by the mean and sigma
    /// of the *underlying* normal (i.e. `exp(N(mu, sigma))`).
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Pareto variate with scale `xm > 0` and shape `alpha > 0`; heavy
    /// tails for small `alpha`.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        debug_assert!(xm > 0.0 && alpha > 0.0);
        xm / (1.0 - self.f64()).powf(1.0 / alpha)
    }

    /// Picks an index weighted by `weights` (need not be normalised).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must have positive sum");
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// A Zipf-distributed sampler over ranks `0..n` with exponent `s`, for
/// any `n`.
///
/// # Examples
///
/// ```
/// use ssmc_sim::rng::Zipf;
/// use ssmc_sim::SimRng;
///
/// let mut zipf = Zipf::new(1.0);
/// let mut rng = SimRng::seed_from_u64(7);
/// let rank = zipf.sample(100, &mut rng);
/// assert!(rank < 100);
/// // The same sampler serves a population that shrinks or grows.
/// assert!(zipf.sample(3, &mut rng) < 3);
/// ```
///
/// Rank 0 is the most popular item. Sampling is exact (no rejection): a
/// binary search over the CDF of ranks `0..n`. The CDF is read off one
/// grow-only table of unnormalised prefix sums shared by every `n`, so a
/// draw costs O(log n) and the table only extends when `n` exceeds every
/// earlier `n` — the trace generators draw over a live-file population
/// that changes size on every operation.
#[derive(Debug, Clone)]
pub struct Zipf {
    s: f64,
    /// `acc[i]` is the sum of k^-s for k = 1..=i+1.
    acc: Vec<f64>,
}

impl Zipf {
    /// A sampler with skew exponent `s` (`s = 0` is uniform; `s ≈ 1` is
    /// classic Zipf).
    pub fn new(s: f64) -> Self {
        Zipf { s, acc: Vec::new() }
    }

    /// Samples a rank in `0..n`.
    ///
    /// Normalising each probe by `acc[n - 1]` reproduces, bit for bit, the
    /// CDF a sampler built for exactly `n` ranks would store, so the
    /// search makes the same comparisons and returns the same rank.
    /// (Comparing `acc[k]` with `u * acc[n - 1]` instead rounds
    /// differently, so a draw next to a rank boundary can land on the
    /// other side of it and change a seeded trace.)
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn sample(&mut self, n: usize, rng: &mut SimRng) -> usize {
        self.rank(n, rng.f64())
    }

    /// The rank in `0..n` whose CDF interval holds `u` (a draw in
    /// `[0, 1)`); an exact tie with a CDF value falls to the next rank.
    fn rank(&mut self, n: usize, u: f64) -> usize {
        assert!(n > 0, "Zipf over zero items");
        if n > self.acc.len() {
            self.extend_to(n);
        }
        let acc = &self.acc[..n];
        let total = acc[n - 1];
        match acc.binary_search_by(|p| (p / total).partial_cmp(&u).expect("CDF is finite")) {
            Ok(i) => (i + 1).min(n - 1),
            Err(i) => i.min(n - 1),
        }
    }

    /// Extends the prefix sums to `n` ranks, continuing the running sum
    /// in the same order a from-scratch build adds its terms.
    fn extend_to(&mut self, n: usize) {
        self.acc.reserve(n - self.acc.len());
        let mut acc = self.acc.last().copied().unwrap_or(0.0);
        for k in self.acc.len() + 1..=n {
            acc += 1.0 / (k as f64).powf(self.s);
            self.acc.push(acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.below(1_000_000), b.below(1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64)
            .filter(|_| a.below(1 << 30) == b.below(1 << 30))
            .count();
        assert!(same < 4);
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::seed_from_u64(42);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean was {mean}");
    }

    #[test]
    fn gaussian_moments_converge() {
        let mut rng = SimRng::seed_from_u64(42);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean was {mean}");
        assert!((var - 1.0).abs() < 0.05, "var was {var}");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..1_000 {
            assert!(rng.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn weighted_matches_ratios() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[rng.weighted(&[1.0, 2.0, 1.0])] += 1;
        }
        let mid = counts[1] as f64 / 30_000.0;
        assert!((mid - 0.5).abs() < 0.02, "mid share was {mid}");
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let mut z = Zipf::new(1.0);
        let mut rng = SimRng::seed_from_u64(11);
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[z.sample(100, &mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // Harmonic(100) ≈ 5.187; expected share of rank 0 ≈ 19 %.
        let share = counts[0] as f64 / 50_000.0;
        assert!((share - 0.193).abs() < 0.02, "share was {share}");
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let mut z = Zipf::new(0.0);
        let mut rng = SimRng::seed_from_u64(13);
        let mut counts = vec![0u32; 10];
        for _ in 0..50_000 {
            counts[z.sample(10, &mut rng)] += 1;
        }
        for &c in &counts {
            let share = c as f64 / 50_000.0;
            assert!((share - 0.1).abs() < 0.02, "share was {share}");
        }
    }

    /// The sampler the shared table replaced, kept as the reference it
    /// must match draw for draw: a normalised CDF built from scratch for
    /// exactly `n` ranks.
    struct PerCallZipf {
        cdf: Vec<f64>,
    }

    impl PerCallZipf {
        fn new(n: usize, s: f64) -> Self {
            let mut cdf = Vec::with_capacity(n);
            let mut acc = 0.0;
            for k in 1..=n {
                acc += 1.0 / (k as f64).powf(s);
                cdf.push(acc);
            }
            let total = acc;
            for v in &mut cdf {
                *v /= total;
            }
            PerCallZipf { cdf }
        }

        fn rank(&self, u: f64) -> usize {
            match self
                .cdf
                .binary_search_by(|p| p.partial_cmp(&u).expect("CDF is finite"))
            {
                Ok(i) => (i + 1).min(self.cdf.len() - 1),
                Err(i) => i.min(self.cdf.len() - 1),
            }
        }
    }

    /// The five generator profiles' recency skews (0.6, 0.9, 1.0, 1.1),
    /// plus uniform and a steeper one.
    const SKEWS: [f64; 6] = [0.0, 0.6, 0.9, 1.0, 1.1, 1.5];

    /// Draws `draws` ranks over `n` from `z` and from a per-call CDF on
    /// twin generators seeded with `seed`; they must agree.
    fn assert_draws_match(z: &mut Zipf, n: usize, s: f64, seed: u64, draws: usize) {
        let reference = PerCallZipf::new(n, s);
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = a.clone();
        for _ in 0..draws {
            assert_eq!(z.sample(n, &mut a), reference.rank(b.f64()), "n {n}, s {s}");
        }
    }

    #[test]
    fn zipf_matches_per_call_cdf_for_every_n() {
        for s in SKEWS {
            let mut z = Zipf::new(s);
            // Growing: each n extends the table by one rank.
            for n in 1..=2_000 {
                assert_draws_match(&mut z, n, s, n as u64, 3);
            }
            // Shrinking: each n reads a prefix of the full table.
            for n in (1..=2_000).rev() {
                assert_draws_match(&mut z, n, s, !(n as u64), 3);
            }
            // Jumping both ways over a fresh table.
            let mut z = Zipf::new(s);
            let mut pick = SimRng::seed_from_u64(s.to_bits());
            for i in 0..1_000 {
                let n = 1 + pick.below(2_000) as usize;
                assert_draws_match(&mut z, n, s, i, 2);
            }
        }
    }

    #[test]
    fn zipf_breaks_exact_ties_like_per_call_cdf() {
        // A uniform draw almost never lands on a CDF value, so probe
        // each one and its neighbours directly.
        for s in SKEWS {
            let mut z = Zipf::new(s);
            for n in (1..=300).rev() {
                let reference = PerCallZipf::new(n, s);
                for &c in &reference.cdf {
                    for u in [c.next_down(), c, c.next_up()] {
                        if (0.0..1.0).contains(&u) {
                            assert_eq!(z.rank(n, u), reference.rank(u), "n {n}, s {s}, u {u}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SimRng::seed_from_u64(5);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let same = (0..64)
            .filter(|_| c1.below(1 << 30) == c2.below(1 << 30))
            .count();
        assert!(same < 4);
    }

    // ---- golden vectors: the byte stream is a frozen contract --------
    //
    // These pin the exact outputs of the in-tree xoshiro256++/SplitMix64
    // core. If any of them change, every seeded experiment in the
    // workspace replays differently — treat that as an API break.

    #[test]
    fn golden_reference_state_matches_published_xoshiro_vectors() {
        // First outputs of xoshiro256++ from the canonical C reference,
        // for the state {1, 2, 3, 4}.
        let mut r = SimRng {
            s: [1, 2, 3, 4],
            gauss_spare: None,
        };
        let got: Vec<u64> = (0..5).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            [
                41943041,
                58720359,
                3588806011781223,
                3591011842654386,
                9228616714210784205,
            ]
        );
    }

    #[test]
    fn golden_next_u64_vector() {
        let mut r = SimRng::seed_from_u64(42);
        let got: Vec<u64> = (0..6).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            [
                15021278609987233951,
                5881210131331364753,
                18149643915985481100,
                12933668939759105464,
                14637574242682825331,
                10848501901068131965,
            ]
        );
    }

    #[test]
    fn golden_f64_vector() {
        let mut r = SimRng::seed_from_u64(42);
        let got: Vec<u64> = (0..4).map(|_| r.f64().to_bits()).collect();
        // Bit-exact doubles in [0, 1).
        assert_eq!(
            got,
            [
                4605509828241559245, // 0.8143051451229099
                4599414989186784204, // 0.3188210400616611
                4607037350363628701, // 0.9838941681774888
                4604490487582268166, // 0.7011355981347556
            ]
        );
    }

    #[test]
    fn golden_below_vector() {
        let mut r = SimRng::seed_from_u64(7);
        let got: Vec<u64> = (0..8).map(|_| r.below(1000)).collect();
        assert_eq!(got, [55, 172, 717, 427, 963, 465, 723, 329]);
    }

    #[test]
    fn golden_gaussian_vector() {
        let mut r = SimRng::seed_from_u64(9);
        let got: Vec<u64> = (0..4).map(|_| r.gaussian().to_bits()).collect();
        assert_eq!(
            got,
            [
                13829791541274867924, // -0.9152994889589317
                4601463934031235271,  //  0.43256032718649035
                4608712336685708119,  //  1.3397100124959331
                13831450670945230849, // -1.1989997700929964
            ]
        );
    }

    #[test]
    fn golden_zipf_vector() {
        let mut z = Zipf::new(1.0);
        let mut r = SimRng::seed_from_u64(11);
        let got: Vec<usize> = (0..10).map(|_| z.sample(100, &mut r)).collect();
        assert_eq!(got, [48, 36, 82, 12, 1, 22, 0, 0, 33, 3]);
    }

    #[test]
    fn golden_fork_vector() {
        let mut parent = SimRng::seed_from_u64(5);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let g1: Vec<u64> = (0..3).map(|_| c1.next_u64()).collect();
        let g2: Vec<u64> = (0..3).map(|_| c2.next_u64()).collect();
        assert_eq!(
            g1,
            [
                10623351763118241822,
                7381592430467207457,
                15619837783059356923,
            ]
        );
        assert_eq!(
            g2,
            [
                12771852734970923968,
                3065927695534090432,
                9074153703419135067,
            ]
        );
    }
}
