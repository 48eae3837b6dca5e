//! Key-selection distributions.
//!
//! The paper drives its NoSQL stores with YCSB (§4.3): Zipfian request
//! distributions for Aerospike and Cassandra, and a hotspot distribution
//! for Redis where "0.01% of the keys account for 90% of the traffic".
//! These generators reproduce those shapes deterministically.

use thermo_util::rng::Rng;
use thermo_util::rng::SmallRng;

/// A distribution over integer keys `0..n`.
pub trait KeyDist {
    /// Number of keys.
    fn n(&self) -> u64;

    /// Draws one key.
    fn sample(&self, rng: &mut SmallRng) -> u64;
}

/// Uniform over `0..n`.
#[derive(Debug, Clone)]
pub struct UniformDist {
    n: u64,
}

impl UniformDist {
    /// Uniform over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "empty key space");
        Self { n }
    }
}

impl KeyDist for UniformDist {
    fn n(&self) -> u64 {
        self.n
    }

    fn sample(&self, rng: &mut SmallRng) -> u64 {
        rng.gen_range(0..self.n)
    }
}

/// The YCSB Zipfian generator (Gray et al.'s "quickly generating
/// billion-record synthetic databases" rejection-free algorithm).
///
/// Rank 0 is the most popular key; popularity of rank `r` is proportional
/// to `1 / (r+1)^theta`.
#[derive(Debug, Clone)]
pub struct ZipfianDist {
    n: u64,
    theta: f64,
    alpha: f64,
    eta: f64,
    /// First-level index over `head_x`: `index[k]` is the number of head
    /// boundaries at or below `k / index.len()`, so a sample's search
    /// range narrows to `[index[k], index[k+1]]` — usually 0 or 1 entries
    /// for the popular ranks, making the common case O(1).
    index: std::sync::Arc<[u32]>,
    /// Inverse-CDF head table on the integer draw lattice: `head_x[j]` is
    /// the smallest 53-bit draw `x` (the integer behind `rng.gen::<f64>()`,
    /// `u = x / 2^53` exactly) whose power-curve rank reaches `j + 1`.
    /// Derived bit-exactly from the f64 boundary table (see
    /// [`head_table`](Self::head_table)): `head_x[j] = ceil(head[j]·2^53)`,
    /// an exact computation because multiplying an f64 by a power of two
    /// only shifts its exponent. Comparing `head_x[j] <= x` is therefore
    /// *identical* to comparing `head[j] <= u` — but in one integer compare
    /// on the hot path instead of a float one.
    head_x: std::sync::Arc<[u64]>,
    /// Whether the head table covers every rank below `n - 1`.
    head_full: bool,
    /// Draws below `x0` have `u·zeta_n < 1.0` (rank 0); below `x1`,
    /// `u·zeta_n < 1 + (1/2)^theta` (rank 1); below `x_last`, the head
    /// table resolves the rank. Each is the exact lattice threshold of the
    /// corresponding f64 comparison, found by bisection over `x` — the f64
    /// predicate is monotone in `x`, so the integer compare agrees with the
    /// float compare for *every* possible draw.
    x0: u64,
    x1: u64,
    x_last: u64,
}

impl ZipfianDist {
    /// YCSB's default skew.
    pub const YCSB_THETA: f64 = 0.99;

    /// Builds a Zipfian distribution over `0..n` with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty key space");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0,1), got {theta}"
        );
        let zeta_n = Self::zeta(n, theta);
        let zeta_theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_theta / zeta_n);
        let (_, index, head_x) = Self::head_table(n, theta, alpha, eta);
        Self {
            n,
            theta,
            alpha,
            eta,
            x0: Self::x_threshold(zeta_n, 1.0),
            x1: Self::x_threshold(zeta_n, 1.0 + 0.5f64.powf(theta)),
            x_last: head_x.last().copied().unwrap_or(0),
            head_full: head_x.len() as u64 == n - 1,
            index,
            head_x,
        }
    }

    /// The draw lattice: `rng.gen::<f64>()` is exactly `x / 2^53` for a
    /// 53-bit integer `x` (see `thermo_util::rng`), so every f64 comparison
    /// in `sample` has an exact integer-threshold equivalent.
    const LATTICE: u64 = 1 << 53;

    /// Smallest lattice point `x` whose unit draw `u = x / 2^53` satisfies
    /// `u * zeta_n >= target`, found by bisection — `u` is exact and the
    /// f64 product is nondecreasing in `u`, so the predicate is monotone.
    /// Returns `2^53` (past every possible draw) when no draw reaches the
    /// target: `x < threshold` then holds always, exactly like the float
    /// comparison it replaces.
    fn x_threshold(zeta_n: f64, target: f64) -> u64 {
        let scale = 1.0 / Self::LATTICE as f64;
        let reaches = |x: u64| (x as f64 * scale) * zeta_n >= target;
        if !reaches(Self::LATTICE) {
            return Self::LATTICE;
        }
        let (mut lo, mut hi) = (0u64, Self::LATTICE);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if reaches(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Ranks covered by the inverse-CDF head table. Sized so the table
    /// (128KB worst case, shared process-wide) absorbs the bulk of the
    /// u-space at YCSB skews while staying cheap to build.
    const HEAD_RANKS: u64 = 16384;

    /// Buckets in the first-level index. A power of two, so `u * BUCKETS`
    /// is an exact f64 product (exponent shift only) and the bucket of `u`
    /// is computed without rounding — the index lookup is bit-exact.
    const INDEX_BUCKETS: usize = 16384;

    /// The power-curve rank `sample`'s general branch computes — the
    /// oracle the head table must agree with bit-for-bit.
    #[inline]
    fn power_rank(n: u64, alpha: f64, eta: f64, u: f64) -> u64 {
        let rank = (n as f64 * (eta * u - eta + 1.0).powf(alpha)) as u64;
        rank.min(n - 1)
    }

    /// Builds (memoized process-wide, like [`zeta`](Self::zeta)) the head
    /// boundary table: `head[j]` is the smallest `f64` in `[0, 1]` whose
    /// [`power_rank`](Self::power_rank) is at least `j + 1`.
    ///
    /// `power_rank` is nondecreasing in `u` (`eta >= 0`, `alpha > 0`, and
    /// the base stays in `[0, 1]`), so each boundary is found by exact
    /// bisection over the f64 bit lattice — positive doubles compare like
    /// their bit patterns — seeded from the analytic inverse
    /// `u = (((j+1)/n)^(1/alpha) - 1 + eta) / eta` to keep the bracket a
    /// few thousand ulps wide. The result is a pure function of
    /// `(n, theta)`; which worker builds it first is unobservable.
    #[allow(clippy::type_complexity)]
    fn head_table(
        n: u64,
        theta: f64,
        alpha: f64,
        eta: f64,
    ) -> (
        std::sync::Arc<[f64]>,
        std::sync::Arc<[u32]>,
        std::sync::Arc<[u64]>,
    ) {
        use std::sync::{Arc, Mutex};
        type Cache = std::collections::BTreeMap<(u64, u64), (Arc<[f64]>, Arc<[u32]>, Arc<[u64]>)>;
        static CACHE: Mutex<Option<Cache>> = Mutex::new(None);
        let key = (n, theta.to_bits());
        {
            let mut guard = CACHE.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(t) = guard.get_or_insert_with(Default::default).get(&key) {
                return t.clone();
            }
        }
        let covered = n.saturating_sub(1).min(Self::HEAD_RANKS);
        let one = 1.0f64.to_bits();
        let mut head = Vec::with_capacity(covered as usize);
        let mut floor = 0u64; // boundaries ascend: previous result bounds the next
        for j in 0..covered {
            let target = j + 1;
            if Self::power_rank(n, alpha, eta, 1.0) < target {
                // Unreachable rank (tiny n edge): no u maps this high.
                head.push(f64::from_bits(one));
                floor = one;
                continue;
            }
            // Bracket [lo, hi] in bit space with rank(lo) < target <= rank(hi),
            // starting from a window around the analytic seed.
            let seed = (((target as f64 / n as f64).powf(1.0 / alpha) - 1.0 + eta) / eta)
                .clamp(0.0, 1.0)
                .to_bits();
            let mut lo = floor;
            let mut hi = one;
            for w in [1u64 << 12, 1 << 24] {
                let (a, b) = (
                    seed.saturating_sub(w).max(floor),
                    seed.saturating_add(w).min(one),
                );
                if a < b
                    && Self::power_rank(n, alpha, eta, f64::from_bits(a)) < target
                    && Self::power_rank(n, alpha, eta, f64::from_bits(b)) >= target
                {
                    lo = a;
                    hi = b;
                    break;
                }
            }
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if Self::power_rank(n, alpha, eta, f64::from_bits(mid)) >= target {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            head.push(f64::from_bits(lo));
            floor = lo;
        }
        let head: Arc<[f64]> = head.into();
        // First-level index: `index[k]` is the first head slot whose
        // boundary reaches `k / INDEX_BUCKETS`. Boundaries ascend, so one
        // linear merge builds it. For `u` in bucket `k` (exactly
        // `k/B <= u < (k+1)/B`, since B is a power of two) every boundary
        // below slot `index[k]` is `<= u` and every boundary at or past
        // slot `index[k+1]` is `> u` — the search collapses to the slice
        // between them.
        let b = Self::INDEX_BUCKETS;
        let mut index = Vec::with_capacity(b + 1);
        let mut j = 0usize;
        for k in 0..=b {
            let lo = k as f64 / b as f64;
            while j < head.len() && head[j] < lo {
                j += 1;
            }
            index.push(j as u32);
        }
        let index: Arc<[u32]> = index.into();
        // Integer-lattice mirror of the boundary table: `t·2^53` is exact
        // (power-of-two multiply), so `ceil` lands on the first draw `x`
        // with `t <= x/2^53`. A boundary of exactly 1.0 (unreachable rank)
        // maps to `2^53`, past every draw — counted never, like the float.
        let head_x: Arc<[u64]> = head
            .iter()
            .map(|&t| (t * Self::LATTICE as f64).ceil() as u64)
            .collect();
        CACHE
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_or_insert_with(Default::default)
            .insert(key, (head.clone(), index.clone(), head_x.clone()));
        (head, index, head_x)
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct summation, memoized process-wide: sharded sweeps construct
        // thousands of distributions over the same handful of (n, theta)
        // pairs, and the O(n) powf sum dominated their setup. The cached
        // value is a pure function of the key, so which worker computes it
        // first is unobservable.
        use std::sync::Mutex;
        static CACHE: Mutex<Option<std::collections::BTreeMap<(u64, u64), f64>>> = Mutex::new(None);
        let key = (n, theta.to_bits());
        {
            let mut guard = CACHE.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(v) = guard.get_or_insert_with(Default::default).get(&key) {
                return *v;
            }
        }
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        CACHE
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_or_insert_with(Default::default)
            .insert(key, sum);
        sum
    }

    /// Counts the head boundaries at or below draw `x` — the power-curve
    /// rank of `u = x/2^53` within the table — via the first-level index:
    /// the bucket of `u` is `x >> (53 - log2(INDEX_BUCKETS))` (exact, both
    /// are powers of two), then a search over the
    /// usually-empty-or-single-entry slice between the bucket's bounds.
    /// Equal to the full-table `head.partition_point(|&t| t <= u)` by the
    /// index invariant: a boundary `t < k/B` has `head_x <= k·2^39 <= x`,
    /// and one with `t >= (k+1)/B` has `head_x >= (k+1)·2^39 > x`.
    #[inline]
    fn head_rank_x(&self, x: u64) -> u64 {
        let b = self.index.len() - 1;
        let k = ((x >> (53 - Self::INDEX_BUCKETS.trailing_zeros())) as usize).min(b - 1);
        let lo = self.index[k] as usize;
        let hi = self.index[k + 1] as usize;
        (lo + self.head_x[lo..hi].partition_point(|&t| t <= x)) as u64
    }

    /// Skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

impl KeyDist for ZipfianDist {
    fn n(&self) -> u64 {
        self.n
    }

    fn sample(&self, rng: &mut SmallRng) -> u64 {
        // The entire decision runs on the integer draw lattice: `x` is the
        // 53-bit integer behind `rng.gen::<f64>()`, and `x0`/`x1`/`x_last`/
        // `head_x` are the exact lattice thresholds of the historical f64
        // comparisons (`u·zeta_n < 1`, `< 1 + (1/2)^theta`, `u < last`,
        // `head[j] <= u`) — same branch taken for every possible draw,
        // with zero float ops until the rare powf tail.
        let x = rng.next_u64() >> 11;
        if x < self.x0 {
            return 0;
        }
        if x < self.x1 {
            return 1;
        }
        // The head table resolves the popular ranks without a `powf`:
        // counting the boundaries at or below the draw IS the power-curve
        // rank (each boundary is the exact lattice point where the rank
        // first reaches its index + 1). Only the tail beyond the table —
        // or beyond-head ranks of a very large key space — pays for the
        // powf, reconstructing the identical `u` the f64 path drew.
        if self.head_full || x < self.x_last {
            return self.head_rank_x(x);
        }
        let u = x as f64 * (1.0 / Self::LATTICE as f64);
        Self::power_rank(self.n, self.alpha, self.eta, u)
    }
}

/// Scrambles Zipfian ranks over the key space so popular keys are spread
/// across pages rather than clustered at low addresses (YCSB's
/// "scrambled zipfian"). Spreading matters here: Thermostat works at page
/// granularity, and real stores hash keys into memory.
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: ZipfianDist,
    /// Precomputed magic for the `% n` spreading a rank over the key
    /// space — exact, as in [`HotspotDist`].
    n_mod: thermo_util::fastdiv::FastMod,
}

impl ScrambledZipfian {
    /// Scrambled Zipfian over `0..n` with YCSB's default theta.
    pub fn new(n: u64) -> Self {
        Self::with_theta(n, ZipfianDist::YCSB_THETA)
    }

    /// Scrambled Zipfian with explicit skew.
    pub fn with_theta(n: u64, theta: f64) -> Self {
        let inner = ZipfianDist::new(n, theta);
        Self {
            n_mod: thermo_util::fastdiv::FastMod::new(n),
            inner,
        }
    }
}

/// 64-bit finalizer (splitmix64) used as the scrambling hash.
pub fn fnv_mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl KeyDist for ScrambledZipfian {
    fn n(&self) -> u64 {
        self.inner.n()
    }

    fn sample(&self, rng: &mut SmallRng) -> u64 {
        let rank = self.inner.sample(rng);
        self.n_mod.rem(fnv_mix(rank))
    }
}

/// The Redis hotspot distribution: a fraction of keys receives a fraction
/// of the traffic. Within the hot set, popularity follows a Zipfian curve
/// (real key popularity is heavily skewed — the paper's value-size citation
/// [12] documents the same for Facebook's workloads); the residual traffic
/// is uniform over the whole key space.
#[derive(Debug, Clone)]
pub struct HotspotDist {
    n: u64,
    hot_keys: u64,
    /// Exact lattice threshold of the hot/cold draw: `x < x_hot` iff the
    /// f64 draw `u = x/2^53` satisfies `u < hot_traffic_fraction`
    /// (`ceil(fraction·2^53)`, exact — power-of-two multiply).
    x_hot: u64,
    /// Precomputed magic for the `% n` spreading the hot rank over the key
    /// space — exact, so keys are bit-identical to the hardware modulo.
    n_mod: thermo_util::fastdiv::FastMod,
    hot_rank: ZipfianDist,
}

impl HotspotDist {
    /// `hot_key_fraction` of the keys get `hot_traffic_fraction` of the
    /// accesses. The paper's Redis load: 0.01% of keys, 90% of traffic.
    ///
    /// # Panics
    ///
    /// Panics on an empty key space or fractions outside `(0, 1)`.
    pub fn new(n: u64, hot_key_fraction: f64, hot_traffic_fraction: f64) -> Self {
        assert!(n > 0, "empty key space");
        assert!((0.0..1.0).contains(&hot_key_fraction) && hot_key_fraction > 0.0);
        assert!((0.0..1.0).contains(&hot_traffic_fraction) && hot_traffic_fraction > 0.0);
        let hot_keys = ((n as f64 * hot_key_fraction).ceil() as u64).max(1);
        Self {
            n,
            hot_keys,
            x_hot: (hot_traffic_fraction * ZipfianDist::LATTICE as f64).ceil() as u64,
            n_mod: thermo_util::fastdiv::FastMod::new(n),
            hot_rank: ZipfianDist::new(hot_keys, 0.9),
        }
    }

    /// The paper's Redis configuration over `n` keys.
    pub fn paper_redis(n: u64) -> Self {
        Self::new(n, 0.0001, 0.90)
    }

    /// Number of hot keys.
    pub fn hot_keys(&self) -> u64 {
        self.hot_keys
    }
}

impl KeyDist for HotspotDist {
    fn n(&self) -> u64 {
        self.n
    }

    fn sample(&self, rng: &mut SmallRng) -> u64 {
        // Integer form of `rng.gen::<f64>() < hot_traffic` — same draw,
        // same branch, no float ops (see `x_hot`).
        if rng.next_u64() >> 11 < self.x_hot {
            // Zipf-weighted rank within the hot set, spread over the key
            // space by the scrambling hash (hash-table layout).
            let k = self.hot_rank.sample(rng);
            self.n_mod.rem(fnv_mix(k))
        } else {
            rng.gen_range(0..self.n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermo_util::rng::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn histogram(dist: &dyn KeyDist, samples: usize) -> Vec<u64> {
        let mut rng = rng();
        let mut h = vec![0u64; dist.n() as usize];
        for _ in 0..samples {
            h[dist.sample(&mut rng) as usize] += 1;
        }
        h
    }

    #[test]
    fn uniform_is_flat() {
        let d = UniformDist::new(100);
        let h = histogram(&d, 100_000);
        let (min, max) = (h.iter().min().unwrap(), h.iter().max().unwrap());
        assert!(
            *min > 700 && *max < 1300,
            "uniform too skewed: {min}..{max}"
        );
    }

    #[test]
    fn zipfian_head_dominates() {
        let d = ZipfianDist::new(1000, 0.99);
        let h = histogram(&d, 200_000);
        // Rank 0 should take roughly 1/zeta(1000) ~ 13% of traffic.
        let frac0 = h[0] as f64 / 200_000.0;
        assert!(frac0 > 0.08 && frac0 < 0.20, "rank-0 fraction {frac0}");
        // Top 10% of ranks take the majority.
        let head: u64 = h[..100].iter().sum();
        assert!(head as f64 / 200_000.0 > 0.6);
    }

    #[test]
    fn zipfian_samples_in_range() {
        let d = ZipfianDist::new(37, 0.5);
        let mut rng = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) < 37);
        }
    }

    #[test]
    fn scrambled_zipfian_spreads_popularity() {
        let d = ScrambledZipfian::new(1000);
        let h = histogram(&d, 200_000);
        // The most popular scrambled key is NOT key 0 in general, and the
        // top key still has zipfian-scale popularity.
        let max = *h.iter().max().unwrap();
        assert!(max as f64 / 200_000.0 > 0.08);
        // Popularity must not be concentrated in the low indices.
        let low: u64 = h[..100].iter().sum();
        assert!(
            (low as f64 / 200_000.0) < 0.5,
            "scramble failed to spread head"
        );
    }

    #[test]
    fn scrambled_zipfian_reduces_exactly_like_the_hardware_modulo() {
        // Powers of two take FastMod's mask path, n = 1 the degenerate
        // divisor, and odd n the multiply-shift path.
        for n in [1u64, 2, 64, 4096, 1 << 16, 3, 37, 999, 100_003] {
            let d = ScrambledZipfian::new(n);
            let (mut a, mut b) = (rng(), rng());
            for _ in 0..5_000 {
                let want = fnv_mix(d.inner.sample(&mut b)) % n;
                assert_eq!(d.sample(&mut a), want, "n={n}");
            }
        }
    }

    #[test]
    fn hotspot_traffic_split_matches_config() {
        let d = HotspotDist::new(100_000, 0.001, 0.9); // 100 hot keys
        assert_eq!(d.hot_keys(), 100);
        let mut rng = rng();
        let hot_set: std::collections::HashSet<u64> =
            (0..d.hot_keys()).map(|k| fnv_mix(k) % 100_000).collect();
        let mut hot_hits = 0;
        let n = 100_000;
        for _ in 0..n {
            if hot_set.contains(&d.sample(&mut rng)) {
                hot_hits += 1;
            }
        }
        let frac = hot_hits as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "hot traffic fraction {frac}");
    }

    #[test]
    fn paper_redis_hotspot_shape() {
        let d = HotspotDist::paper_redis(4_000_000);
        assert_eq!(d.hot_keys(), 400);
    }

    #[test]
    fn determinism_same_seed() {
        let d = ZipfianDist::new(10_000, 0.99);
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "empty key space")]
    fn zero_keys_panics() {
        UniformDist::new(0);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn bad_theta_panics() {
        ZipfianDist::new(10, 1.5);
    }

    #[test]
    fn head_table_matches_power_curve_exactly() {
        // The inverse-CDF head table must agree with the powf formula for
        // every drawn u — including the boundary neighbourhoods. Probe
        // dense uniform u plus the exact boundary values and their
        // predecessors for several (n, theta) shapes.
        for &(n, theta) in &[
            (37u64, 0.5f64),
            (400, 0.9),
            (100_000, 0.99),
            (4_000_000, 0.99),
        ] {
            let d = ZipfianDist::new(n, theta);
            let (head, _, _) = ZipfianDist::head_table(n, theta, d.alpha, d.eta);
            let check = |u: f64| {
                let direct = ZipfianDist::power_rank(n, d.alpha, d.eta, u);
                let covered = head.len() as u64;
                let via_table = if covered == n - 1 || head.last().is_some_and(|&l| u < l) {
                    Some(head.partition_point(|&t| t <= u) as u64)
                } else {
                    None
                };
                if let Some(t) = via_table {
                    assert_eq!(t, direct, "n={n} theta={theta} u={u}");
                }
            };
            for i in 0..20_000u64 {
                check(i as f64 / 20_000.0);
            }
            for &b in head.iter().take(512) {
                check(b);
                check(f64::from_bits(b.to_bits().saturating_sub(1)));
            }
        }
    }

    #[test]
    fn index_narrowed_search_matches_full_partition_point() {
        // The integer head search must agree with the f64 full-table
        // partition point for every lattice draw — probe dense x, every
        // bucket boundary, and every head boundary, all ± 1 lattice step.
        for &(n, theta) in &[(37u64, 0.5f64), (400, 0.9), (100_000, 0.99)] {
            let d = ZipfianDist::new(n, theta);
            let (head, _, _) = ZipfianDist::head_table(n, theta, d.alpha, d.eta);
            let check = |x: u64| {
                if x >= ZipfianDist::LATTICE {
                    return; // rng draws are in [0, 2^53)
                }
                let u = x as f64 * (1.0 / ZipfianDist::LATTICE as f64);
                assert_eq!(
                    d.head_rank_x(x),
                    head.partition_point(|&t| t <= u) as u64,
                    "n={n} theta={theta} x={x}"
                );
            };
            let step = ZipfianDist::LATTICE / 20_000;
            for i in 0..20_000u64 {
                check(i * step);
            }
            check(ZipfianDist::LATTICE - 1);
            let b = (d.index.len() - 1) as u64;
            let bucket_shift = 53 - (d.index.len() - 1).trailing_zeros();
            for k in 0..b.min(4096) {
                let edge = k << bucket_shift;
                check(edge.saturating_sub(1));
                check(edge);
                check(edge + 1);
            }
            for &hx in d.head_x.iter() {
                check(hx.saturating_sub(1));
                check(hx);
                check(hx + 1);
            }
        }
    }

    #[test]
    fn integer_branch_thresholds_match_float_comparisons() {
        // Every branch `sample` takes on the integer lattice must match
        // the historical f64 comparison at the same draw — probe densely
        // plus each threshold's neighbourhood.
        for &(n, theta) in &[(37u64, 0.5f64), (400, 0.9), (250_000, 0.99)] {
            let d = ZipfianDist::new(n, theta);
            let zeta_n = ZipfianDist::zeta(n, theta);
            let half_pow_theta = 0.5f64.powf(theta);
            let (head, _, _) = ZipfianDist::head_table(n, theta, d.alpha, d.eta);
            let check = |x: u64| {
                if x >= ZipfianDist::LATTICE {
                    return;
                }
                let u = x as f64 * (1.0 / ZipfianDist::LATTICE as f64);
                let uz = u * zeta_n;
                assert_eq!(x < d.x0, uz < 1.0, "x0: n={n} theta={theta} x={x}");
                assert_eq!(
                    x < d.x1,
                    uz < 1.0 + half_pow_theta,
                    "x1: n={n} theta={theta} x={x}"
                );
                assert_eq!(
                    x < d.x_last,
                    head.last().is_some_and(|&last| u < last),
                    "x_last: n={n} theta={theta} x={x}"
                );
            };
            for t in [d.x0, d.x1, d.x_last] {
                for dx in 0..4u64 {
                    check(t.saturating_sub(dx));
                    check(t + dx);
                }
            }
            let step = ZipfianDist::LATTICE / 10_000;
            for i in 0..10_000u64 {
                check(i * step);
            }
        }
    }

    #[test]
    fn head_table_sampling_matches_formula_only_sampling() {
        // End to end: a dist sampled through the table must produce the
        // same stream as the pre-table formula. Reconstruct the formula
        // path by hand and compare.
        let d = ZipfianDist::new(250_000, 0.99);
        let zeta_n = ZipfianDist::zeta(d.n, d.theta);
        let half_pow_theta = 0.5f64.powf(d.theta);
        let mut a = SmallRng::seed_from_u64(99);
        let mut b = SmallRng::seed_from_u64(99);
        for _ in 0..50_000 {
            let got = d.sample(&mut a);
            let u: f64 = b.gen();
            let uz = u * zeta_n;
            let want = if uz < 1.0 {
                0
            } else if uz < 1.0 + half_pow_theta {
                1
            } else {
                ZipfianDist::power_rank(d.n, d.alpha, d.eta, u)
            };
            assert_eq!(got, want);
        }
    }
}
