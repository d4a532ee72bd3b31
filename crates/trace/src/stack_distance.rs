//! Power-law stack-distance trace generation.
//!
//! The power law of cache misses is equivalent to a statement about a
//! workload's *LRU stack distances*: for a fully-associative LRU cache of
//! `C` lines, the miss rate equals the probability that an access's reuse
//! distance is at least `C`. Sampling reuse distances from a Pareto
//! distribution with shape `α` therefore produces an address stream whose
//! miss rate follows `m ∝ C^-α` *by construction* — this generator is the
//! synthetic stand-in for the paper's commercial workload traces
//! (Figure 1).

use crate::access::{AccessKind, MemoryAccess, TraceSource};
use bandwall_numerics::Rng;
use std::collections::VecDeque;

/// Builder for [`StackDistanceTrace`].
///
/// # Examples
///
/// ```
/// use bandwall_trace::StackDistanceTrace;
///
/// let trace = StackDistanceTrace::builder(0.48)
///     .seed(7)
///     .line_size(64)
///     .write_fraction(0.3)
///     .min_distance(4)
///     .max_distance(1 << 18)
///     .name("OLTP-like")
///     .build();
/// assert_eq!(trace.alpha(), 0.48);
/// ```
#[derive(Debug, Clone)]
pub struct StackDistanceTraceBuilder {
    alpha: f64,
    seed: u64,
    line_size: u64,
    write_fraction: f64,
    min_distance: usize,
    max_distance: usize,
    touched_words: u32,
    name: String,
}

impl StackDistanceTraceBuilder {
    /// Sets the RNG seed (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the cache-line size in bytes (default 64).
    ///
    /// # Panics
    ///
    /// `build` panics unless the size is a power of two ≥ 8.
    #[must_use]
    pub fn line_size(mut self, bytes: u64) -> Self {
        self.line_size = bytes;
        self
    }

    /// Fraction of accesses that are writes (default 0.25).
    #[must_use]
    pub fn write_fraction(mut self, fraction: f64) -> Self {
        self.write_fraction = fraction;
        self
    }

    /// Minimum reuse distance `x_m` of the Pareto distribution (default 2).
    /// Below this distance the trace always hits; the power law holds for
    /// caches of at least `min_distance` lines.
    #[must_use]
    pub fn min_distance(mut self, lines: usize) -> Self {
        self.min_distance = lines;
        self
    }

    /// Footprint and truncation depth of the LRU stack (default 2²⁰
    /// lines, at most 2³²). Distances drawn beyond this touch the
    /// least-recently-used line, acting as streaming misses at every
    /// realistic cache size.
    #[must_use]
    pub fn max_distance(mut self, lines: usize) -> Self {
        self.max_distance = lines;
        self
    }

    /// Number of distinct words touched per line, out of
    /// `line_size / 8` (default: all). Lower values model poor spatial
    /// locality for the unused-data studies.
    #[must_use]
    pub fn touched_words(mut self, words: u32) -> Self {
        self.touched_words = words;
        self
    }

    /// Workload name for reports (default `"stack-distance"`).
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Builds the generator.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive, `line_size` is not a power of two
    /// of at least 8 bytes, `write_fraction` is outside `[0, 1]`,
    /// `min_distance` is 0, `max_distance < min_distance`, `max_distance`
    /// exceeds 2³² (line ids are stored as `u32`), or `touched_words` is 0
    /// or exceeds the words per line.
    pub fn build(self) -> StackDistanceTrace {
        assert!(self.alpha > 0.0, "alpha must be positive");
        assert!(
            self.line_size.is_power_of_two() && self.line_size >= 8,
            "line size must be a power of two of at least 8 bytes"
        );
        assert!(
            (0.0..=1.0).contains(&self.write_fraction),
            "write fraction must be in [0, 1]"
        );
        assert!(self.min_distance >= 1, "min distance must be at least 1");
        assert!(
            self.max_distance >= self.min_distance,
            "max distance must be at least min distance"
        );
        assert!(
            self.max_distance as u64 <= 1 << 32,
            "max distance must be at most 2^32"
        );
        let words_per_line = (self.line_size / 8) as u32;
        assert!(
            self.touched_words >= 1 && self.touched_words <= words_per_line,
            "touched words must be in 1..={words_per_line}"
        );
        // Pre-populate the LRU stack with the full footprint so the trace
        // is stationary from the first access: every sampled depth hits an
        // existing line and the miss process at cache size C is exactly
        // P(distance >= C) — a truncated Pareto.
        let stack: VecDeque<u32> = (0..self.max_distance).map(|line| line as u32).collect();
        StackDistanceTrace {
            draws: Draws {
                alpha: self.alpha,
                write_fraction: self.write_fraction,
                min_distance: self.min_distance,
                max_distance: self.max_distance,
                touched_words: self.touched_words,
                rng: Rng::seed_from_u64(self.seed),
            },
            line_size: self.line_size,
            name: self.name,
            stack,
        }
    }
}

/// A synthetic workload whose miss rate follows the power law of cache
/// misses with exponent `α`.
///
/// # Examples
///
/// Measuring the miss rate of the stream against an ideal LRU stack of
/// depth `C` recovers `m ∝ C^-α`:
///
/// ```
/// use bandwall_trace::{StackDistanceTrace, TraceSource};
///
/// let mut trace = StackDistanceTrace::builder(0.5).seed(42).build();
/// let accesses: Vec<_> = trace.iter().take(10_000).collect();
/// assert!(accesses.iter().any(|a| a.kind().is_write()));
/// ```
#[derive(Debug, Clone)]
pub struct StackDistanceTrace {
    draws: Draws,
    line_size: u64,
    name: String,
    /// LRU stack of line ids, most recent first, pre-populated with the
    /// whole footprint. A `VecDeque` keeps the hot path (move-to-front
    /// from a shallow depth) cheap at both ends, and `u32` ids halve the
    /// bytes each `remove(depth)` shifts.
    stack: VecDeque<u32>,
}

impl StackDistanceTrace {
    /// Starts building a trace with the given power-law exponent.
    pub fn builder(alpha: f64) -> StackDistanceTraceBuilder {
        StackDistanceTraceBuilder {
            alpha,
            seed: 0,
            line_size: 64,
            write_fraction: 0.25,
            min_distance: 2,
            max_distance: 1 << 20,
            touched_words: 8,
            name: "stack-distance".to_string(),
        }
    }

    /// The configured exponent.
    pub fn alpha(&self) -> f64 {
        self.draws.alpha
    }

    /// The configured line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Total footprint in lines (fixed at the configured maximum
    /// distance).
    pub fn footprint_lines(&self) -> usize {
        self.stack.len()
    }

    /// Pre-observes this trace's entire footprint into `probe` in exact
    /// LRU order (deepest line first), then clears the probe's counters.
    ///
    /// After warming, the probe's LRU stack mirrors the generator's, so
    /// every subsequent access's measured reuse distance equals the
    /// generator's sampled Pareto depth — the miss rates are exact from
    /// the first measured access, with no burn-in phase and no
    /// compulsory-miss floor.
    ///
    /// Call before drawing any accesses from the trace; the probe must
    /// observe this trace's line addresses (`address / line_size`).
    pub fn warm_probe(&self, probe: &mut crate::reuse::MissRateProbe) {
        for &line in self.stack.iter().rev() {
            probe.observe(u64::from(line));
        }
        probe.reset_counts();
    }

    /// The LRU stack depths of the accesses
    /// [`next_access`](TraceSource::next_access) would make, in order,
    /// without making them: the reference that
    /// [`count_depths_at_least`](Self::count_depths_at_least) is tested
    /// against.
    ///
    /// By Mattson's stack-distance identity, an access misses a
    /// fully-associative LRU cache of `C` lines exactly when its depth is
    /// at least `C`, so counting depths `>= C` gives the miss count a
    /// [`warm_probe`](Self::warm_probe)ed
    /// [`MissRateProbe`](crate::MissRateProbe) measures over the same
    /// accesses, bit for bit. Both paths make the same draws per access
    /// (depth, word, kind), so the depths stay in step with the stream.
    /// The trace is consumed and its stack dropped: nothing can observe
    /// a stack the depths no longer describe.
    ///
    /// # Examples
    ///
    /// ```
    /// use bandwall_trace::StackDistanceTrace;
    ///
    /// let trace = StackDistanceTrace::builder(0.5).seed(3).max_distance(1 << 12).build();
    /// let misses_at_256 = trace.into_depths().take(10_000).filter(|&d| d >= 256).count();
    /// assert!(misses_at_256 > 0 && misses_at_256 < 10_000);
    /// ```
    pub fn into_depths(self) -> impl Iterator<Item = usize> {
        let mut draws = self.draws;
        std::iter::repeat_with(move || draws.next().depth)
    }

    /// For each capacity in `caps`, how many of the next `n` draws have
    /// an LRU stack depth of at least that capacity: the miss counts of
    /// fully-associative LRU caches of those sizes, equal to a count over
    /// [`into_depths`](Self::into_depths).
    ///
    /// A draw's depth does not grow with its 53-bit uniform key, so the
    /// depth reaches a capacity exactly when the key lies below that
    /// capacity's threshold key, found once by bisection over the very
    /// expression each draw evaluates. A draw then costs its three
    /// random words and one compare per capacity, not a `powf`. Keys
    /// within 2^24 of a threshold have their depth evaluated directly,
    /// so the count does not rest on `powf` being monotone where it is
    /// closest to a capacity. Like `into_depths`, this consumes the
    /// trace.
    ///
    /// # Examples
    ///
    /// ```
    /// use bandwall_trace::StackDistanceTrace;
    ///
    /// let build = || StackDistanceTrace::builder(0.5).seed(3).max_distance(1 << 12).build();
    /// let counts = build().count_depths_at_least(&[256, 1024], 10_000);
    /// let at_256 = build().into_depths().take(10_000).filter(|&d| d >= 256).count();
    /// assert_eq!(counts[0], at_256 as u64);
    /// assert!(counts[1] < counts[0]);
    /// ```
    pub fn count_depths_at_least(self, caps: &[usize], n: usize) -> Vec<u64> {
        let mut draws = self.draws;
        let reach: Vec<u64> = caps.iter().map(|&cap| draws.reach(cap)).collect();
        let mut counts = vec![0; caps.len()];
        for _ in 0..n {
            let key = draws.next_key();
            draws.tally(key, caps, &reach, THRESHOLD_BAND, &mut counts);
        }
        counts
    }
}

/// The keys a depth draw takes: `next_u64() >> 11`, 53 bits.
const KEYS: u64 = 1 << 53;

/// Half-width of the band of keys around each capacity's threshold whose
/// depth [`StackDistanceTrace::count_depths_at_least`] evaluates
/// directly. A key outside the band differs from the threshold's uniform
/// draw by at least 2^-29 relative, so its depth lies on the threshold's
/// side as long as `powf` is accurate to far better than that (it is
/// within an ulp, 2^-52). Draws land in a band with probability 2^-28
/// per capacity, so the band costs nothing measurable.
const THRESHOLD_BAND: u64 = 1 << 24;

/// The random draws behind one access, shared by
/// [`TraceSource::next_access`], [`StackDistanceTrace::into_depths`] and
/// [`StackDistanceTrace::count_depths_at_least`] so all three advance the
/// RNG identically.
#[derive(Debug, Clone)]
struct Draws {
    alpha: f64,
    write_fraction: f64,
    min_distance: usize,
    max_distance: usize,
    touched_words: u32,
    rng: Rng,
}

/// One access's draws: its LRU stack depth, the word it touches in the
/// line and its kind.
struct Draw {
    depth: usize,
    word: u64,
    kind: AccessKind,
}

impl Draws {
    fn next(&mut self) -> Draw {
        let key = self.rng.next_u64() >> 11;
        let depth = self.depth(key);
        let word = self.rng.gen_range(0..self.touched_words) as u64;
        let kind = if self.rng.gen_f64() < self.write_fraction {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        Draw { depth, word, kind }
    }

    /// The next access's depth key, with its word and kind draws made
    /// and dropped: `gen_range` and `gen_f64` each take one `next_u64`.
    fn next_key(&mut self) -> u64 {
        let key = self.rng.next_u64() >> 11;
        self.rng.next_u64();
        self.rng.next_u64();
        key
    }

    /// The Pareto(`x_m = min_distance`, shape `alpha`) reuse distance of
    /// the uniform draw `key / 2^53` (as `Rng::gen_f64` forms it),
    /// truncated to the deepest stack slot. It does not grow with `key`.
    fn depth(&self, key: u64) -> usize {
        let u: f64 = (key as f64 * (1.0 / KEYS as f64)).max(f64::MIN_POSITIVE);
        let d = self.min_distance as f64 * u.powf(-1.0 / self.alpha);
        if d >= (self.max_distance - 1) as f64 {
            self.max_distance - 1
        } else {
            d as usize
        }
    }

    /// How many keys have a depth of at least `cap`: every key below the
    /// result and, depth being non-increasing in the key, none from it
    /// up. Bisection over [`Draws::depth`] itself.
    fn reach(&self, cap: usize) -> u64 {
        if self.depth(0) < cap {
            return 0;
        }
        // `depth(lo) >= cap` throughout; `hi` is the first key known (or,
        // at `KEYS`, taken) to fall short.
        let (mut lo, mut hi) = (0, KEYS);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.depth(mid) >= cap {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Adds one draw with depth key `key` to `counts`: a compare with
    /// each capacity's `reach`, or, within `band` of any of them, its
    /// depth evaluated directly.
    fn tally(&self, key: u64, caps: &[usize], reach: &[u64], band: u64, counts: &mut [u64]) {
        if reach.iter().any(|&r| key.abs_diff(r) < band) {
            let depth = self.depth(key);
            for (count, &cap) in counts.iter_mut().zip(caps) {
                *count += u64::from(depth >= cap);
            }
        } else {
            for (count, &r) in counts.iter_mut().zip(reach) {
                *count += u64::from(key < r);
            }
        }
    }
}

impl TraceSource for StackDistanceTrace {
    fn next_access(&mut self) -> MemoryAccess {
        let Draw { depth, word, kind } = self.draws.next();
        // Reuse the line at the sampled LRU depth; move to front.
        let line = self
            .stack
            .remove(depth)
            .expect("sampled depth is clamped to the stack length");
        self.stack.push_front(line);
        let address = u64::from(line) * self.line_size + word * 8;
        MemoryAccess::new(address, kind)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse::MissRateProbe;

    #[test]
    fn miss_rates_follow_power_law() {
        let alpha = 0.5;
        let mut trace = StackDistanceTrace::builder(alpha)
            .seed(123)
            .max_distance(1 << 16)
            .build();
        let depths = vec![64, 128, 256, 512, 1024];
        let mut probe = MissRateProbe::new(&depths);
        // Burn-in: let the probe's touched frontier pass the deepest
        // capacity, after which the cold-inclusive rates are exact.
        for _ in 0..50_000 {
            let a = trace.next_access();
            probe.observe(a.address() / trace.line_size());
        }
        probe.reset_counts();
        for _ in 0..250_000 {
            let a = trace.next_access();
            probe.observe(a.address() / trace.line_size());
        }
        let rates = probe.miss_rates();
        // Fit slope in log-log space.
        let xs: Vec<f64> = depths.iter().map(|&d| (d as f64).ln()).collect();
        let ys: Vec<f64> = rates.iter().map(|&r| r.ln()).collect();
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let slope = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (x - mx) * (y - my))
            .sum::<f64>()
            / xs.iter().map(|x| (x - mx) * (x - mx)).sum::<f64>();
        let fitted_alpha = -slope;
        assert!(
            (fitted_alpha - alpha).abs() < 0.08,
            "fitted alpha {fitted_alpha}, expected ~{alpha}"
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let make = || {
            StackDistanceTrace::builder(0.4)
                .seed(9)
                .build()
                .iter()
                .take(1000)
                .collect::<Vec<_>>()
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = StackDistanceTrace::builder(0.4)
            .seed(1)
            .build()
            .iter()
            .take(100)
            .collect();
        let b: Vec<_> = StackDistanceTrace::builder(0.4)
            .seed(2)
            .build()
            .iter()
            .take(100)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn write_fraction_respected() {
        let mut trace = StackDistanceTrace::builder(0.5)
            .seed(5)
            .write_fraction(0.3)
            .build();
        let writes = trace
            .iter()
            .take(20_000)
            .filter(|a| a.kind().is_write())
            .count();
        let frac = writes as f64 / 20_000.0;
        assert!((frac - 0.3).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn zero_write_fraction_means_reads_only() {
        let mut trace = StackDistanceTrace::builder(0.5).write_fraction(0.0).build();
        assert!(trace.iter().take(5000).all(|a| !a.kind().is_write()));
    }

    #[test]
    fn addresses_are_line_aligned_words() {
        let mut trace = StackDistanceTrace::builder(0.5).line_size(128).build();
        for a in trace.iter().take(1000) {
            assert_eq!(a.address() % 8, 0);
        }
    }

    #[test]
    fn touched_words_limits_offsets() {
        let mut trace = StackDistanceTrace::builder(0.5).touched_words(2).build();
        for a in trace.iter().take(5000) {
            let offset = a.address() % 64;
            assert!(offset < 16, "offset {offset} beyond first two words");
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn invalid_alpha_panics() {
        StackDistanceTrace::builder(0.0).build();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_line_size_panics() {
        StackDistanceTrace::builder(0.5).line_size(48).build();
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "at most 2^32")]
    fn footprint_beyond_u32_line_ids_panics() {
        StackDistanceTrace::builder(0.5)
            .max_distance((1 << 32) + 1)
            .build();
    }

    /// FNV-1a over the first 200k accesses of a stack-distance stream.
    fn digest(mut trace: StackDistanceTrace) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for a in trace.iter().take(200_000) {
            let words = [
                a.address(),
                u64::from(a.thread()),
                u64::from(a.kind().is_write()),
            ];
            for word in words {
                h = (h ^ word).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Pins the seven Figure 1 commercial streams (seed 2026) and the
    /// replacement ablation's stream, so a change to the generator or its
    /// LRU stack fails here and not only in the golden reports.
    #[test]
    fn commercial_streams_are_pinned() {
        let expected = [
            0xeb25_6217_1b9d_892a,
            0x9e18_f9ac_f01c_cb59,
            0x609e_9773_371a_8fb9,
            0x8b12_c5eb_0bcd_c667,
            0xa465_8dfc_20d1_d3bc,
            0x6d67_f417_d6db_5193,
            0x4460_b3d1_b3c4_4a80,
        ];
        for (trace, expected) in crate::suites::commercial_suite(2026)
            .into_iter()
            .zip(expected)
        {
            let name = trace.name().to_string();
            assert_eq!(digest(trace), expected, "{name}");
        }
        let ablation = StackDistanceTrace::builder(0.5)
            .seed(31)
            .max_distance(1 << 15)
            .build();
        assert_eq!(digest(ablation), 0xb27b_9674_44ed_5d0f);
    }

    /// Mattson's stack-distance identity, which Figure 1's commercial
    /// curves rest on: for each commercial workload (at a 2¹² footprint),
    /// the warmed probe over the access stream and a count of the depths
    /// `>= C` give the same miss rate at every capacity, bit for bit.
    #[test]
    fn depth_counts_equal_the_warmed_probe() {
        const DRAWS: usize = 20_000;
        let caps: Vec<usize> = (1..=11).map(|i| 1 << i).collect();
        for seed in [2026, 1] {
            for i in 0..crate::suites::COMMERCIAL_WORKLOADS.len() {
                let build = || {
                    crate::suites::commercial_workload(seed, i)
                        .max_distance(1 << 12)
                        .build()
                };
                let mut trace = build();
                let mut probe = MissRateProbe::new(&caps);
                trace.warm_probe(&mut probe);
                let line_size = trace.line_size();
                for a in trace.iter().take(DRAWS) {
                    probe.observe(a.address() / line_size);
                }
                let mut misses = vec![0u64; caps.len()];
                for depth in build().into_depths().take(DRAWS) {
                    for (miss, &cap) in misses.iter_mut().zip(&caps) {
                        *miss += u64::from(depth >= cap);
                    }
                }
                let counted: Vec<f64> = misses.iter().map(|&m| m as f64 / DRAWS as f64).collect();
                assert_eq!(probe.miss_rates(), counted, "{} seed {seed}", trace.name());
            }
        }
    }

    /// Figure 1's capacities (2^7..2^16 lines), plus capacities below
    /// the commercial workloads' Pareto minimum (2 lines) and at and
    /// beyond their 2^17-line footprint, whose deepest slot is 2^17 - 1.
    fn threshold_caps() -> Vec<usize> {
        let mut caps: Vec<usize> = (7..=16).map(|i| 1 << i).collect();
        caps.extend([1, 2, 3, (1 << 17) - 1, 1 << 17, (1 << 17) + 1, 1 << 20]);
        caps
    }

    /// The threshold count equals a count over the drawn depths for
    /// every commercial workload, at three seeds, over Figure 1's
    /// 400,000 draws.
    #[test]
    fn threshold_counts_equal_depth_counts() {
        const DRAWS: usize = 400_000;
        let caps = threshold_caps();
        for seed in [2026, 1, 4242] {
            for i in 0..crate::suites::COMMERCIAL_WORKLOADS.len() {
                let build = || crate::suites::commercial_workload(seed, i).build();
                let mut expected = vec![0u64; caps.len()];
                for depth in build().into_depths().take(DRAWS) {
                    for (count, &cap) in expected.iter_mut().zip(&caps) {
                        *count += u64::from(depth >= cap);
                    }
                }
                let counted = build().count_depths_at_least(&caps, DRAWS);
                assert_eq!(counted, expected, "workload {i} seed {seed}");
            }
        }
    }

    /// Draws forced at each capacity's last reaching key `K`, at `K ± 1`
    /// and at the band's edges count exactly what their depth says, with
    /// the band and without it (where only the threshold compare
    /// decides).
    #[test]
    fn forced_draws_at_the_thresholds_count_their_depth() {
        let caps = threshold_caps();
        let band = THRESHOLD_BAND as i128;
        for i in 0..crate::suites::COMMERCIAL_WORKLOADS.len() {
            let draws = crate::suites::commercial_workload(2026, i).build().draws;
            let reach: Vec<u64> = caps.iter().map(|&cap| draws.reach(cap)).collect();
            for (&cap, &r) in caps.iter().zip(&reach) {
                if r > 0 {
                    assert!(draws.depth(r - 1) >= cap, "cap {cap}: last key falls short");
                }
                if r < KEYS {
                    assert!(draws.depth(r) < cap, "cap {cap}: first key past reaches it");
                }
                let last = i128::from(r) - 1;
                let offsets = [
                    -1,
                    0,
                    1,
                    -band - 1,
                    -band,
                    -band + 1,
                    band - 1,
                    band,
                    band + 1,
                ];
                let keys = offsets
                    .iter()
                    .map(|&offset| last + offset)
                    .filter(|&key| (0..i128::from(KEYS)).contains(&key));
                for key in keys.map(|key| key as u64) {
                    let depth = draws.depth(key);
                    let expected: Vec<u64> = caps.iter().map(|&c| u64::from(depth >= c)).collect();
                    for band in [THRESHOLD_BAND, 0] {
                        let mut counts = vec![0; caps.len()];
                        draws.tally(key, &caps, &reach, band, &mut counts);
                        assert_eq!(
                            counts, expected,
                            "workload {i} cap {cap} key {key} band {band}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn footprint_is_fixed_at_max_distance() {
        let mut trace = StackDistanceTrace::builder(0.5).max_distance(4096).build();
        assert_eq!(trace.footprint_lines(), 4096);
        trace.iter().take(10_000).for_each(drop);
        assert_eq!(trace.footprint_lines(), 4096);
    }
}
