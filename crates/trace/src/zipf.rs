//! Zipf-distributed access generation.
//!
//! Object popularity in commercial workloads is classically Zipfian: the
//! `k`-th most popular of `n` lines is accessed with probability
//! `∝ k^-s`. A Zipf working set produces smooth, heavy-tailed miss-rate
//! curves and serves as a second, independent power-law-like source next to
//! [`crate::StackDistanceTrace`].

use crate::access::{AccessKind, MemoryAccess, TraceSource};
use bandwall_numerics::Rng;

/// Builder for [`ZipfTrace`].
#[derive(Debug, Clone)]
pub struct ZipfTraceBuilder {
    lines: usize,
    exponent: f64,
    seed: u64,
    line_size: u64,
    write_fraction: f64,
    name: String,
}

impl ZipfTraceBuilder {
    /// Sets the RNG seed (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the line size in bytes (default 64).
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

    /// Workload name (default `"zipf"`).
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Builds the generator, precomputing the popularity CDF.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0`, the exponent is negative or non-finite, the
    /// line size is not a power of two ≥ 8, or the write fraction is
    /// outside `[0, 1]`.
    pub fn build(self) -> ZipfTrace {
        assert!(self.lines > 0, "working set must contain at least 1 line");
        assert!(
            self.exponent.is_finite() && self.exponent >= 0.0,
            "exponent must be finite and non-negative"
        );
        assert!(
            self.line_size.is_power_of_two() && self.line_size >= 8,
            "line size must be a power of two of at least 8 bytes"
        );
        assert!(
            (0.0..=1.0).contains(&self.write_fraction),
            "write fraction must be in [0, 1]"
        );
        ZipfTrace {
            ranks: ZipfSampler::new(self.lines, self.exponent),
            line_size: self.line_size,
            write_fraction: self.write_fraction,
            name: self.name,
            rng: Rng::seed_from_u64(self.seed),
        }
    }
}

/// A Zipf-popularity workload over a fixed set of lines.
///
/// # Examples
///
/// ```
/// use bandwall_trace::{TraceSource, ZipfTrace};
///
/// let mut trace = ZipfTrace::builder(10_000, 0.9).seed(3).build();
/// let a = trace.next_access();
/// assert!(a.address() < 10_000 * 64);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfTrace {
    ranks: ZipfSampler,
    line_size: u64,
    write_fraction: f64,
    name: String,
    rng: Rng,
}

impl ZipfTrace {
    /// Starts building a Zipf trace over `lines` lines with popularity
    /// exponent `exponent` (0 = uniform; ~0.8–1.0 typical).
    pub fn builder(lines: usize, exponent: f64) -> ZipfTraceBuilder {
        ZipfTraceBuilder {
            lines,
            exponent,
            seed: 0,
            line_size: 64,
            write_fraction: 0.25,
            name: "zipf".to_string(),
        }
    }

    /// Number of lines in the working set.
    pub fn lines(&self) -> usize {
        self.ranks.len()
    }

    /// The configured line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }
}

impl TraceSource for ZipfTrace {
    fn next_access(&mut self) -> MemoryAccess {
        // Rank k maps to line k: the k-th line of the region is the k-th
        // most popular. Set-index hashing in the simulator spreads them.
        let line = self.ranks.sample(&mut self.rng) as u64;
        let address = line * self.line_size;
        let kind = if self.rng.gen_f64() < self.write_fraction {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        MemoryAccess::new(address, kind)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Inverse-CDF sampling of Zipf ranks, shared by [`ZipfTrace`] and the
/// shared region of [`crate::ParsecLikeTrace`].
///
/// A draw maps one uniform `u ∈ [0, 1)` to the first rank whose
/// cumulative probability reaches `u`. A guide table over `2^k ≥ n`
/// equal-width buckets of `[0, 1)` starts each search at the first rank
/// that can satisfy any `u` in its bucket (Chen & Asau's guide-table
/// method), so a draw costs about two CDF comparisons instead of a
/// `log2 n`-step binary search. The bucket count is a power of two, so
/// `u · buckets` is exact and the table never starts a search past the
/// answer: the rank is the one a binary search of the same CDF finds,
/// except that where far-tail weights vanish below the sum's rounding
/// and the CDF repeats a value `u` hits exactly, it is the run's first.
#[derive(Debug, Clone)]
pub(crate) struct ZipfSampler {
    /// Normalised cumulative popularity; the last entry is exactly 1.
    cdf: Vec<f64>,
    /// `guide[b]` is the first rank whose CDF reaches `b / guide.len()`.
    guide: Vec<usize>,
}

impl ZipfSampler {
    /// Precomputes the CDF of ranks `1..=n` (`n ≥ 1`, which both
    /// builders check) weighted `k^-exponent`, and its guide table.
    pub(crate) fn new(n: usize, exponent: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-exponent);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        let buckets = n.next_power_of_two();
        let mut guide = Vec::with_capacity(buckets);
        let mut rank = 0;
        for b in 0..buckets {
            // The bucket floor is below 1 = cdf[n - 1], so the scan stops
            // inside the table.
            let floor = b as f64 / buckets as f64;
            while cdf[rank] < floor {
                rank += 1;
            }
            guide.push(rank);
        }
        ZipfSampler { cdf, guide }
    }

    /// Number of ranks.
    pub(crate) fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Draws a rank (0-based, 0 = most popular) from one `gen_f64`.
    #[inline]
    pub(crate) fn sample(&self, rng: &mut Rng) -> usize {
        self.rank(rng.gen_f64())
    }

    /// The first rank whose CDF reaches `u ∈ [0, 1)`.
    #[inline]
    fn rank(&self, u: f64) -> usize {
        // `u < 1 = cdf[n - 1]`, so the scan stops inside the table.
        let mut rank = self.guide[(u * self.guide.len() as f64) as usize];
        while self.cdf[rank] < u {
            rank += 1;
        }
        rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The binary search the guide table replaced, kept as the reference.
    fn binary_search_rank(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|probe| probe.partial_cmp(&u).expect("CDF has no NaN")) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    #[test]
    fn guide_table_matches_binary_search() {
        for exponent in [0.0, 0.6, 0.9, 2.0] {
            for n in [1, 2, 3, 4000, 4096, 4097] {
                let sampler = ZipfSampler::new(n, exponent);
                let mut rng = Rng::seed_from_u64(n as u64);
                let mut reference = rng.clone();
                for _ in 0..100_000 {
                    let expected = binary_search_rank(&sampler.cdf, reference.gen_f64());
                    assert_eq!(sampler.sample(&mut rng), expected, "n {n}, s {exponent}");
                }
                // The draws that land exactly on a CDF value or a bucket
                // floor, and their neighbours, which random draws all but
                // never hit.
                let buckets = sampler.guide.len();
                let floors = (0..buckets).map(|b| b as f64 / buckets as f64);
                for edge in sampler.cdf.iter().copied().chain(floors) {
                    for u in [edge.next_down(), edge, edge.next_up()] {
                        if (0.0..1.0).contains(&u) {
                            let expected = binary_search_rank(&sampler.cdf, u);
                            assert_eq!(sampler.rank(u), expected, "n {n}, s {exponent}, u {u}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn popular_lines_dominate() {
        let mut trace = ZipfTrace::builder(1000, 1.0).seed(1).build();
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for a in trace.iter().take(50_000) {
            *counts.entry(a.address()).or_default() += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // The most popular line should see far more traffic than the median.
        let top = freqs[0] as f64;
        let median = freqs[freqs.len() / 2] as f64;
        assert!(top / median > 10.0, "top {top}, median {median}");
    }

    #[test]
    fn uniform_exponent_spreads_evenly() {
        let mut trace = ZipfTrace::builder(100, 0.0).seed(2).build();
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for a in trace.iter().take(100_000) {
            *counts.entry(a.address()).or_default() += 1;
        }
        assert!(counts.len() >= 99, "only {} lines touched", counts.len());
        let max = *counts.values().max().unwrap() as f64;
        let min = *counts.values().min().unwrap() as f64;
        assert!(max / min < 1.6, "spread too wide: {min}..{max}");
    }

    #[test]
    fn addresses_stay_in_working_set() {
        let mut trace = ZipfTrace::builder(128, 0.8).build();
        for a in trace.iter().take(10_000) {
            assert!(a.address() < 128 * 64);
            assert_eq!(a.address() % 64, 0);
        }
    }

    #[test]
    fn deterministic_with_seed() {
        let run = || {
            ZipfTrace::builder(500, 0.9)
                .seed(77)
                .build()
                .iter()
                .take(200)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn accessors() {
        let t = ZipfTrace::builder(64, 0.5).name("db").build();
        assert_eq!(t.lines(), 64);
        assert_eq!(t.line_size(), 64);
        assert_eq!(t.name(), "db");
    }

    #[test]
    #[should_panic(expected = "at least 1 line")]
    fn zero_lines_panics() {
        ZipfTrace::builder(0, 1.0).build();
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_exponent_panics() {
        ZipfTrace::builder(10, -1.0).build();
    }
}
