//! PARSEC-like multithreaded trace generation (Figure 14's workload).
//!
//! The paper measures data sharing in PARSEC on a shared-L2 multicore
//! simulator and finds that the fraction of cache lines accessed by two or
//! more cores *declines* as threads are added: "while the shared data set
//! size remains somewhat constant, each new thread requires its own
//! private working set". [`ParsecLikeTrace`] encodes exactly that
//! structure — a constant-size shared region touched by every thread plus
//! one private working set per thread (problem scaling) — so the simulator
//! reproduces the declining trend without PARSEC itself.

use crate::access::{AccessKind, MemoryAccess, TraceSource};
use crate::zipf::ZipfSampler;
use bandwall_numerics::Rng;
use std::collections::VecDeque;

/// Address-space carving: the shared region sits at 0; thread `t`'s
/// private region starts at `(t + 1) * PRIVATE_REGION_STRIDE`.
const PRIVATE_REGION_STRIDE: u64 = 1 << 32;

/// Builder for [`ParsecLikeTrace`].
#[derive(Debug, Clone)]
pub struct ParsecLikeTraceBuilder {
    threads: u16,
    shared_lines: usize,
    private_lines_per_thread: usize,
    shared_access_fraction: f64,
    shared_zipf_exponent: f64,
    echo_probability: f64,
    seed: u64,
    line_size: u64,
    write_fraction: f64,
    name: String,
}

impl ParsecLikeTraceBuilder {
    /// Sets the RNG seed (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the probability that an access targets the shared region
    /// (default 0.3).
    #[must_use]
    pub fn shared_access_fraction(mut self, fraction: f64) -> Self {
        self.shared_access_fraction = fraction;
        self
    }

    /// Sets the popularity skew within the shared region (default 0.6).
    #[must_use]
    pub fn shared_zipf_exponent(mut self, exponent: f64) -> Self {
        self.shared_zipf_exponent = exponent;
        self
    }

    /// Sets the probability that a shared access is *echoed* — re-accessed
    /// shortly afterwards by a different thread, modelling the
    /// producer→consumer handoffs that make PARSEC lines show up as
    /// shared at eviction time (default 0.5).
    #[must_use]
    pub fn echo_probability(mut self, probability: f64) -> Self {
        self.echo_probability = probability;
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

    /// Workload name (default `"parsec-like"`).
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Builds the generator.
    ///
    /// # Panics
    ///
    /// Panics on zero threads, empty regions, fractions outside their
    /// domains, regions that overflow the per-thread address stride, or a
    /// line size that is not a power of two ≥ 8.
    pub fn build(self) -> ParsecLikeTrace {
        assert!(self.threads >= 1, "need at least one thread");
        assert!(self.shared_lines > 0, "shared region must be non-empty");
        assert!(
            self.private_lines_per_thread > 0,
            "private working sets must be non-empty"
        );
        assert!(
            (0.0..=1.0).contains(&self.shared_access_fraction),
            "shared access fraction must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.echo_probability),
            "echo probability must be in [0, 1]"
        );
        assert!(
            self.shared_zipf_exponent >= 0.0,
            "zipf exponent must be non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&self.write_fraction),
            "write fraction must be in [0, 1]"
        );
        assert!(
            self.line_size.is_power_of_two() && self.line_size >= 8,
            "line size must be a power of two of at least 8 bytes"
        );
        let max_lines = PRIVATE_REGION_STRIDE / self.line_size;
        assert!(
            (self.shared_lines as u64) < max_lines
                && (self.private_lines_per_thread as u64) < max_lines,
            "regions must fit within the per-thread address stride"
        );
        ParsecLikeTrace {
            threads: self.threads,
            private_lines_per_thread: self.private_lines_per_thread,
            shared_access_fraction: self.shared_access_fraction,
            echo_probability: self.echo_probability,
            shared_ranks: ZipfSampler::new(self.shared_lines, self.shared_zipf_exponent),
            line_size: self.line_size,
            write_fraction: self.write_fraction,
            name: self.name,
            rng: Rng::seed_from_u64(self.seed),
            next_thread: 0,
            echoes: VecDeque::new(),
        }
    }
}

/// A multithreaded workload with a constant shared region and per-thread
/// private working sets (problem scaling, as assumed in Section 6.3).
///
/// Threads issue accesses round-robin; each access carries its thread id
/// for the CMP simulator to route.
///
/// # Examples
///
/// ```
/// use bandwall_trace::{ParsecLikeTrace, TraceSource};
///
/// let mut t = ParsecLikeTrace::builder(8).seed(4).echo_probability(0.0).build();
/// let accesses: Vec<_> = t.iter().take(16).collect();
/// // Round-robin across all 8 threads, twice.
/// let threads: Vec<u16> = accesses.iter().map(|a| a.thread()).collect();
/// assert_eq!(&threads[..8], &[0, 1, 2, 3, 4, 5, 6, 7]);
/// ```
#[derive(Debug, Clone)]
pub struct ParsecLikeTrace {
    threads: u16,
    private_lines_per_thread: usize,
    shared_access_fraction: f64,
    echo_probability: f64,
    shared_ranks: ZipfSampler,
    line_size: u64,
    write_fraction: f64,
    name: String,
    rng: Rng,
    next_thread: u16,
    /// Pending consumer-side re-accesses of recently produced shared
    /// lines: `(remaining delay, consumer thread, address)`.
    echoes: VecDeque<(u32, u16, u64)>,
}

impl ParsecLikeTrace {
    /// Starts building a trace for `threads` threads with the default
    /// region sizes (4096 shared lines, 8192 private lines per thread).
    pub fn builder(threads: u16) -> ParsecLikeTraceBuilder {
        ParsecLikeTraceBuilder {
            threads,
            shared_lines: 4096,
            private_lines_per_thread: 8192,
            shared_access_fraction: 0.3,
            shared_zipf_exponent: 0.6,
            echo_probability: 0.5,
            seed: 0,
            line_size: 64,
            write_fraction: 0.25,
            name: "parsec-like".to_string(),
        }
    }

    /// Starts building with explicit region sizes.
    pub fn builder_with_regions(
        threads: u16,
        shared_lines: usize,
        private_lines_per_thread: usize,
    ) -> ParsecLikeTraceBuilder {
        let mut b = ParsecLikeTrace::builder(threads);
        b.shared_lines = shared_lines;
        b.private_lines_per_thread = private_lines_per_thread;
        b
    }

    /// Number of threads.
    pub fn threads(&self) -> u16 {
        self.threads
    }

    /// Size of the shared region in lines.
    pub fn shared_lines(&self) -> usize {
        self.shared_ranks.len()
    }

    /// The configured line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// `true` if `address` falls inside the shared region.
    pub fn is_shared_address(&self, address: u64) -> bool {
        address < PRIVATE_REGION_STRIDE
    }
}

impl TraceSource for ParsecLikeTrace {
    fn next_access(&mut self) -> MemoryAccess {
        // Drain a matured echo first: the consumer side of a handoff.
        if let Some(&(delay, consumer, address)) = self.echoes.front() {
            if delay == 0 {
                self.echoes.pop_front();
                return MemoryAccess::read(address).on_thread(consumer);
            }
            // Entries behind the front may already be mature (delays are
            // random); they emit once they reach the front.
            for pending in &mut self.echoes {
                pending.0 = pending.0.saturating_sub(1);
            }
        }
        let thread = self.next_thread;
        self.next_thread = (self.next_thread + 1) % self.threads;
        let shared = self.rng.gen_f64() < self.shared_access_fraction;
        let address = if shared {
            self.shared_ranks.sample(&mut self.rng) as u64 * self.line_size
        } else {
            let line = self.rng.gen_range(0..self.private_lines_per_thread as u64);
            (thread as u64 + 1) * PRIVATE_REGION_STRIDE + line * self.line_size
        };
        if shared && self.threads > 1 && self.rng.gen_f64() < self.echo_probability {
            // One to three other threads consume this line a few accesses
            // later (a producer→consumers handoff).
            let consumers = 1 + self.rng.gen_range(0..3u16).min(self.threads - 2);
            let first = self.rng.gen_range(1..self.threads);
            for k in 0..consumers {
                let consumer = (thread + first + k) % self.threads;
                if consumer == thread {
                    continue;
                }
                let delay = self.rng.gen_range(1..8);
                self.echoes.push_back((delay, consumer, address));
            }
        }
        let kind = if self.rng.gen_f64() < self.write_fraction {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        MemoryAccess::new(address, kind).on_thread(thread)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn shared_region_is_common_private_is_disjoint() {
        let mut t = ParsecLikeTrace::builder_with_regions(4, 100, 200)
            .seed(2)
            .build();
        let mut shared_by: Vec<HashSet<u64>> = vec![HashSet::new(); 4];
        let mut private_by: Vec<HashSet<u64>> = vec![HashSet::new(); 4];
        for a in t.iter().take(50_000) {
            let tid = a.thread() as usize;
            if a.address() < PRIVATE_REGION_STRIDE {
                shared_by[tid].insert(a.address());
            } else {
                private_by[tid].insert(a.address());
            }
        }
        // Every thread touches the shared region.
        assert!(shared_by.iter().all(|s| !s.is_empty()));
        // Private regions never overlap across threads.
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(private_by[i].is_disjoint(&private_by[j]), "{i} vs {j}");
            }
        }
    }

    #[test]
    fn distinct_shared_fraction_declines_with_threads() {
        // The structural property behind Figure 14.
        let fraction_for = |threads: u16| {
            let mut t = ParsecLikeTrace::builder_with_regions(threads, 500, 1000)
                .seed(7)
                .build();
            let mut shared = HashSet::new();
            let mut private = HashSet::new();
            for a in t.iter().take(200_000) {
                if a.address() < PRIVATE_REGION_STRIDE {
                    shared.insert(a.address() / 64);
                } else {
                    private.insert(a.address() / 64);
                }
            }
            shared.len() as f64 / (shared.len() + private.len()) as f64
        };
        let f4 = fraction_for(4);
        let f8 = fraction_for(8);
        let f16 = fraction_for(16);
        assert!(f4 > f8 && f8 > f16, "fractions {f4} {f8} {f16}");
    }

    /// FNV-1a over the first 200k accesses of the Figure 14 trace.
    fn figure14_digest(threads: u16) -> u64 {
        let mut t = ParsecLikeTrace::builder_with_regions(threads, 4000, 1500)
            .shared_access_fraction(0.4)
            .seed(2026)
            .build();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for a in t.iter().take(200_000) {
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

    /// Pins the Figure 14 streams, so a change to the generator fails
    /// here and not only in the golden report.
    #[test]
    fn figure14_streams_are_pinned() {
        for (threads, expected) in [
            (4, 0xb9d8_3c71_32dc_fa55),
            (8, 0xe383_5221_9063_3f6b),
            (16, 0xd41c_f1a2_1419_a01a),
        ] {
            assert_eq!(figure14_digest(threads), expected, "{threads} threads");
        }
    }

    #[test]
    fn round_robin_thread_schedule() {
        let mut t = ParsecLikeTrace::builder(3).echo_probability(0.0).build();
        let threads: Vec<u16> = t.iter().take(9).map(|a| a.thread()).collect();
        assert_eq!(threads, [0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn shared_access_fraction_respected() {
        let mut t = ParsecLikeTrace::builder(8)
            .shared_access_fraction(0.4)
            .echo_probability(0.0)
            .seed(5)
            .build();
        let shared = t
            .iter()
            .take(50_000)
            .filter(|a| a.address() < PRIVATE_REGION_STRIDE)
            .count();
        let frac = shared as f64 / 50_000.0;
        assert!((frac - 0.4).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn is_shared_address_classifier() {
        let t = ParsecLikeTrace::builder(2).build();
        assert!(t.is_shared_address(0));
        assert!(t.is_shared_address(4096));
        assert!(!t.is_shared_address(PRIVATE_REGION_STRIDE));
    }

    #[test]
    fn accessors() {
        let t = ParsecLikeTrace::builder_with_regions(6, 128, 256)
            .name("canneal-like")
            .build();
        assert_eq!(t.threads(), 6);
        assert_eq!(t.shared_lines(), 128);
        assert_eq!(t.name(), "canneal-like");
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        ParsecLikeTrace::builder(0).build();
    }

    #[test]
    #[should_panic(expected = "shared region")]
    fn empty_shared_region_panics() {
        ParsecLikeTrace::builder_with_regions(2, 0, 10).build();
    }
}
