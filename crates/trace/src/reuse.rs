//! Exact LRU reuse-distance profiling.
//!
//! For a fully-associative LRU cache of `C` lines, an access hits iff its
//! *reuse distance* — the number of distinct lines touched since the last
//! access to the same line — is below `C`. Profiling a trace's reuse
//! distances therefore yields its miss rate at **every** cache size in one
//! pass, which is how Figure 1's SPEC-like miss-rate curves are produced
//! without simulating dozens of cache configurations. Its commercial
//! curves need no profiling: a [`StackDistanceTrace`] draws each access's
//! reuse distance itself, so
//! [`StackDistanceTrace::count_depths_at_least`] counts those distances
//! directly, and a probe warmed with [`StackDistanceTrace::warm_probe`]
//! measures the same ones back.
//!
//! [`StackDistanceTrace`]: crate::StackDistanceTrace
//! [`StackDistanceTrace::count_depths_at_least`]: crate::StackDistanceTrace::count_depths_at_least
//! [`StackDistanceTrace::warm_probe`]: crate::StackDistanceTrace::warm_probe
//!
//! Both tools here are exact. [`ReuseDistanceProfiler`] returns every
//! access's reuse distance with the classic Fenwick-tree (binary indexed
//! tree) algorithm: O(log n) per access instead of the naive O(n) stack
//! scan. [`MissRateProbe`] needs only which of a fixed set of capacities
//! an access misses at, so it walks an LRU list with one marker per
//! capacity instead: one table lookup plus one step per capacity missed.

use crate::line_hash::LineMap;
use crate::paged::{PagedLineTable, PAGE_LINES};

/// Fenwick tree over the access timeline supporting point updates and
/// prefix sums. The timeline grows without bound, so the tree keeps the
/// raw point values alongside and rebuilds itself when it doubles —
/// amortized O(1) per growth step, O(log n) per operation otherwise.
#[derive(Debug, Clone, Default)]
struct Fenwick {
    tree: Vec<i64>,
    raw: Vec<i64>,
}

impl Fenwick {
    fn ensure_len(&mut self, i: usize) {
        if i < self.raw.len() {
            return;
        }
        let new_len = (i + 1).next_power_of_two().max(64);
        self.raw.resize(new_len, 0);
        // Rebuild the tree: standard O(n) Fenwick construction.
        self.tree = self.raw.clone();
        for idx in 1..new_len {
            let parent = idx + (idx & idx.wrapping_neg());
            if parent < new_len {
                let v = self.tree[idx];
                self.tree[parent] += v;
            }
        }
    }

    /// Adds `delta` at 1-based position `i`.
    fn add(&mut self, i: usize, delta: i64) {
        self.ensure_len(i);
        self.raw[i] += delta;
        let mut i = i;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `1..=i` (positions past the current capacity hold
    /// zero, so clamping is exact).
    fn prefix_sum(&self, i: usize) -> i64 {
        let mut i = i.min(self.tree.len().saturating_sub(1));
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// Streaming exact reuse-distance profiler.
///
/// # Examples
///
/// ```
/// use bandwall_trace::ReuseDistanceProfiler;
///
/// let mut p = ReuseDistanceProfiler::new();
/// assert_eq!(p.observe(10), None);      // cold
/// assert_eq!(p.observe(20), None);      // cold
/// assert_eq!(p.observe(10), Some(1));   // one distinct line (20) in between
/// assert_eq!(p.observe(10), Some(0));   // immediate reuse
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReuseDistanceProfiler {
    last_time: LineMap<u64, usize>,
    presence: Fenwick,
    time: usize,
    distinct: i64,
}

impl ReuseDistanceProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        ReuseDistanceProfiler::default()
    }

    /// Records an access to `line`, returning its reuse distance, or
    /// `None` for a cold (first-ever) access.
    pub fn observe(&mut self, line: u64) -> Option<usize> {
        self.time += 1;
        let now = self.time;
        let distance = match self.last_time.insert(line, now) {
            Some(prev) => {
                // Lines whose most recent access is after `prev`.
                let later = self.distinct - self.presence.prefix_sum(prev);
                self.presence.add(prev, -1);
                Some(later as usize)
            }
            None => {
                self.distinct += 1;
                None
            }
        };
        self.presence.add(now, 1);
        distance
    }

    /// Number of distinct lines seen.
    pub fn distinct_lines(&self) -> usize {
        self.distinct as usize
    }

    /// Number of accesses observed.
    pub fn accesses(&self) -> usize {
        self.time
    }
}

/// Marks the missing neighbour at either end of the probe's LRU list,
/// and a line the probe has not seen.
const NONE: u32 = u32::MAX;

/// Miss-rate probe: reports the miss rate a fully-associative LRU cache
/// of each requested capacity would see.
///
/// The probe keeps one exact LRU list of every line seen (most recent
/// first) and a *marker* per distinct capacity `c`, on the node at depth
/// `c − 1`: the last line such a cache still holds. A node's *tier* is
/// the number of capacities at or below its depth, so a re-reference
/// misses at exactly the `tier` smallest capacities. Moving a node to the
/// front shifts only the markers it had passed, one node toward the
/// front, and each node a marker passes gains one tier. An access
/// therefore costs one table lookup plus one step per capacity it misses
/// at, not a reuse-distance computation.
///
/// Lines find their nodes through a [`PagedLineTable`], 16 KB per page
/// of 4096 lines touched: cheap for the dense line ranges of the
/// synthetic workloads, costly for a few lines scattered far apart.
///
/// # Examples
///
/// ```
/// use bandwall_trace::MissRateProbe;
///
/// let mut probe = MissRateProbe::new(&[1, 2, 4]);
/// for line in [1u64, 2, 1, 2, 3, 1] {
///     probe.observe(line);
/// }
/// let rates = probe.miss_rates();
/// assert_eq!(rates.len(), 3);
/// assert!(rates[0] >= rates[1] && rates[1] >= rates[2]);
/// ```
#[derive(Debug, Clone)]
pub struct MissRateProbe {
    capacities: Vec<usize>,
    /// Index into `sorted` of each supplied capacity.
    slot: Vec<usize>,
    /// The distinct capacities, ascending.
    sorted: Vec<usize>,
    /// The LRU list node of every line seen, `NONE` for the rest.
    nodes: PagedLineTable<[u32; PAGE_LINES]>,
    /// Per node: its neighbour toward the front, toward the tail, and
    /// its tier. A tier never exceeds its node's depth, so it fits `u32`
    /// like the node ids, whatever the number of capacities.
    prev: Vec<u32>,
    next: Vec<u32>,
    tier: Vec<u32>,
    head: u32,
    tail: u32,
    /// Node at depth `sorted[i] − 1`, for each capacity the list has
    /// already filled (a prefix of `sorted`).
    markers: Vec<u32>,
    /// Counted re-references by the tier of the line they touched.
    tier_hits: Vec<u64>,
    cold: u64,
    accesses: usize,
    counted_from: usize,
}

impl MissRateProbe {
    /// Creates a probe for the given cache capacities (in lines). Cold
    /// (first-touch) accesses count as misses at every capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty or contains 0.
    pub fn new(capacities: &[usize]) -> Self {
        assert!(!capacities.is_empty(), "need at least one capacity");
        assert!(
            capacities.iter().all(|&c| c > 0),
            "capacities must be positive"
        );
        let mut sorted = capacities.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let slot = capacities
            .iter()
            .map(|c| {
                sorted
                    .binary_search(c)
                    .expect("every capacity is in the sorted set")
            })
            .collect();
        MissRateProbe {
            capacities: capacities.to_vec(),
            slot,
            tier_hits: vec![0; sorted.len() + 1],
            sorted,
            nodes: PagedLineTable::new([NONE; PAGE_LINES]),
            prev: Vec::new(),
            next: Vec::new(),
            tier: Vec::new(),
            head: NONE,
            tail: NONE,
            markers: Vec::new(),
            cold: 0,
            accesses: 0,
            counted_from: 0,
        }
    }

    /// Records an access to `line`.
    ///
    /// # Panics
    ///
    /// Panics on a new line once `u32::MAX` distinct lines have been
    /// seen.
    pub fn observe(&mut self, line: u64) {
        self.accesses += 1;
        let fresh = self.prev.len();
        let (page, slot) = self.nodes.page_mut(line);
        let node = page[slot];
        if node == NONE {
            assert!(
                fresh < NONE as usize,
                "probe holds at most u32::MAX distinct lines"
            );
            page[slot] = fresh as u32;
            self.push_cold();
        } else {
            self.touch(node);
        }
    }

    /// Moves a seen line's node to the front.
    fn touch(&mut self, node: u32) {
        let n = node as usize;
        let tier = self.tier[n] as usize;
        self.tier_hits[tier] += 1;
        if node == self.head {
            return;
        }
        // The first marker the node had not passed may sit on it; its
        // depth is refilled by the node's predecessor, read here because
        // relinking overwrites `prev`.
        if self.markers.get(tier) == Some(&node) {
            self.markers[tier] = self.prev[n];
        }
        let (p, q) = (self.prev[n], self.next[n]);
        self.next[p as usize] = q;
        if q == NONE {
            self.tail = p;
        } else {
            self.prev[q as usize] = p;
        }
        self.link_front(node);
        self.tier[n] = 0;
        self.shift_markers(tier);
    }

    /// Appends a first-touched line's node at the front.
    fn push_cold(&mut self) {
        self.cold += 1;
        let node = self.prev.len() as u32;
        self.prev.push(NONE);
        self.next.push(NONE);
        self.tier.push(0);
        if self.head == NONE {
            self.head = node;
            self.tail = node;
        } else {
            self.link_front(node);
        }
        self.shift_markers(self.markers.len());
        let filled = self.markers.len();
        if self.sorted.get(filled) == Some(&self.prev.len()) {
            self.markers.push(self.tail);
        }
    }

    fn link_front(&mut self, node: u32) {
        self.prev[node as usize] = NONE;
        self.next[node as usize] = self.head;
        self.prev[self.head as usize] = node;
        self.head = node;
    }

    /// Moves the first `count` markers one node toward the front: the
    /// nodes they leave fell past them. Called after a node was linked at
    /// the front, so a capacity-1 marker lands on that node.
    fn shift_markers(&mut self, count: usize) {
        for marker in &mut self.markers[..count] {
            let passed = *marker as usize;
            self.tier[passed] += 1;
            *marker = self.prev[passed];
        }
    }

    /// The probed capacities, in the order supplied.
    pub fn capacities(&self) -> &[usize] {
        &self.capacities
    }

    /// Miss rate per capacity (same order as [`MissRateProbe::capacities`]).
    ///
    /// Returns all-zero rates before any access is observed.
    pub fn miss_rates(&self) -> Vec<f64> {
        let denominator = (self.accesses - self.counted_from).max(1) as f64;
        // The `i`-th smallest capacity misses every cold access and every
        // re-reference of a tier above `i`.
        let mut misses = vec![0u64; self.sorted.len()];
        let mut total = self.cold;
        for i in (0..self.sorted.len()).rev() {
            total += self.tier_hits[i + 1];
            misses[i] = total;
        }
        self.slot
            .iter()
            .map(|&i| misses[i] as f64 / denominator)
            .collect()
    }

    /// Number of accesses observed so far (including cold ones).
    pub fn accesses(&self) -> usize {
        self.accesses
    }

    /// Clears the miss and access counters while keeping the LRU
    /// history — call after a warm-up phase so the reported rates cover
    /// only the steady state.
    pub fn reset_counts(&mut self) {
        self.tier_hits.iter_mut().for_each(|h| *h = 0);
        self.cold = 0;
        self.counted_from = self.accesses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_accesses_have_no_distance() {
        let mut p = ReuseDistanceProfiler::new();
        for line in 0..100 {
            assert_eq!(p.observe(line), None);
        }
        assert_eq!(p.distinct_lines(), 100);
    }

    #[test]
    fn immediate_reuse_is_distance_zero() {
        let mut p = ReuseDistanceProfiler::new();
        p.observe(5);
        assert_eq!(p.observe(5), Some(0));
    }

    #[test]
    fn distance_counts_distinct_intervening_lines() {
        let mut p = ReuseDistanceProfiler::new();
        p.observe(1);
        p.observe(2);
        p.observe(3);
        p.observe(2); // distance 1 (only 3 since last access of 2)
        assert_eq!(p.observe(1), Some(2)); // 2 and 3 since last access of 1
    }

    #[test]
    fn repeated_intervening_lines_count_once() {
        let mut p = ReuseDistanceProfiler::new();
        p.observe(1);
        p.observe(2);
        p.observe(2);
        p.observe(2);
        assert_eq!(p.observe(1), Some(1));
    }

    #[test]
    fn matches_naive_stack_on_random_stream() {
        use std::collections::VecDeque;
        let mut naive: VecDeque<u64> = VecDeque::new();
        let mut p = ReuseDistanceProfiler::new();
        let mut x = 12345u64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = (x >> 33) % 64;
            let expected = naive.iter().position(|&l| l == line);
            if let Some(pos) = expected {
                naive.remove(pos);
            }
            naive.push_front(line);
            assert_eq!(p.observe(line), expected);
        }
    }

    #[test]
    fn probe_miss_rates_monotone_in_capacity() {
        let mut probe = MissRateProbe::new(&[4, 16, 64, 256]);
        let mut x = 7u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            probe.observe((x >> 40) % 300);
        }
        let rates = probe.miss_rates();
        for w in rates.windows(2) {
            assert!(w[0] >= w[1], "rates not monotone: {rates:?}");
        }
    }

    #[test]
    fn probe_capacity_one_counts_non_immediate_reuses() {
        let mut probe = MissRateProbe::new(&[1]);
        probe.observe(1);
        probe.observe(1);
        probe.observe(2);
        probe.observe(1);
        // misses: cold(1), hit, cold(2), distance-1 miss.
        assert_eq!(probe.miss_rates(), vec![0.75]);
    }

    #[test]
    #[should_panic(expected = "at least one capacity")]
    fn empty_capacities_panics() {
        MissRateProbe::new(&[]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_capacity_panics() {
        MissRateProbe::new(&[0]);
    }

    #[test]
    fn probe_before_observations_is_zero() {
        let probe = MissRateProbe::new(&[8]);
        assert_eq!(probe.miss_rates(), vec![0.0]);
        assert_eq!(probe.capacities(), &[8]);
    }
}
