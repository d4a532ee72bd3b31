//! Cache and memory-traffic statistics.

use std::fmt;

/// Counters accumulated by one cache.
///
/// # Examples
///
/// ```
/// use bandwall_cache_sim::CacheStats;
///
/// let mut s = CacheStats::new();
/// s.record_hit();
/// s.record_miss(true);
/// s.record_eviction(true);
/// assert_eq!(s.accesses(), 2);
/// assert_eq!(s.miss_rate(), 0.5);
/// assert_eq!(s.writebacks(), 1);
/// assert_eq!(s.writeback_ratio(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    hits: u64,
    misses: u64,
    cold_misses: u64,
    evictions: u64,
    writebacks: u64,
}

impl CacheStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        CacheStats::default()
    }

    /// Records a hit.
    pub fn record_hit(&mut self) {
        self.hits += 1;
    }

    /// Records a miss; `cold` marks a first-ever touch of the line.
    pub fn record_miss(&mut self, cold: bool) {
        self.misses += 1;
        if cold {
            self.cold_misses += 1;
        }
    }

    /// Records an eviction; `dirty` lines additionally count a write-back.
    pub fn record_eviction(&mut self, dirty: bool) {
        self.evictions += 1;
        if dirty {
            self.writebacks += 1;
        }
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses (cold + capacity/conflict).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// First-touch misses.
    pub fn cold_misses(&self) -> u64 {
        self.cold_misses
    }

    /// Evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Dirty evictions (write-backs).
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Miss rate in `[0, 1]`; 0 before any access.
    pub fn miss_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.misses as f64 / n as f64
        }
    }

    /// Write-backs per miss — the paper's `rwb`, observed to be an
    /// application-specific constant across cache sizes (Section 4.2).
    pub fn writeback_ratio(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.writebacks as f64 / self.misses as f64
        }
    }

    /// Merges another cache's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.cold_misses += other.cold_misses;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {:.2}% misses, {} writebacks",
            self.accesses(),
            self.miss_rate() * 100.0,
            self.writebacks
        )
    }
}

/// Off-chip memory traffic counter, in bytes, split by direction.
///
/// The paper's metric `M` is fetch + write-back traffic for a fixed amount
/// of work; [`MemoryTraffic::total_bytes`] is exactly that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryTraffic {
    fetched_bytes: u64,
    written_bytes: u64,
}

impl MemoryTraffic {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        MemoryTraffic::default()
    }

    /// Records a fetch from memory.
    #[inline]
    pub fn record_fetch(&mut self, bytes: u64) {
        self.fetched_bytes += bytes;
    }

    /// Records a write-back to memory.
    #[inline]
    pub fn record_writeback(&mut self, bytes: u64) {
        self.written_bytes += bytes;
    }

    /// Bytes fetched from memory.
    pub fn fetched_bytes(&self) -> u64 {
        self.fetched_bytes
    }

    /// Bytes written back to memory.
    pub fn written_bytes(&self) -> u64 {
        self.written_bytes
    }

    /// Total off-chip traffic (the model's `M`).
    pub fn total_bytes(&self) -> u64 {
        self.fetched_bytes + self.written_bytes
    }

    /// Merges another counter.
    pub fn merge(&mut self, other: &MemoryTraffic) {
        self.fetched_bytes += other.fetched_bytes;
        self.written_bytes += other.written_bytes;
    }
}

impl fmt::Display for MemoryTraffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} B fetched + {} B written = {} B",
            self.fetched_bytes,
            self.written_bytes,
            self.total_bytes()
        )
    }
}

/// Word-usage accounting at eviction: how much of each line the processor
/// actually referenced (the Fltr/Sect/SmCl parameter of Sections 6.1–6.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WordUsageStats {
    evicted_lines: u64,
    words_per_line: u64,
    used_words: u64,
}

impl WordUsageStats {
    /// Creates a zeroed accumulator for lines of `words_per_line` words.
    pub fn new(words_per_line: u32) -> Self {
        WordUsageStats {
            evicted_lines: 0,
            words_per_line: words_per_line as u64,
            used_words: 0,
        }
    }

    /// Records an evicted line that had `used_words` of its words touched.
    pub fn record_eviction(&mut self, used_words: u32) {
        self.evicted_lines += 1;
        self.used_words += used_words as u64;
    }

    /// Lines observed.
    pub fn evicted_lines(&self) -> u64 {
        self.evicted_lines
    }

    /// Average fraction of each line that went *unused* — the paper's
    /// "amount of unused data" knob (≈40% for 64-byte lines in [9, 23]).
    pub fn unused_fraction(&self) -> f64 {
        if self.evicted_lines == 0 || self.words_per_line == 0 {
            0.0
        } else {
            1.0 - self.used_words as f64 / (self.evicted_lines * self.words_per_line) as f64
        }
    }
}

/// Sharing accounting at eviction (Figure 14): how many evicted lines were
/// touched by two or more cores during their residency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingStats {
    evicted_lines: u64,
    shared_lines: u64,
}

impl SharingStats {
    /// Creates a zeroed accumulator.
    pub fn new() -> Self {
        SharingStats::default()
    }

    /// Records an evicted line; `sharers` is the number of distinct cores
    /// that accessed it while resident.
    pub fn record_eviction(&mut self, sharers: u32) {
        self.evicted_lines += 1;
        if sharers >= 2 {
            self.shared_lines += 1;
        }
    }

    /// Lines observed.
    pub fn evicted_lines(&self) -> u64 {
        self.evicted_lines
    }

    /// Lines shared by 2+ cores.
    pub fn shared_lines(&self) -> u64 {
        self.shared_lines
    }

    /// Fraction of evicted lines accessed by more than one core.
    pub fn shared_fraction(&self) -> f64 {
        if self.evicted_lines == 0 {
            0.0
        } else {
            self.shared_lines as f64 / self.evicted_lines as f64
        }
    }

    /// Merges another accumulator's counters into this one.
    pub fn merge(&mut self, other: &SharingStats) {
        self.evicted_lines += other.evicted_lines;
        self.shared_lines += other.shared_lines;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_stats_accumulate() {
        let mut s = CacheStats::new();
        for _ in 0..3 {
            s.record_hit();
        }
        s.record_miss(true);
        s.record_miss(false);
        s.record_eviction(false);
        s.record_eviction(true);
        assert_eq!(s.accesses(), 5);
        assert_eq!(s.hits(), 3);
        assert_eq!(s.misses(), 2);
        assert_eq!(s.cold_misses(), 1);
        assert_eq!(s.evictions(), 2);
        assert_eq!(s.writebacks(), 1);
        assert!((s.miss_rate() - 0.4).abs() < 1e-12);
        assert!((s.writeback_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = CacheStats::new();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.writeback_ratio(), 0.0);
    }

    #[test]
    fn merge_cache_stats() {
        let mut a = CacheStats::new();
        a.record_hit();
        let mut b = CacheStats::new();
        b.record_miss(false);
        a.merge(&b);
        assert_eq!(a.accesses(), 2);
    }

    #[test]
    fn memory_traffic_totals() {
        let mut t = MemoryTraffic::new();
        t.record_fetch(64);
        t.record_fetch(64);
        t.record_writeback(64);
        assert_eq!(t.fetched_bytes(), 128);
        assert_eq!(t.written_bytes(), 64);
        assert_eq!(t.total_bytes(), 192);
        let mut u = MemoryTraffic::new();
        u.record_fetch(64);
        t.merge(&u);
        assert_eq!(t.total_bytes(), 256);
    }

    #[test]
    fn word_usage_fraction() {
        let mut w = WordUsageStats::new(8);
        w.record_eviction(4);
        w.record_eviction(6);
        // 10 of 16 words used → 37.5% unused.
        assert!((w.unused_fraction() - 0.375).abs() < 1e-12);
        assert_eq!(w.evicted_lines(), 2);
    }

    #[test]
    fn sharing_fraction() {
        let mut s = SharingStats::new();
        s.record_eviction(1);
        s.record_eviction(2);
        s.record_eviction(5);
        s.record_eviction(1);
        assert_eq!(s.shared_lines(), 2);
        assert_eq!(s.shared_fraction(), 0.5);
    }

    #[test]
    fn merge_sharing_stats() {
        let mut a = SharingStats::new();
        a.record_eviction(2);
        let mut b = SharingStats::new();
        b.record_eviction(1);
        b.record_eviction(3);
        a.merge(&b);
        assert_eq!(a.evicted_lines(), 3);
        assert_eq!(a.shared_lines(), 2);
    }

    #[test]
    fn displays() {
        let mut s = CacheStats::new();
        s.record_miss(false);
        assert!(s.to_string().contains("100.00%"));
        let mut t = MemoryTraffic::new();
        t.record_fetch(64);
        assert!(t.to_string().contains("64"));
    }

    #[test]
    fn empty_usage_and_sharing() {
        assert_eq!(WordUsageStats::new(8).unused_fraction(), 0.0);
        assert_eq!(SharingStats::new().shared_fraction(), 0.0);
    }
}
