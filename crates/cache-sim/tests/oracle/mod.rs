//! An independent reference simulator for [`EngineSimConfig`] runs.
//!
//! The engine (`PipelineCache`) is written for speed: struct-of-arrays
//! sets, occupancy bitmasks, PLRU bits packed into a word, a first-touch
//! bitmap, and a compressed-size cache. This oracle is written to be
//! obviously right instead, and shares no simulation code with the
//! engine — only the statistics containers its result is reported in:
//!
//! * each set is a `Vec` of ways (slotted fills) or of resident lines in
//!   arrival order (byte-budgeted, compressed fills);
//! * LRU and FIFO keep an explicit per-set order list; tree-PLRU keeps its
//!   node bits in a `Vec<bool>`; Random draws from a per-set
//!   `Rng::seed_from_stream(policy seed, set)` stream exactly as the
//!   engine does: `gen_range(0..assoc)` to pick a way, and
//!   `gen_below(candidates)` to shrink a byte budget;
//! * cold misses are a `HashSet` of line addresses, and the footprint
//!   predictor is a `HashMap` of the sectors each line used;
//! * compressed fills regenerate and recompress the line payload on every
//!   access, and a hit asserts that the size did not change;
//! * a cache that tracks sharers keeps the set of cores that touched each
//!   resident line.
//!
//! [`cmp`] composes these caches into a reference CMP.

// Each test binary that includes the oracle uses only part of it.
#![allow(dead_code)]

pub mod cmp;

use bandwall_cache_sim::{
    CacheStats, CompressorKind, EngineSimConfig, EngineSimStats, FillSpec, MemoryTraffic,
    ProfileKind, ReplacementPolicy, SharingStats,
};
use bandwall_compress::{Bdi, BestOf, CompressionStats, Compressor, Fpc, ZeroRle};
use bandwall_numerics::Rng;
use bandwall_trace::values::{LineValueGenerator, ValueProfile};
use bandwall_trace::TraceSource;
use std::collections::{HashMap, HashSet};

/// Runs the first `accesses` of `trace` through the oracle and returns
/// the statistics `config.run(trace, accesses, threads)` must equal.
pub fn run<T: TraceSource>(
    config: &EngineSimConfig,
    trace: &mut T,
    accesses: usize,
) -> EngineSimStats {
    let mut oracle = Oracle::new(config);
    for _ in 0..accesses {
        let access = trace.next_access();
        oracle.access(0, access.address(), access.kind().is_write());
    }
    if config.flush {
        oracle.flush();
    }
    oracle.stats
}

/// One resident line.
struct Line {
    /// Line address (byte address / line size).
    address: u64,
    /// Sectors present.
    valid: u64,
    /// Sectors accessed during this residency.
    used: u64,
    /// Sectors written during this residency.
    dirty: u64,
    /// Bytes the line occupies.
    size: u64,
    /// Cores that touched the line during this residency.
    sharers: HashSet<u16>,
}

/// A line that left the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Line address (byte address / line size).
    pub address: u64,
    pub dirty: bool,
    /// Bytes its write-back puts on the memory link (the dirty sectors).
    pub writeback_bytes: u64,
}

/// What one access did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    pub hit: bool,
    /// Bytes fetched from the next level.
    pub fetched: u64,
    /// Lines the access displaced, in eviction order.
    pub victims: Vec<Victim>,
}

struct Set {
    /// Slotted fills: exactly `associativity` ways, `None` when empty.
    /// Budgeted fills: the resident lines in arrival order, never `None`.
    ways: Vec<Option<Line>>,
    /// Resident line addresses, least recently used first (LRU) or
    /// earliest inserted first (FIFO).
    order: Vec<u64>,
    /// Tree-PLRU node bits, heap-indexed from 1; `true` sends the victim
    /// search to the right half.
    plru: Vec<bool>,
    rng: Rng,
}

impl Set {
    fn find(&self, address: u64) -> Option<usize> {
        self.ways
            .iter()
            .position(|way| way.as_ref().is_some_and(|line| line.address == address))
    }

    fn forget(&mut self, address: u64) {
        self.order.retain(|&a| a != address);
    }

    /// Points every tree-PLRU node on `way`'s path at the other half.
    fn plru_touch(&mut self, way: usize) {
        let (mut node, mut low, mut span) = (1, 0, self.ways.len());
        while span > 1 {
            let half = span / 2;
            let right = way >= low + half;
            self.plru[node] = !right;
            node = 2 * node + usize::from(right);
            if right {
                low += half;
            }
            span = half;
        }
    }

    /// The way the tree-PLRU bits lead to.
    fn plru_victim(&self) -> usize {
        let (mut node, mut low, mut span) = (1, 0, self.ways.len());
        while span > 1 {
            let half = span / 2;
            let right = self.plru[node];
            node = 2 * node + usize::from(right);
            if right {
                low += half;
            }
            span = half;
        }
        low
    }
}

struct Oracle {
    line_size: u64,
    set_count: u64,
    associativity: usize,
    policy: ReplacementPolicy,
    sector_size: u64,
    predicts: bool,
    /// Compressed fills: the compressor and the payload generator.
    payloads: Option<(Box<dyn Compressor>, LineValueGenerator)>,
    sets: Vec<Set>,
    seen: HashSet<u64>,
    footprints: HashMap<u64, u64>,
    pub stats: EngineSimStats,
    /// Present iff the cache tracks sharers: lines by the number of cores
    /// that touched them, counted as they leave.
    pub sharing: Option<SharingStats>,
}

fn compressor(kind: CompressorKind) -> Box<dyn Compressor> {
    match kind {
        CompressorKind::Fpc => Box::new(Fpc::new()),
        CompressorKind::Bdi => Box::new(Bdi::new()),
        CompressorKind::ZeroRle => Box::new(ZeroRle::new()),
        CompressorKind::BestOf => Box::new(BestOf::standard()),
    }
}

fn profile(kind: ProfileKind) -> ValueProfile {
    match kind {
        ProfileKind::Commercial => ValueProfile::commercial(),
        ProfileKind::Integer => ValueProfile::integer(),
        ProfileKind::FloatingPoint => ValueProfile::floating_point(),
    }
}

impl Oracle {
    pub fn new(config: &EngineSimConfig) -> Self {
        let cache = config.cache;
        let (sectors, predicts, payloads) = match config.fill {
            FillSpec::FullLine => (1, false, None),
            FillSpec::Sectored { sectors_per_line } => (sectors_per_line, false, None),
            FillSpec::PredictiveSectored { sectors_per_line } => (sectors_per_line, true, None),
            FillSpec::Compressed {
                compressor: c,
                values,
            } => (1, false, Some((c, values))),
            FillSpec::SectoredCompressed {
                sectors_per_line,
                compressor: c,
                values,
            } => (sectors_per_line, false, Some((c, values))),
        };
        let associativity = cache.associativity() as usize;
        let budgeted = payloads.is_some();
        let sets = (0..cache.sets())
            .map(|set| Set {
                ways: if budgeted {
                    Vec::new()
                } else {
                    (0..associativity).map(|_| None).collect()
                },
                order: Vec::new(),
                plru: vec![false; associativity.max(2)],
                rng: Rng::seed_from_stream(cache.policy_seed(), set),
            })
            .collect();
        Oracle {
            line_size: cache.line_size(),
            set_count: cache.sets(),
            associativity,
            policy: cache.policy(),
            sector_size: cache.line_size() / u64::from(sectors),
            predicts,
            payloads: payloads.map(|(c, values)| {
                let generator = LineValueGenerator::new(profile(values.profile), values.seed);
                (compressor(c), generator)
            }),
            sets,
            seen: HashSet::new(),
            footprints: HashMap::new(),
            stats: EngineSimStats {
                cache: CacheStats::new(),
                traffic: MemoryTraffic::new(),
                compression: CompressionStats::new(),
                sector_misses: 0,
                conventional_fetch_bytes: 0,
                prefetched_sectors: 0,
                overfetched_sectors: 0,
            },
            sharing: None,
        }
    }

    /// The same cache, counting each line's sharers as it leaves.
    pub fn tracking_sharers(mut self) -> Self {
        self.sharing = Some(SharingStats::new());
        self
    }

    /// The line's stored size, recompressed from scratch (compressed fills
    /// only).
    fn stored_size(&self, address: u64) -> Option<u64> {
        let (compressor, values) = self.payloads.as_ref()?;
        let payload = values.line_bytes(address * self.line_size, self.line_size as usize);
        Some((compressor.compressed_size(&payload) as u64).min(self.line_size))
    }

    /// One access from `core`.
    pub fn access(&mut self, core: u16, byte_address: u64, is_write: bool) -> Outcome {
        let address = byte_address / self.line_size;
        let set_index = (address % self.set_count) as usize;
        let sector = 1u64 << ((byte_address % self.line_size) / self.sector_size);
        let size = self.stored_size(address);
        let policy = self.policy;
        let set = &mut self.sets[set_index];

        if let Some(way) = set.find(address) {
            let line = set.ways[way].as_mut().expect("found ways are occupied");
            if let Some(size) = size {
                assert_eq!(
                    size, line.size,
                    "a hit changed the stored size of generator-backed line {address}"
                );
            }
            let present = line.valid & sector != 0;
            line.valid |= sector;
            line.used |= sector;
            line.sharers.insert(core);
            if is_write {
                line.dirty |= sector;
            }
            match policy {
                ReplacementPolicy::Lru => {
                    set.forget(address);
                    set.order.push(address);
                }
                ReplacementPolicy::TreePlru => set.plru_touch(way),
                ReplacementPolicy::Fifo | ReplacementPolicy::Random => {}
            }
            if present {
                self.stats.cache.record_hit();
            } else {
                let cold = self.seen.insert(address);
                self.stats.cache.record_miss(cold);
                self.stats.sector_misses += 1;
                self.stats.traffic.record_fetch(self.sector_size);
            }
            return Outcome {
                hit: present,
                fetched: if present { 0 } else { self.sector_size },
                victims: Vec::new(),
            };
        }

        let cold = self.seen.insert(address);
        self.stats.cache.record_miss(cold);
        self.stats.conventional_fetch_bytes += self.line_size;
        let predicted = if self.predicts {
            self.footprints.get(&address).copied().unwrap_or(0) & !sector
        } else {
            0
        };
        self.stats.prefetched_sectors += u64::from(predicted.count_ones());
        let valid = sector | predicted;
        let fetched = u64::from(valid.count_ones()) * self.sector_size;
        self.stats.traffic.record_fetch(fetched);
        let line = Line {
            address,
            valid,
            used: sector,
            dirty: if is_write { sector } else { 0 },
            size: size.unwrap_or(self.line_size),
            sharers: HashSet::from([core]),
        };
        let victims = if self.payloads.is_some() {
            self.stats
                .compression
                .record(self.line_size as usize, line.size as usize);
            self.insert_budgeted(set_index, line)
        } else {
            self.insert_slotted(set_index, line)
        };
        Outcome {
            hit: false,
            fetched,
            victims,
        }
    }

    fn insert_slotted(&mut self, set_index: usize, line: Line) -> Vec<Victim> {
        let policy = self.policy;
        let associativity = self.associativity;
        let set = &mut self.sets[set_index];
        let way = match set.ways.iter().position(Option::is_none) {
            Some(empty) => empty,
            None => match policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                    let oldest = set.order[0];
                    set.find(oldest).expect("ordered lines are resident")
                }
                ReplacementPolicy::Random => set.rng.gen_range(0..associativity),
                ReplacementPolicy::TreePlru => set.plru_victim(),
            },
        };
        let address = line.address;
        let victim = set.ways[way].replace(line);
        if let Some(victim) = &victim {
            set.forget(victim.address);
        }
        set.order.push(address);
        if policy == ReplacementPolicy::TreePlru {
            set.plru_touch(way);
        }
        victim.into_iter().map(|line| self.retire(line)).collect()
    }

    /// Appends `line` to its byte-budgeted set, then evicts other lines
    /// until the set fits its budget again.
    fn insert_budgeted(&mut self, set_index: usize, line: Line) -> Vec<Victim> {
        let budget = self.line_size * self.associativity as u64;
        let policy = self.policy;
        let protected = line.address;
        let set = &mut self.sets[set_index];
        set.order.push(line.address);
        set.ways.push(Some(line));
        let mut victims = Vec::new();
        loop {
            let occupied: u64 = set.ways.iter().flatten().map(|l| l.size).sum();
            if occupied <= budget {
                break;
            }
            let candidates: Vec<usize> = (0..set.ways.len())
                .filter(|&i| set.ways[i].as_ref().expect("budgeted").address != protected)
                .collect();
            if candidates.is_empty() {
                break;
            }
            let index = match policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                    let oldest = set
                        .order
                        .iter()
                        .copied()
                        .find(|&a| a != protected)
                        .expect("a candidate is ordered");
                    set.find(oldest).expect("ordered lines are resident")
                }
                ReplacementPolicy::Random => {
                    candidates[set.rng.gen_below(candidates.len() as u64) as usize]
                }
                ReplacementPolicy::TreePlru => unreachable!("the engine rejects budgeted PLRU"),
            };
            let victim = set.ways.remove(index).expect("budgeted");
            set.forget(victim.address);
            victims.push(victim);
        }
        victims.into_iter().map(|line| self.retire(line)).collect()
    }

    fn retire(&mut self, line: Line) -> Victim {
        let dirty = line.dirty != 0;
        let writeback_bytes = u64::from(line.dirty.count_ones()) * self.sector_size;
        self.stats.cache.record_eviction(dirty);
        if dirty {
            self.stats.traffic.record_writeback(writeback_bytes);
        }
        if self.predicts {
            self.stats.overfetched_sectors += u64::from((line.valid & !line.used).count_ones());
            self.footprints.insert(line.address, line.used);
        }
        if let Some(sharing) = &mut self.sharing {
            sharing.record_eviction(line.sharers.len() as u32);
        }
        Victim {
            address: line.address,
            dirty,
            writeback_bytes,
        }
    }

    /// Evicts every line, set by set and way by way, returning them in
    /// that order.
    pub fn flush(&mut self) -> Vec<Victim> {
        let lines: Vec<Line> = self
            .sets
            .iter_mut()
            .flat_map(|set| {
                set.order.clear();
                set.ways.drain(..).flatten().collect::<Vec<_>>()
            })
            .collect();
        lines.into_iter().map(|line| self.retire(line)).collect()
    }
}
