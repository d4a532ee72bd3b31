//! A reference shared-L2 CMP for [`CmpSimConfig`] runs.
//!
//! Per-core L1s over one shared L2, each cache an oracle [`Oracle`] (the
//! L2 keeps a sharer set per line), composed the way the paper's CMP
//! works and without any of the engine's hierarchy code:
//!
//! * an access goes to its core's L1;
//! * a dirty line the L1 displaced is written into the L2;
//! * an L1 miss reads the line from the L2;
//! * off-chip traffic is what the L2 fetches plus the write-backs of the
//!   dirty lines it displaces;
//! * a flush drains each L1 in turn, its dirty lines into the L2, then the
//!   L2 to memory.

use super::{Oracle, Outcome};
use bandwall_cache_sim::{
    CacheStats, CmpSimConfig, CmpSimStats, EngineSimConfig, FillSpec, L2Organization, MemoryTraffic,
};
use bandwall_trace::TraceSource;

/// Runs the first `accesses` of `trace` through the reference CMP and
/// returns the statistics `config.run(trace, accesses, threads)` must
/// equal.
///
/// # Panics
///
/// Panics unless `config` has a shared L2.
pub fn run<T: TraceSource>(config: &CmpSimConfig, trace: &mut T, accesses: usize) -> CmpSimStats {
    assert_eq!(
        config.organization,
        L2Organization::Shared,
        "the reference CMP models a shared L2"
    );
    let l1 = EngineSimConfig {
        cache: config.l1,
        fill: FillSpec::FullLine,
        flush: false,
    };
    let l2 = EngineSimConfig {
        cache: config.l2,
        fill: config.l2_fill,
        flush: false,
    };
    let mut cmp = SharedCmp {
        l1s: (0..config.cores).map(|_| Oracle::new(&l1)).collect(),
        l2: Oracle::new(&l2).tracking_sharers(),
        l1_line: config.l1.line_size(),
        traffic: MemoryTraffic::new(),
    };
    for _ in 0..accesses {
        let access = trace.next_access();
        cmp.access(access.thread(), access.address(), access.kind().is_write());
    }
    if config.flush {
        cmp.flush();
    }
    let mut l1_stats = CacheStats::new();
    for l1 in &cmp.l1s {
        l1_stats.merge(&l1.stats.cache);
    }
    CmpSimStats {
        l1: l1_stats,
        l2: cmp.l2.stats.cache,
        traffic: cmp.traffic,
        sharing: cmp.l2.sharing,
    }
}

struct SharedCmp {
    l1s: Vec<Oracle>,
    l2: Oracle,
    l1_line: u64,
    traffic: MemoryTraffic,
}

impl SharedCmp {
    fn access(&mut self, core: u16, byte_address: u64, is_write: bool) {
        let l1 = self.l1s[usize::from(core)].access(core, byte_address, is_write);
        for victim in l1.victims.iter().filter(|v| v.dirty) {
            self.write_back_to_l2(core, victim.address);
        }
        if !l1.hit {
            let l2 = self.l2.access(core, byte_address, false);
            self.settle(&l2);
        }
    }

    /// A dirty L1 line goes into the L2 as a write.
    fn write_back_to_l2(&mut self, core: u16, l1_line_address: u64) {
        let l2 = self.l2.access(core, l1_line_address * self.l1_line, true);
        self.settle(&l2);
    }

    /// Off-chip traffic of one L2 access.
    fn settle(&mut self, l2: &Outcome) {
        if l2.fetched > 0 {
            self.traffic.record_fetch(l2.fetched);
        }
        for victim in l2.victims.iter().filter(|v| v.dirty) {
            self.traffic.record_writeback(victim.writeback_bytes);
        }
    }

    fn flush(&mut self) {
        for core in 0..self.l1s.len() {
            let drained = self.l1s[core].flush();
            for victim in drained.iter().filter(|v| v.dirty) {
                self.write_back_to_l2(core as u16, victim.address);
            }
        }
        for victim in self.l2.flush().iter().filter(|v| v.dirty) {
            self.traffic.record_writeback(victim.writeback_bytes);
        }
    }
}
