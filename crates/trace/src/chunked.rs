//! Recorded traces: generate a stream once, replay it many times.
//!
//! [`ReplayTrace::record`] records the first accesses of any
//! [`TraceSource`] and feeds them back as a trace source. Experiments
//! that run several caches over one workload generate it once this way
//! and [`ReplayTrace::rewind`] before each run, and the performance
//! harness uses it to time simulation without generation.

use crate::access::{MemoryAccess, TraceSource};

/// Materialises the first `total` accesses of a trace into one vector.
fn materialize<T: TraceSource>(source: &mut T, total: usize) -> Vec<MemoryAccess> {
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        out.push(source.next_access());
    }
    out
}

/// A [`TraceSource`] that replays a recorded access vector, cycling
/// back to the start when exhausted.
///
/// Replay separates trace *generation* cost from simulation cost: the
/// performance harness records a workload once and feeds the recorded
/// stream to the engines, so kernel throughput measures the cache
/// simulator alone.
///
/// # Examples
///
/// ```
/// use bandwall_trace::{ReplayTrace, StackDistanceTrace, TraceSource};
///
/// let trace = || StackDistanceTrace::builder(0.5).seed(1).build();
/// let mut replay = ReplayTrace::record(&mut trace(), 100);
/// let generated: Vec<_> = trace().iter().take(100).collect();
/// assert_eq!(replay.accesses(), &generated[..]);
/// let replayed: Vec<_> = replay.iter().take(100).collect();
/// assert_eq!(replayed, generated);
/// // Past the end, the stream cycles; a rewind starts it over.
/// assert_eq!(replay.next_access(), generated[0]);
/// replay.rewind();
/// assert_eq!(replay.next_access(), generated[0]);
/// ```
#[derive(Debug, Clone)]
pub struct ReplayTrace {
    accesses: Vec<MemoryAccess>,
    pos: usize,
}

impl ReplayTrace {
    /// Wraps a recorded access vector.
    ///
    /// # Panics
    ///
    /// Panics if `accesses` is empty (a trace source is an infinite
    /// stream; there is nothing to cycle).
    pub fn new(accesses: Vec<MemoryAccess>) -> Self {
        assert!(
            !accesses.is_empty(),
            "replay trace needs at least one access"
        );
        ReplayTrace { accesses, pos: 0 }
    }

    /// Records `total` accesses from `source` and wraps them for replay.
    pub fn record<T: TraceSource>(source: &mut T, total: usize) -> Self {
        ReplayTrace::new(materialize(source, total))
    }

    /// Rewinds the replay cursor to the beginning.
    pub fn rewind(&mut self) {
        self.pos = 0;
    }

    /// The recorded accesses.
    pub fn accesses(&self) -> &[MemoryAccess] {
        &self.accesses
    }
}

impl TraceSource for ReplayTrace {
    fn next_access(&mut self) -> MemoryAccess {
        let access = self.accesses[self.pos];
        self.pos += 1;
        if self.pos == self.accesses.len() {
            self.pos = 0;
        }
        access
    }

    fn name(&self) -> &str {
        "replay"
    }

    /// Lends the recording in place: up to `max` accesses from the
    /// cursor, stopping at the end of the recording, where the cursor
    /// wraps to the start.
    fn next_accesses<'a>(
        &'a mut self,
        max: usize,
        _buf: &'a mut Vec<MemoryAccess>,
    ) -> &'a [MemoryAccess] {
        let start = self.pos;
        let end = self.accesses.len().min(start + max);
        self.pos = if end == self.accesses.len() { 0 } else { end };
        &self.accesses[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack_distance::StackDistanceTrace;

    #[test]
    fn materialize_matches_iter() {
        let mut a = StackDistanceTrace::builder(0.6).seed(4).build();
        let mut b = StackDistanceTrace::builder(0.6).seed(4).build();
        assert_eq!(
            materialize(&mut a, 500),
            b.iter().take(500).collect::<Vec<_>>()
        );
    }

    #[test]
    fn replay_cycles_and_rewinds() {
        let mut gen = StackDistanceTrace::builder(0.4).seed(9).build();
        let mut replay = ReplayTrace::record(&mut gen, 10);
        let first: Vec<_> = replay.iter().take(10).collect();
        assert_eq!(first, replay.accesses());
        // Wrapped around: next access is the first again.
        assert_eq!(replay.next_access(), first[0]);
        replay.rewind();
        assert_eq!(replay.next_access(), first[0]);
        assert_eq!(replay.name(), "replay");
    }

    #[test]
    fn lent_slices_stop_at_the_wrap_and_match_next_access() {
        let mut gen = StackDistanceTrace::builder(0.4).seed(9).build();
        let mut replay = ReplayTrace::record(&mut gen, 10);
        let mut copy = replay.clone();
        let mut buf = Vec::new();
        let mut lent = Vec::new();
        for max in [0, 3, 4, 5, 10, 25, 1] {
            let slice = replay.next_accesses(max, &mut buf);
            assert!(slice.len() <= max && (max == 0 || !slice.is_empty()));
            lent.extend_from_slice(slice);
        }
        assert!(buf.is_empty(), "a replay never copies into the buffer");
        let drawn: Vec<_> = copy.iter().take(lent.len()).collect();
        assert_eq!(lent, drawn);
        // The two cursors agree too.
        assert_eq!(replay.next_access(), copy.next_access());
    }

    #[test]
    #[should_panic(expected = "at least one access")]
    fn empty_replay_panics() {
        ReplayTrace::new(Vec::new());
    }
}
