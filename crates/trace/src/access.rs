//! Memory accesses and the trace-source abstraction.

use std::fmt;

/// Whether an access reads or writes its location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessKind {
    /// A load.
    #[default]
    Read,
    /// A store (marks the cache line dirty).
    Write,
}

impl AccessKind {
    /// `true` for [`AccessKind::Write`].
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "R",
            AccessKind::Write => "W",
        })
    }
}

/// One memory access: a byte address, a read/write kind, and the id of the
/// issuing thread (0 for single-threaded traces).
///
/// # Examples
///
/// ```
/// use bandwall_trace::{AccessKind, MemoryAccess};
///
/// let a = MemoryAccess::read(0x1040);
/// assert_eq!(a.address(), 0x1040);
/// assert!(!a.kind().is_write());
/// assert_eq!(a.thread(), 0);
///
/// let w = MemoryAccess::write(0x2000).on_thread(3);
/// assert!(w.kind().is_write());
/// assert_eq!(w.thread(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryAccess {
    address: u64,
    kind: AccessKind,
    thread: u16,
}

impl MemoryAccess {
    /// Creates an access with an explicit kind on thread 0.
    pub fn new(address: u64, kind: AccessKind) -> Self {
        MemoryAccess {
            address,
            kind,
            thread: 0,
        }
    }

    /// Creates a read on thread 0.
    pub fn read(address: u64) -> Self {
        MemoryAccess::new(address, AccessKind::Read)
    }

    /// Creates a write on thread 0.
    pub fn write(address: u64) -> Self {
        MemoryAccess::new(address, AccessKind::Write)
    }

    /// Returns the same access attributed to `thread`.
    #[must_use]
    pub fn on_thread(mut self, thread: u16) -> Self {
        self.thread = thread;
        self
    }

    /// Byte address.
    pub fn address(&self) -> u64 {
        self.address
    }

    /// Read or write.
    pub fn kind(&self) -> AccessKind {
        self.kind
    }

    /// Issuing thread id.
    pub fn thread(&self) -> u16 {
        self.thread
    }
}

impl fmt::Display for MemoryAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:#x} (t{})", self.kind, self.address, self.thread)
    }
}

/// An infinite, deterministic stream of memory accesses.
///
/// All generators in this crate are seeded: the same seed yields the same
/// stream, so every experiment is reproducible bit-for-bit.
pub trait TraceSource {
    /// Produces the next access in the stream.
    fn next_access(&mut self) -> MemoryAccess;

    /// Human-readable workload name for reports.
    fn name(&self) -> &str;

    /// The next accesses of the stream as one slice: at least one and at
    /// most `max` of them (none when `max` is 0). The stream advances
    /// past exactly the accesses returned.
    ///
    /// The provided method copies: it clears `buf`, fills it with `max`
    /// calls to [`TraceSource::next_access`] and returns it. A source that
    /// holds its stream in memory may lend a slice of its own storage
    /// instead, shorter than `max` where that storage ends, and leave
    /// `buf` untouched; [`ReplayTrace`](crate::ReplayTrace) does. Bulk
    /// consumers, such as the simulators' run loop, read a recorded trace
    /// in place this way.
    ///
    /// # Examples
    ///
    /// ```
    /// use bandwall_trace::{ReplayTrace, StackDistanceTrace, TraceSource};
    ///
    /// let trace = || StackDistanceTrace::builder(0.5).seed(1).build();
    /// let mut buf = Vec::new();
    /// let copied = trace().next_accesses(3, &mut buf).to_vec();
    /// assert_eq!(copied.len(), 3);
    ///
    /// let mut replay = ReplayTrace::record(&mut trace(), 5);
    /// assert_eq!(replay.next_accesses(3, &mut buf), &copied[..]);
    /// // A lent slice stops where the recording wraps.
    /// assert_eq!(replay.next_accesses(3, &mut buf).len(), 2);
    /// assert_eq!(replay.next_accesses(3, &mut buf), &copied[..]);
    /// ```
    fn next_accesses<'a>(
        &'a mut self,
        max: usize,
        buf: &'a mut Vec<MemoryAccess>,
    ) -> &'a [MemoryAccess] {
        buf.clear();
        buf.extend((0..max).map(|_| self.next_access()));
        buf
    }

    /// Borrowing iterator over the (infinite) stream; combine with
    /// [`Iterator::take`].
    ///
    /// # Examples
    ///
    /// ```
    /// use bandwall_trace::{StackDistanceTrace, TraceSource};
    ///
    /// let mut trace = StackDistanceTrace::builder(0.5).seed(1).build();
    /// let first_hundred: Vec<_> = trace.iter().take(100).collect();
    /// assert_eq!(first_hundred.len(), 100);
    /// ```
    fn iter(&mut self) -> TraceIter<'_, Self>
    where
        Self: Sized,
    {
        TraceIter { source: self }
    }
}

/// Borrowing iterator returned by [`TraceSource::iter`].
#[derive(Debug)]
pub struct TraceIter<'a, T> {
    source: &'a mut T,
}

impl<T: TraceSource> Iterator for TraceIter<'_, T> {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        Some(self.source.next_access())
    }
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_access(&mut self) -> MemoryAccess {
        (**self).next_access()
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn next_accesses<'a>(
        &'a mut self,
        max: usize,
        buf: &'a mut Vec<MemoryAccess>,
    ) -> &'a [MemoryAccess] {
        (**self).next_accesses(max, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_constructors() {
        assert_eq!(MemoryAccess::read(7).kind(), AccessKind::Read);
        assert_eq!(MemoryAccess::write(7).kind(), AccessKind::Write);
        assert_eq!(MemoryAccess::read(7).on_thread(5).thread(), 5);
    }

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
        assert_eq!(AccessKind::default(), AccessKind::Read);
    }

    #[test]
    fn display_forms() {
        let a = MemoryAccess::write(0x40).on_thread(2);
        let s = a.to_string();
        assert!(s.contains('W') && s.contains("0x40") && s.contains("t2"));
    }

    #[test]
    fn boxed_trace_source_delegates() {
        struct Fixed;
        impl TraceSource for Fixed {
            fn next_access(&mut self) -> MemoryAccess {
                MemoryAccess::read(42)
            }
            fn name(&self) -> &str {
                "fixed"
            }
        }
        let mut boxed: Box<dyn TraceSource> = Box::new(Fixed);
        assert_eq!(boxed.next_access().address(), 42);
        assert_eq!(boxed.name(), "fixed");
    }
}
