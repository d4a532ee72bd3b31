//! A table from line numbers to slots in pages of 4096 lines.
//!
//! The miss-rate probe keeps one LRU node per line it has seen, and
//! the cache engine's compulsory-miss classifier one bit per line it has
//! missed on. Both are read on nearly every access, and the lines a
//! simulated workload touches are dense ranges: a working set, a
//! footprint, a stream of fresh lines. A hash-map entry per line costs
//! a hash, a probe of a table that outgrows the CPU caches, and 16 bytes
//! or more per line. [`PagedLineTable`] instead gives each line a slot
//! in a page of [`PAGE_LINES`] lines; a page map of at most a few hundred
//! entries finds the page, and a direct-mapped memo of recently used
//! pages answers most lookups without hashing at all.
//!
//! The cost is per page, not per line: each page a line lands in is
//! allocated in full, however few of its lines are used. For dense
//! line ranges that is the cheapest layout there is; for a few lines
//! scattered over a huge address space it would waste a page each.

use crate::line_hash::LineMap;

/// `log2` of [`PAGE_LINES`].
const PAGE_SHIFT: u32 = 12;

/// Lines per page of a [`PagedLineTable`].
pub const PAGE_LINES: usize = 1 << PAGE_SHIFT;

/// `log2` of the memo's slot count. A 16-core shared L2 classifies lines
/// on 17 pages at once (a shared region and one private region per
/// core), which a 16-slot memo cannot hold without collisions.
const MEMO_BITS: u32 = 6;

/// Odd multiplier (2^64 over the golden ratio) that picks a page's memo
/// slot from its page number's high product bits.
const MEMO_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Maps each line number to a slot in a page of [`PAGE_LINES`] lines.
///
/// `P` is what one page holds: a `[u32; PAGE_LINES]` of node ids for the
/// miss-rate probe, a bitmap of 64 `u64` words for the first-touch
/// classifier. A page is created as a copy of the blank page given to
/// [`PagedLineTable::new`] the first time one of its lines is looked up.
///
/// # Examples
///
/// ```
/// use bandwall_trace::{PagedLineTable, PAGE_LINES};
///
/// let mut seen = PagedLineTable::new([false; PAGE_LINES]);
/// let (page, slot) = seen.page_mut(5_000);
/// assert!(!page[slot]);
/// page[slot] = true;
/// let (page, slot) = seen.page_mut(5_000);
/// assert!(page[slot]);
/// ```
#[derive(Debug, Clone)]
pub struct PagedLineTable<P> {
    pages: Vec<P>,
    /// Page number → index into `pages`.
    page_map: LineMap<u64, usize>,
    /// `(page number, index)` per slot, the slot chosen by a
    /// multiplicative hash of the page number. Page numbers are at most
    /// `u64::MAX >> PAGE_SHIFT`, so `u64::MAX` marks an empty slot.
    memo: [(u64, usize); 1 << MEMO_BITS],
    blank: P,
}

impl<P: Clone> PagedLineTable<P> {
    /// An empty table whose pages start as copies of `blank`.
    pub fn new(blank: P) -> Self {
        PagedLineTable {
            pages: Vec::new(),
            page_map: LineMap::default(),
            memo: [(u64::MAX, 0); 1 << MEMO_BITS],
            blank,
        }
    }

    /// The page holding `line`, created on first use, and `line`'s slot
    /// in it (below [`PAGE_LINES`]).
    #[inline]
    pub fn page_mut(&mut self, line: u64) -> (&mut P, usize) {
        let page = line >> PAGE_SHIFT;
        let slot = memo_slot(page);
        let index = if self.memo[slot].0 == page {
            self.memo[slot].1
        } else {
            self.find_page(page, slot)
        };
        let offset = (line & (PAGE_LINES as u64 - 1)) as usize;
        (&mut self.pages[index], offset)
    }

    /// The memo missed: finds (or creates) `page` through the page map
    /// and remembers it in memo slot `slot`.
    #[inline(never)]
    fn find_page(&mut self, page: u64, slot: usize) -> usize {
        let fresh = self.pages.len();
        let index = *self.page_map.entry(page).or_insert(fresh);
        if index == fresh {
            self.pages.push(self.blank.clone());
        }
        self.memo[slot] = (page, index);
        index
    }
}

/// The memo slot of page number `page`: the top bits of a
/// multiplicative hash.
#[inline]
fn memo_slot(page: u64) -> usize {
    (page.wrapping_mul(MEMO_MULTIPLIER) >> (64 - MEMO_BITS)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_line_gets_its_own_slot() {
        let mut table = PagedLineTable::new([0u32; PAGE_LINES]);
        // Dense and far-apart lines, with page numbers that share memo
        // slots.
        let lines: Vec<u64> = (0..10_000u64)
            .chain((1..=64).map(|i| (i << 30) + 7))
            .chain([u64::MAX, u64::MAX - 1])
            .collect();
        for (i, &line) in lines.iter().enumerate() {
            let (page, slot) = table.page_mut(line);
            assert_eq!(page[slot], 0, "line {line} already written");
            page[slot] = i as u32 + 1;
        }
        for (i, &line) in lines.iter().enumerate() {
            let (page, slot) = table.page_mut(line);
            assert_eq!(page[slot], i as u32 + 1, "line {line}");
        }
        // 10,000 dense lines fill three pages; each far line adds one,
        // and the two topmost lines share the last.
        assert_eq!(table.pages.len(), 3 + 64 + 1);
    }

    #[test]
    fn a_sixteen_core_shared_l2_fits_the_memo() {
        // Figure 14's PARSEC-like layout in 64-byte lines: the shared
        // region on page 0, core `t`'s private region at byte
        // `(t + 1) << 32`.
        let pages = (0..=16u64).map(|t| (t << 26) >> PAGE_SHIFT);
        let mut slots: Vec<usize> = pages.map(memo_slot).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(
            slots.len(),
            17,
            "first pages of 17 regions share memo slots"
        );
    }
}
