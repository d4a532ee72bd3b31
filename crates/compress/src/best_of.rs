//! Best-of compressor combinator.
//!
//! Hardware proposals frequently pair a pattern-based scheme with a
//! base-delta scheme and pick whichever encodes each line smaller (at the
//! cost of a selector tag). [`BestOf`] composes any set of engines that
//! way: compression chooses the smallest encoding and prepends a 1-byte
//! selector; decompression dispatches on it.

use crate::{Compressor, DecompressError};

/// Chooses the best of several engines per line.
///
/// # Examples
///
/// ```
/// use bandwall_compress::{Bdi, BestOf, Compressor, Fpc};
///
/// let engine = BestOf::new(vec![Box::new(Fpc::new()), Box::new(Bdi::new())]);
/// // A repeated 8-byte value: BDI wins (9 bytes + selector).
/// let mut line = Vec::new();
/// for _ in 0..8 {
///     line.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_be_bytes());
/// }
/// let compressed = engine.compress(&line);
/// assert_eq!(compressed.len(), 10);
/// assert_eq!(engine.decompress(&compressed, 64).unwrap(), line);
/// ```
pub struct BestOf {
    engines: Vec<Box<dyn Compressor>>,
}

impl std::fmt::Debug for BestOf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.engines.iter().map(|e| e.name()).collect();
        f.debug_struct("BestOf").field("engines", &names).finish()
    }
}

impl BestOf {
    /// Creates a combinator over `engines` (tried in order; earlier wins
    /// ties).
    ///
    /// # Panics
    ///
    /// Panics if no engine is supplied or more than 255 are (the selector
    /// is one byte).
    pub fn new(engines: Vec<Box<dyn Compressor>>) -> Self {
        assert!(!engines.is_empty(), "need at least one engine");
        assert!(engines.len() <= 255, "selector is one byte");
        BestOf { engines }
    }

    /// The canonical FPC + BDI + zero-RLE stack.
    pub fn standard() -> Self {
        BestOf::new(vec![
            Box::new(crate::Fpc::new()),
            Box::new(crate::Bdi::new()),
            Box::new(crate::ZeroRle::new()),
        ])
    }

    /// Number of engines.
    pub fn engines(&self) -> usize {
        self.engines.len()
    }
}

impl Compressor for BestOf {
    fn clone_box(&self) -> Box<dyn Compressor> {
        Box::new(BestOf {
            engines: self.engines.iter().map(|e| e.clone_box()).collect(),
        })
    }

    fn name(&self) -> &'static str {
        "BestOf"
    }

    fn compress(&self, line: &[u8]) -> Vec<u8> {
        let (index, best) = self
            .engines
            .iter()
            .enumerate()
            .map(|(i, e)| (i, e.compress(line)))
            .min_by_key(|(_, data)| data.len())
            .expect("at least one engine");
        let mut out = Vec::with_capacity(best.len() + 1);
        out.push(index as u8);
        out.extend_from_slice(&best);
        out
    }

    fn decompress(&self, data: &[u8], original_len: usize) -> Result<Vec<u8>, DecompressError> {
        let (&selector, payload) = data.split_first().ok_or(DecompressError::Truncated)?;
        let engine = self
            .engines
            .get(selector as usize)
            .ok_or(DecompressError::Corrupt)?;
        engine.decompress(payload, original_len)
    }

    /// Size-only path: selector byte plus the smallest member size. Delegates
    /// to each member's `compressed_size`, so the members' size-only paths
    /// propagate through without running their full encoders.
    fn compressed_size(&self, line: &[u8]) -> usize {
        if line.is_empty() {
            // Every member encodes an empty line in zero bytes, but their
            // `compressed_size` is capped below by 1; special-case to match
            // `compress` (selector byte only).
            return 1;
        }
        1 + self
            .engines
            .iter()
            .map(|e| e.compressed_size(line))
            .min()
            .expect("at least one engine")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bdi, Fpc, ZeroRle};

    fn engine() -> BestOf {
        BestOf::standard()
    }

    #[test]
    fn picks_the_smallest_encoding() {
        let e = engine();
        // Zero line: BDI encodes in 1 byte, ZeroRLE in 1, FPC in 6. The
        // winner must be 1 byte + selector.
        assert_eq!(e.compress(&[0u8; 64]).len(), 2);
    }

    #[test]
    fn never_larger_than_best_engine_plus_selector() {
        let lines: Vec<Vec<u8>> = vec![
            vec![0u8; 64],
            vec![0xAA; 64],
            (0..64u32).map(|i| (i * 37) as u8).collect(),
            (0..16u32).flat_map(|i| (i % 3).to_be_bytes()).collect(),
        ];
        let e = engine();
        let singles: Vec<Box<dyn Compressor>> = vec![
            Box::new(Fpc::new()),
            Box::new(Bdi::new()),
            Box::new(ZeroRle::new()),
        ];
        for line in &lines {
            let combined = e.compress(line).len();
            let best_single = singles
                .iter()
                .map(|s| s.compress(line).len())
                .min()
                .unwrap();
            assert_eq!(combined, best_single + 1);
        }
    }

    #[test]
    fn round_trips_across_selectors() {
        let e = engine();
        let lines: Vec<Vec<u8>> = vec![
            vec![0u8; 64],                                              // zero
            (0..8u64).flat_map(|i| (1000 + i).to_be_bytes()).collect(), // BDI-friendly
            (0..64u32)
                .map(|i| (i.wrapping_mul(2654435761) >> 9) as u8)
                .collect(), // noise
        ];
        for line in &lines {
            let compressed = e.compress(line);
            assert_eq!(&e.decompress(&compressed, line.len()).unwrap(), line);
        }
    }

    #[test]
    fn beats_each_single_engine_on_a_mixed_stream() {
        use crate::evaluate;
        let stream = bandwall_shim::lines();
        let combined = evaluate(&engine(), stream.iter().map(|l| l.as_slice()));
        for single in [&Fpc::new() as &dyn Compressor, &Bdi::new(), &ZeroRle::new()] {
            let alone = evaluate(single, stream.iter().map(|l| l.as_slice()));
            // The selector byte costs a little, so allow a small epsilon.
            assert!(
                combined.ratio() >= alone.ratio() * 0.93,
                "BestOf {:.2} vs {} {:.2}",
                combined.ratio(),
                single.name(),
                alone.ratio()
            );
        }
    }

    /// Deterministic mixed-pattern stream without pulling in the trace
    /// crate (which would create a dependency cycle).
    mod bandwall_shim {
        pub fn lines() -> Vec<Vec<u8>> {
            let mut out = Vec::new();
            for i in 0..50u64 {
                let line: Vec<u8> = match i % 5 {
                    0 => vec![0u8; 64],
                    1 => vec![(i * 31) as u8; 64],
                    2 => (0..8u64)
                        .flat_map(|k| (0x7000_0000 + i * 64 + k * 8).to_be_bytes())
                        .collect(),
                    3 => (0..16u32)
                        .flat_map(|k| ((i as u32).wrapping_mul(97) + k).to_be_bytes())
                        .collect(),
                    _ => (0..64u64)
                        .map(|k| ((i * 131 + k).wrapping_mul(2654435761) >> 13) as u8)
                        .collect(),
                };
                out.push(line);
            }
            out
        }
    }

    #[test]
    fn size_only_matches_encoder() {
        let e = engine();
        for line in bandwall_shim::lines() {
            assert_eq!(e.compressed_size(&line), e.compress(&line).len().max(1));
        }
        assert_eq!(e.compressed_size(&[]), e.compress(&[]).len().max(1));
    }

    #[test]
    fn decompress_error_paths() {
        let e = engine();
        assert!(matches!(
            e.decompress(&[], 64).unwrap_err(),
            DecompressError::Truncated
        ));
        assert!(matches!(
            e.decompress(&[99, 0, 0], 64).unwrap_err(),
            DecompressError::Corrupt
        ));
    }

    #[test]
    #[should_panic(expected = "at least one engine")]
    fn empty_engine_list_panics() {
        BestOf::new(vec![]);
    }

    #[test]
    fn standard_stack_and_debug() {
        let e = BestOf::standard();
        assert_eq!(e.engines(), 3);
        assert!(format!("{e:?}").contains("FPC"));
    }
}
