//! Cache-line and memory-link compression engines.
//!
//! The bandwidth-wall paper evaluates cache compression (Section 6.1), link
//! compression (Section 6.2), and combined cache+link compression
//! (Section 6.3) using compression ratios from the literature. This crate
//! implements the cited mechanisms so those ratios can be *derived* on
//! synthetic value streams instead of assumed:
//!
//! * [`Fpc`] — Frequent Pattern Compression (Alameldeen & Wood), the cache
//!   compression scheme behind the paper's 1.4–2.4× ratios.
//! * [`Bdi`] — Base-Delta-Immediate, a low-latency alternative.
//! * [`ZeroRle`] — zero-run-length null suppression, the conservative
//!   baseline.
//! * [`LinkCompressor`] — the stateful value-locality dictionary scheme of
//!   Thuresson et al. for off-chip links (with [`DictionaryLine`] as its
//!   stateless per-line adapter).
//!
//! All compressors are lossless; `compress` → `decompress` round-trips
//! exactly (property-tested). Compressed sizes are what the bandwidth
//! model consumes.
//!
//! # Examples
//!
//! ```
//! use bandwall_compress::{Bdi, Compressor, Fpc, ZeroRle};
//!
//! let line = {
//!     let mut l = Vec::new();
//!     for i in 0..16u32 {
//!         l.extend_from_slice(&(100 + i).to_be_bytes());
//!     }
//!     l
//! };
//! for engine in [&Fpc::new() as &dyn Compressor, &Bdi::new(), &ZeroRle::new()] {
//!     let compressed = engine.compress(&line);
//!     assert_eq!(engine.decompress(&compressed, line.len())?, line);
//!     assert!(engine.compression_ratio(&line) > 1.0, "{}", engine.name());
//! }
//! # Ok::<(), bandwall_compress::DecompressError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bdi;
mod best_of;
pub mod bits;
mod dictionary;
mod fpc;
mod stats;
mod zero;

pub use bdi::Bdi;
pub use best_of::BestOf;
pub use dictionary::{DictionaryLine, LinkCompressor};
pub use fpc::Fpc;
pub use stats::CompressionStats;
pub use zero::ZeroRle;

use std::fmt;

/// Errors produced when decompressing a damaged or mismatched stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompressError {
    /// The stream ended before the declared original length was produced.
    Truncated,
    /// The stream contained an impossible token.
    Corrupt,
    /// `original_len` is not a multiple of the compressor's word size.
    InvalidLength {
        /// The rejected length.
        len: usize,
    },
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompressError::Truncated => f.write_str("compressed stream truncated"),
            DecompressError::Corrupt => f.write_str("compressed stream corrupt"),
            DecompressError::InvalidLength { len } => {
                write!(f, "invalid original length {len} for this compressor")
            }
        }
    }
}

impl std::error::Error for DecompressError {}

/// A lossless cache-line compressor.
///
/// Implementations must satisfy
/// `decompress(&compress(line), line.len()) == line` for every line whose
/// length meets the engine's alignment requirement (a multiple of 4 bytes
/// for word-based engines, 8 for [`Bdi`]).
///
/// The `Send + Sync` bounds let boxed engines travel into the bank-parallel
/// simulation workers; every engine here is plain value data, so they are
/// free.
pub trait Compressor: Send + Sync {
    /// Short engine name for reports (e.g. `"FPC"`).
    fn name(&self) -> &'static str;

    /// Compresses one cache line.
    ///
    /// # Panics
    ///
    /// Implementations panic when `line.len()` violates their alignment
    /// requirement — lines come from caches whose geometry is fixed, so a
    /// misaligned length is a programming error, not an input error.
    fn compress(&self, line: &[u8]) -> Vec<u8>;

    /// Reconstructs the original `original_len`-byte line.
    ///
    /// # Errors
    ///
    /// Returns a [`DecompressError`] when the stream is truncated, corrupt,
    /// or `original_len` is invalid for the engine.
    fn decompress(&self, data: &[u8], original_len: usize) -> Result<Vec<u8>, DecompressError>;

    /// Size in bytes after compression (capped below by 1).
    ///
    /// The bundled engines override this with allocation-free size-only
    /// paths that equal `compress(line).len().max(1)` byte for byte
    /// (property-tested per engine).
    fn compressed_size(&self, line: &[u8]) -> usize {
        self.compress(line).len().max(1)
    }

    /// Compression ratio `original / compressed` for one line.
    fn compression_ratio(&self, line: &[u8]) -> f64 {
        line.len() as f64 / self.compressed_size(line) as f64
    }

    /// Boxes a copy of this engine, making `Box<dyn Compressor>` cloneable
    /// (compressed-cache simulators derive `Clone`).
    fn clone_box(&self) -> Box<dyn Compressor>;
}

impl Clone for Box<dyn Compressor> {
    fn clone(&self) -> Self {
        self.as_ref().clone_box()
    }
}

/// Evaluates a compressor over an iterator of lines, returning aggregate
/// statistics.
///
/// # Examples
///
/// ```
/// use bandwall_compress::{evaluate, Fpc};
///
/// let lines = vec![vec![0u8; 64]; 10];
/// let stats = evaluate(&Fpc::new(), lines.iter().map(|l| l.as_slice()));
/// assert!(stats.ratio() > 8.0);
/// ```
pub fn evaluate<'a, C, I>(compressor: &C, lines: I) -> CompressionStats
where
    C: Compressor + ?Sized,
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut stats = CompressionStats::new();
    for line in lines {
        stats.record(line.len(), compressor.compressed_size(line));
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_objects_work() {
        let engines: Vec<Box<dyn Compressor>> = vec![
            Box::new(Fpc::new()),
            Box::new(Bdi::new()),
            Box::new(ZeroRle::new()),
            Box::new(DictionaryLine::new()),
        ];
        let line = [0u8; 64];
        for e in &engines {
            assert!(e.compression_ratio(&line) > 1.0, "{}", e.name());
        }
    }

    #[test]
    fn evaluate_aggregates() {
        let lines = [vec![0u8; 64], vec![0xAB; 64]];
        let stats = evaluate(&Fpc::new(), lines.iter().map(|l| l.as_slice()));
        assert_eq!(stats.lines(), 2);
        assert_eq!(stats.input_bytes(), 128);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            DecompressError::Truncated,
            DecompressError::Corrupt,
            DecompressError::InvalidLength { len: 3 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
