//! Cache geometry and replacement-policy configuration.

use std::fmt;

/// Replacement policy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used (the paper's implicit assumption; the power law
    /// of misses is an LRU-stack property).
    #[default]
    Lru,
    /// First-in first-out.
    Fifo,
    /// Pseudo-random victim selection (deterministic, seeded per cache).
    Random,
    /// Tree-based pseudo-LRU (the common hardware approximation).
    TreePlru,
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReplacementPolicy::Lru => "LRU",
            ReplacementPolicy::Fifo => "FIFO",
            ReplacementPolicy::Random => "random",
            ReplacementPolicy::TreePlru => "tree-PLRU",
        })
    }
}

/// Errors raised by invalid cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A geometry parameter must be a power of two.
    NotPowerOfTwo {
        /// Parameter name.
        name: &'static str,
        /// Rejected value.
        value: u64,
    },
    /// The capacity does not hold a whole number of sets.
    Indivisible {
        /// Total capacity in bytes.
        capacity: u64,
        /// Line size × associativity.
        set_bytes: u64,
    },
    /// A parameter was zero.
    Zero {
        /// Parameter name.
        name: &'static str,
    },
    /// A parameter was outside its valid range.
    OutOfRange {
        /// Parameter name.
        name: &'static str,
        /// Human-readable constraint, e.g. `"must be at most 64"`.
        constraint: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { name, value } => {
                write!(f, "{name} = {value} must be a power of two")
            }
            ConfigError::Indivisible {
                capacity,
                set_bytes,
            } => write!(
                f,
                "capacity {capacity} is not a multiple of one set ({set_bytes} bytes)"
            ),
            ConfigError::Zero { name } => write!(f, "{name} must be non-zero"),
            ConfigError::OutOfRange { name, constraint } => write!(f, "{name} {constraint}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Geometry of one cache: capacity, line size, associativity, policy.
///
/// # Examples
///
/// ```
/// use bandwall_cache_sim::{CacheConfig, ReplacementPolicy};
///
/// // A Niagara2-ish 4 MB, 16-way, 64 B-line L2.
/// let config = CacheConfig::new(4 << 20, 64, 16)?;
/// assert_eq!(config.sets(), 4096);
/// assert_eq!(config.lines(), 65536);
/// assert_eq!(config.policy(), ReplacementPolicy::Lru);
/// # Ok::<(), bandwall_cache_sim::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    capacity_bytes: u64,
    line_size: u64,
    associativity: u32,
    policy: ReplacementPolicy,
    policy_seed: u64,
}

impl CacheConfig {
    /// Creates an LRU cache geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when any parameter is zero, `line_size` or
    /// the derived set count is not a power of two, the associativity
    /// exceeds 64, or the capacity does not divide into whole sets.
    pub fn new(
        capacity_bytes: u64,
        line_size: u64,
        associativity: u32,
    ) -> Result<Self, ConfigError> {
        if capacity_bytes == 0 {
            return Err(ConfigError::Zero {
                name: "capacity_bytes",
            });
        }
        if line_size == 0 {
            return Err(ConfigError::Zero { name: "line_size" });
        }
        if associativity == 0 {
            return Err(ConfigError::Zero {
                name: "associativity",
            });
        }
        if associativity > 64 {
            return Err(ConfigError::OutOfRange {
                name: "associativity",
                constraint: "must be at most 64",
            });
        }
        if !line_size.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                name: "line_size",
                value: line_size,
            });
        }
        let set_bytes = line_size * associativity as u64;
        if !capacity_bytes.is_multiple_of(set_bytes) {
            return Err(ConfigError::Indivisible {
                capacity: capacity_bytes,
                set_bytes,
            });
        }
        let sets = capacity_bytes / set_bytes;
        if !sets.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                name: "derived set count",
                value: sets,
            });
        }
        Ok(CacheConfig {
            capacity_bytes,
            line_size,
            associativity,
            policy: ReplacementPolicy::default(),
            policy_seed: 0,
        })
    }

    /// Selects the replacement policy.
    #[must_use]
    pub fn with_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Seeds the [`ReplacementPolicy::Random`] victim chooser.
    #[must_use]
    pub fn with_policy_seed(mut self, seed: u64) -> Self {
        self.policy_seed = seed;
        self
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Ways per set.
    pub fn associativity(&self) -> u32 {
        self.associativity
    }

    /// Replacement policy.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Seed for the random policy.
    pub fn policy_seed(&self) -> u64 {
        self.policy_seed
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (self.line_size * self.associativity as u64)
    }

    /// Total number of lines.
    pub fn lines(&self) -> u64 {
        self.capacity_bytes / self.line_size
    }

    /// Words (8-byte) per line.
    pub fn words_per_line(&self) -> u32 {
        (self.line_size / 8).max(1) as u32
    }

    /// Splits a byte address into `(set index, tag)`. The tag is the full
    /// line address, so the original line address is recoverable.
    pub fn locate(&self, address: u64) -> (u64, u64) {
        let line_addr = address / self.line_size;
        (line_addr % self.sets(), line_addr)
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} KB, {}-way, {} B lines, {}",
            self.capacity_bytes / 1024,
            self.associativity,
            self.line_size,
            self.policy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_derivation() {
        let c = CacheConfig::new(32 << 10, 64, 8).unwrap();
        assert_eq!(c.sets(), 64);
        assert_eq!(c.lines(), 512);
        assert_eq!(c.words_per_line(), 8);
    }

    #[test]
    fn locate_round_trip() {
        let c = CacheConfig::new(32 << 10, 64, 8).unwrap();
        let (set, tag) = c.locate(0x12345);
        assert_eq!(tag, 0x12345 / 64);
        assert_eq!(set, (0x12345 / 64) % 64);
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(matches!(
            CacheConfig::new(0, 64, 8).unwrap_err(),
            ConfigError::Zero { .. }
        ));
        assert!(matches!(
            CacheConfig::new(32 << 10, 48, 8).unwrap_err(),
            ConfigError::NotPowerOfTwo { .. }
        ));
        assert!(matches!(
            CacheConfig::new(1000, 64, 8).unwrap_err(),
            ConfigError::Indivisible { .. }
        ));
        // 33 KB divides into 66 sets — a non-power-of-two set count.
        assert!(matches!(
            CacheConfig::new(33 << 10, 64, 8).unwrap_err(),
            ConfigError::NotPowerOfTwo { .. }
        ));
        assert!(matches!(
            CacheConfig::new(32 << 10, 64, 0).unwrap_err(),
            ConfigError::Zero { .. }
        ));
        assert!(CacheConfig::new(3 << 20, 64, 8).is_err()); // 6144 sets: not 2^n

        // 128 is a power of two; the limit is the 64-way occupancy mask.
        let too_wide = CacheConfig::new(8192, 64, 128).unwrap_err();
        assert_eq!(
            too_wide,
            ConfigError::OutOfRange {
                name: "associativity",
                constraint: "must be at most 64",
            }
        );
        assert_eq!(too_wide.to_string(), "associativity must be at most 64");
    }

    #[test]
    fn fully_associative_allowed() {
        let c = CacheConfig::new(4096, 64, 64).unwrap();
        assert_eq!(c.sets(), 1);
    }

    #[test]
    fn direct_mapped_allowed() {
        let c = CacheConfig::new(4096, 64, 1).unwrap();
        assert_eq!(c.sets(), 64);
    }

    #[test]
    fn policy_builder() {
        let c = CacheConfig::new(4096, 64, 4)
            .unwrap()
            .with_policy(ReplacementPolicy::Random)
            .with_policy_seed(7);
        assert_eq!(c.policy(), ReplacementPolicy::Random);
        assert_eq!(c.policy_seed(), 7);
    }

    #[test]
    fn displays() {
        let c = CacheConfig::new(4 << 20, 64, 16).unwrap();
        let s = c.to_string();
        assert!(s.contains("4096 KB") && s.contains("16-way"), "{s}");
        assert_eq!(ReplacementPolicy::TreePlru.to_string(), "tree-PLRU");
    }

    #[test]
    fn error_display_nonempty() {
        let errs: [ConfigError; 3] = [
            ConfigError::NotPowerOfTwo {
                name: "line_size",
                value: 48,
            },
            ConfigError::Indivisible {
                capacity: 100,
                set_bytes: 64,
            },
            ConfigError::Zero { name: "line_size" },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
