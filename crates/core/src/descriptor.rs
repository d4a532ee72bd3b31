//! The open technique registry: one [`TechniqueDescriptor`] per
//! bandwidth-conservation technique.
//!
//! Table 2 is the paper's central artifact, but a catalogue hardcoded as
//! enums and match arms is closed: every new technique used to require
//! edits in four places (the `Technique` constructors, the catalogue
//! enum, the named-sweep match, and the wire schema). This module makes
//! the catalogue *data*: each descriptor carries the technique's
//! identity, its Table 2 ratings and assumption bands, its parameter
//! schema (names, domains, defaults — shared by the constructors and the
//! `/v1` wire layer), its canonical-encoding tag, and its effect
//! application as a composable term over [`Effects`]. Every consumer —
//! [`crate::catalog()`], the figure sweeps, `GET /v1/techniques`,
//! `POST /v1/sweep` validation — derives from this table, so registering
//! a technique here is the *only* step needed to open a new scenario
//! axis.
//!
//! The registry holds the paper's nine Table 2 rows
//! ([`TechniqueDescriptor::paper`] is `true`) plus post-2009 extensions:
//! `thermal_capped_3d` (the thermal ceiling on 3D stacking, after Yavits
//! et al., "The Effect of Temperature on Amdahl Law in 3D Multicore
//! Era") and `cxl_harvesting` (idle-I/O bandwidth harvesting over CXL,
//! after Kadiyala & Daglis, arXiv 2511.12349).

use crate::catalog::{AssumptionLevel, Rating};
use crate::effects::{Effects, StackedLayer};
use crate::error::ModelError;
use crate::techniques::{Category, Technique};
use std::fmt;

/// The largest parameter count any registered technique uses; the fixed
/// size of [`Technique`]'s inline parameter storage.
pub const MAX_PARAMS: usize = 3;

/// The validation domain of one technique parameter. Each domain owns
/// its constraint text, so the registry cannot drift from the error
/// messages the model (and the wire layer) report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamDomain {
    /// A multiplier at or above 1 (compression ratios, densities).
    Ratio,
    /// A fraction in `[0, 1)` (unused-data shares).
    Fraction,
    /// A fraction in `[0, 1]` (duty cycles; the closed upper end is
    /// meaningful: "always" is a valid answer).
    ClosedFraction,
    /// A fraction in `(0, 1]` (area fractions, derating factors).
    UnitInterval,
    /// A non-negative finite magnitude.
    NonNegative,
    /// A whole number of layers from 1 to 64: the deepest stack any
    /// caller models (the catalogue's deepest band is 8), and a bound on
    /// the per-layer work every solve step repeats.
    Layers,
}

impl ParamDomain {
    /// The constraint text carried by validation errors.
    pub fn constraint(self) -> &'static str {
        match self {
            ParamDomain::Ratio => "must be finite and >= 1",
            ParamDomain::Fraction => "must be in [0, 1)",
            ParamDomain::ClosedFraction => "must be in [0, 1]",
            ParamDomain::UnitInterval => "must be in (0, 1]",
            ParamDomain::NonNegative => "must be finite and >= 0",
            ParamDomain::Layers => "must be at least 1 and at most 64",
        }
    }

    /// Whether values in this domain are whole numbers (and therefore
    /// canonically encoded — and wire-rendered — as integers).
    pub fn is_integer(self) -> bool {
        matches!(self, ParamDomain::Layers)
    }

    /// Checks `value` against the domain.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] carrying `name`, the
    /// offending value, and this domain's constraint text.
    pub fn validate(self, name: &'static str, value: f64) -> Result<f64, ModelError> {
        let ok = match self {
            ParamDomain::Ratio => value.is_finite() && value >= 1.0,
            ParamDomain::Fraction => value.is_finite() && (0.0..1.0).contains(&value),
            ParamDomain::ClosedFraction => value.is_finite() && (0.0..=1.0).contains(&value),
            ParamDomain::UnitInterval => value.is_finite() && value > 0.0 && value <= 1.0,
            ParamDomain::NonNegative => value.is_finite() && value >= 0.0,
            ParamDomain::Layers => value.fract() == 0.0 && (1.0..=64.0).contains(&value),
        };
        if ok {
            Ok(value)
        } else {
            Err(ModelError::InvalidParameter {
                name,
                value,
                constraint: self.constraint(),
            })
        }
    }
}

/// Schema of one technique parameter: its wire field name, the name
/// validation errors report it under, its domain, and the value it takes
/// when a wire shape omits it.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// JSON field name on the wire (e.g. `"layer_density"`).
    pub field: &'static str,
    /// Name used in [`ModelError::InvalidParameter`] (historically not
    /// always the wire name, e.g. `compression_ratio` for `ratio`).
    pub error_name: &'static str,
    /// Validation domain.
    pub domain: ParamDomain,
    /// Value assumed when a wire shape omits this field; `None` marks a
    /// parameter every wire shape must carry.
    pub default: Option<f64>,
}

/// One JSON shape a technique accepts (and renders) on the wire: a
/// `kind` string plus the indices of the parameters that shape carries.
/// A technique may have several shapes — `stacked_cache` (layers only,
/// density defaulting to SRAM) and `stacked_dram_cache` (layers and
/// density) are two shapes of one descriptor.
#[derive(Debug, Clone, Copy)]
pub struct WireKind {
    /// The `kind` discriminator on the wire.
    pub kind: &'static str,
    /// Indices into [`TechniqueDescriptor::params`] this shape carries;
    /// omitted parameters take their [`ParamSpec::default`].
    pub fields: &'static [usize],
}

/// One assumption level of a technique: the Table 2 cell text and the
/// full parameter vector that instantiates it.
#[derive(Debug, Clone, Copy)]
pub struct AssumptionBand {
    /// Human-readable assumption text, as printed in Table 2.
    pub text: &'static str,
    /// Parameter vector (one value per [`TechniqueDescriptor::params`]
    /// entry) at this level.
    pub params: &'static [f64],
}

/// Everything the system knows about one bandwidth-conservation
/// technique. See the [module docs](self) for the design rationale.
#[derive(Debug, Clone, Copy)]
pub struct TechniqueDescriptor {
    /// Stable registry id — also the technique's primary wire kind.
    pub id: &'static str,
    /// Short figure-axis label (e.g. `"CC/LC"`).
    pub label: &'static str,
    /// Full name as printed in Table 2.
    pub name: &'static str,
    /// Section 6 taxonomy bucket.
    pub category: Category,
    /// Canonical-encoding discriminant. Tags are append-only and never
    /// reused: they feed [`crate::CanonicalProblem`] digests that appear
    /// in wire replies, so reassigning one would silently invalidate
    /// memoized solves and recorded digests.
    pub tag: u64,
    /// `true` for the nine rows of the paper's Table 2; `false` for
    /// post-2009 extensions. [`crate::catalog::catalog`] filters on this
    /// so the paper-reproduction experiments keep their exact row sets.
    pub paper: bool,
    /// Parameter schema, in constructor/validation order.
    pub params: &'static [ParamSpec],
    /// Wire shapes, most specific default-matching shape first (the
    /// renderer picks the first shape whose omitted parameters all equal
    /// their defaults).
    pub wire: &'static [WireKind],
    /// Table 2: expected benefit to CMP core scaling.
    pub effectiveness: Rating,
    /// Table 2: variability of the benefit across workloads.
    pub range: Rating,
    /// Table 2: implementation cost/feasibility.
    pub complexity: Rating,
    /// Lower end of the literature range.
    pub pessimistic: AssumptionBand,
    /// The main-line assumption.
    pub realistic: AssumptionBand,
    /// Upper end of the literature range.
    pub optimistic: AssumptionBand,
    /// Accumulates the technique's contribution into an [`Effects`]
    /// record. Parameters arrive validated.
    pub apply: fn(&[f64], &mut Effects),
    /// Renders the technique's human-readable description (the
    /// `Display` impl of [`Technique`] delegates here).
    pub describe: fn(&[f64], &mut fmt::Formatter<'_>) -> fmt::Result,
}

impl TechniqueDescriptor {
    /// Validates `params` against the schema and builds the technique.
    /// Parameters are validated in schema order, so the first
    /// out-of-domain value is the one reported.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParameter`] for a wrong parameter count or
    /// the first parameter outside its domain.
    pub fn instantiate(&'static self, params: &[f64]) -> Result<Technique, ModelError> {
        if params.len() != self.params.len() {
            return Err(ModelError::InvalidParameter {
                name: "params",
                value: params.len() as f64,
                constraint: "wrong parameter count for technique",
            });
        }
        let mut stored = [0.0_f64; MAX_PARAMS];
        for (slot, (spec, &value)) in stored.iter_mut().zip(self.params.iter().zip(params)) {
            *slot = spec.domain.validate(spec.error_name, value)?;
        }
        Ok(Technique::from_parts(self, stored))
    }

    /// The assumption band at `level`.
    pub fn band(&self, level: AssumptionLevel) -> &AssumptionBand {
        match level {
            AssumptionLevel::Pessimistic => &self.pessimistic,
            AssumptionLevel::Realistic => &self.realistic,
            AssumptionLevel::Optimistic => &self.optimistic,
        }
    }

    /// Instantiates the technique at an assumption level.
    ///
    /// # Errors
    ///
    /// Never fails for registered descriptors (their bands are
    /// registry-tested); the `Result` mirrors [`Self::instantiate`].
    pub fn at(&'static self, level: AssumptionLevel) -> Result<Technique, ModelError> {
        self.instantiate(self.band(level).params)
    }
}

// ---------------------------------------------------------------------
// Effect application — each technique's contribution to the multiplicative
// algebra, as a named function so the registry stays a const table.
// ---------------------------------------------------------------------

fn apply_cache_compression(p: &[f64], e: &mut Effects) {
    e.scale_capacity(p[0]);
}

fn apply_dram_cache(p: &[f64], e: &mut Effects) {
    e.scale_cache_density(p[0]);
}

fn apply_stacked_cache(p: &[f64], e: &mut Effects) {
    let layer = StackedLayer::new(p[1]).expect("validated at technique construction");
    for _ in 0..(p[0] as u64) {
        e.add_stacked_layer(layer);
    }
}

fn apply_unused_data_filter(p: &[f64], e: &mut Effects) {
    e.scale_capacity(1.0 / (1.0 - p[0]));
}

fn apply_smaller_cores(p: &[f64], e: &mut Effects) {
    e.scale_core_size(p[0]);
}

fn apply_link_compression(p: &[f64], e: &mut Effects) {
    e.scale_traffic_divisor(p[0]);
}

fn apply_sectored_cache(p: &[f64], e: &mut Effects) {
    e.scale_traffic_divisor(1.0 / (1.0 - p[0]));
}

fn apply_small_cache_lines(p: &[f64], e: &mut Effects) {
    let factor = 1.0 / (1.0 - p[0]);
    e.scale_capacity(factor);
    e.scale_traffic_divisor(factor);
}

fn apply_cache_link_compression(p: &[f64], e: &mut Effects) {
    e.scale_capacity(p[0]);
    e.scale_traffic_divisor(p[0]);
}

/// Thermal ceiling on 3D stacking: each successive layer sits further
/// from the heat sink and must derate (slower refresh, lower clock,
/// guard-banded capacity), so layer `k` contributes
/// `density × derate^k`. The total stacked benefit is geometrically
/// bounded by `density / (1 - derate)` layers-worth of cache — the
/// thermal ceiling — instead of growing linearly with the stack. A
/// small enough derate underflows the density to zero; the stack ends
/// there, since a zero-density layer adds nothing.
fn apply_thermal_capped_3d(p: &[f64], e: &mut Effects) {
    let derate = p[2];
    let mut density = p[1];
    for _ in 0..p[0] as u64 {
        let Ok(layer) = StackedLayer::new(density) else {
            break;
        };
        e.add_stacked_layer(layer);
        density *= derate;
    }
}

/// CXL idle-I/O bandwidth harvesting: memory traffic borrows the I/O
/// links' idle cycles, growing the effective off-chip envelope by
/// `io_bandwidth_ratio × idle_fraction` — a direct divisor on relative
/// traffic, exactly like provisioning that much extra bandwidth.
fn apply_cxl_harvesting(p: &[f64], e: &mut Effects) {
    e.scale_traffic_divisor(1.0 + p[0] * p[1]);
}

// ---------------------------------------------------------------------
// Descriptions — byte-compatible with the historical Display strings.
// ---------------------------------------------------------------------

fn fmt_cache_compression(p: &[f64], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "cache compression ({}x)", p[0])
}

fn fmt_dram_cache(p: &[f64], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "DRAM cache ({}x density)", p[0])
}

fn fmt_stacked_cache(p: &[f64], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let layers = p[0] as u64;
    if p[1] == 1.0 {
        write!(f, "3D-stacked SRAM cache ({layers} layer(s))")
    } else {
        write!(f, "3D-stacked DRAM cache ({layers} layer(s), {}x)", p[1])
    }
}

fn fmt_unused_data_filter(p: &[f64], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "unused-data filtering ({:.0}%)", p[0] * 100.0)
}

fn fmt_smaller_cores(p: &[f64], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "smaller cores ({:.0}x smaller)", 1.0 / p[0])
}

fn fmt_link_compression(p: &[f64], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "link compression ({}x)", p[0])
}

fn fmt_sectored_cache(p: &[f64], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "sectored cache ({:.0}% unused)", p[0] * 100.0)
}

fn fmt_small_cache_lines(p: &[f64], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "small cache lines ({:.0}% unused)", p[0] * 100.0)
}

fn fmt_cache_link_compression(p: &[f64], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "cache+link compression ({}x)", p[0])
}

fn fmt_thermal_capped_3d(p: &[f64], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(
        f,
        "thermal-capped 3D cache ({} layer(s), {}x, derate {})",
        p[0] as u64, p[1], p[2]
    )
}

fn fmt_cxl_harvesting(p: &[f64], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(
        f,
        "CXL bandwidth harvesting ({}x I/O, {:.0}% idle)",
        p[0],
        p[1] * 100.0
    )
}

// ---------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------

/// Shorthand for a single-parameter `ratio` technique's wire shape.
const RATIO_WIRE: &[usize] = &[0];

static REGISTRY: [TechniqueDescriptor; 11] = [
    TechniqueDescriptor {
        id: "cache_compression",
        label: "CC",
        name: "Cache Compress",
        category: Category::Indirect,
        tag: 1,
        paper: true,
        params: &[ParamSpec {
            field: "ratio",
            error_name: "compression_ratio",
            domain: ParamDomain::Ratio,
            default: None,
        }],
        wire: &[WireKind {
            kind: "cache_compression",
            fields: RATIO_WIRE,
        }],
        effectiveness: Rating::Medium,
        range: Rating::Low,
        complexity: Rating::Medium,
        pessimistic: AssumptionBand {
            text: "1.25x compr.",
            params: &[1.25],
        },
        realistic: AssumptionBand {
            text: "2x compr.",
            params: &[2.0],
        },
        optimistic: AssumptionBand {
            text: "3.5x compr.",
            params: &[3.5],
        },
        apply: apply_cache_compression,
        describe: fmt_cache_compression,
    },
    TechniqueDescriptor {
        id: "dram_cache",
        label: "DRAM",
        name: "DRAM Cache",
        category: Category::Indirect,
        tag: 2,
        paper: true,
        params: &[ParamSpec {
            field: "density",
            error_name: "dram_density",
            domain: ParamDomain::Ratio,
            default: None,
        }],
        wire: &[WireKind {
            kind: "dram_cache",
            fields: RATIO_WIRE,
        }],
        effectiveness: Rating::High,
        range: Rating::Medium,
        complexity: Rating::Low,
        pessimistic: AssumptionBand {
            text: "4x density",
            params: &[4.0],
        },
        realistic: AssumptionBand {
            text: "8x density",
            params: &[8.0],
        },
        optimistic: AssumptionBand {
            text: "16x density",
            params: &[16.0],
        },
        apply: apply_dram_cache,
        describe: fmt_dram_cache,
    },
    TechniqueDescriptor {
        id: "stacked_cache",
        label: "3D",
        name: "3D-stacked Cache",
        category: Category::Indirect,
        tag: 3,
        paper: true,
        params: &[
            ParamSpec {
                field: "layers",
                error_name: "layers",
                domain: ParamDomain::Layers,
                default: None,
            },
            ParamSpec {
                field: "layer_density",
                error_name: "layer_density",
                domain: ParamDomain::Ratio,
                default: Some(1.0),
            },
        ],
        wire: &[
            WireKind {
                kind: "stacked_cache",
                fields: &[0],
            },
            WireKind {
                kind: "stacked_dram_cache",
                fields: &[0, 1],
            },
        ],
        effectiveness: Rating::Medium,
        range: Rating::Low,
        complexity: Rating::High,
        // Table 2 considers only the SRAM-layer variant for 3D.
        pessimistic: AssumptionBand {
            text: "3D SRAM layer",
            params: &[1.0, 1.0],
        },
        realistic: AssumptionBand {
            text: "3D SRAM layer",
            params: &[1.0, 1.0],
        },
        optimistic: AssumptionBand {
            text: "3D SRAM layer",
            params: &[1.0, 1.0],
        },
        apply: apply_stacked_cache,
        describe: fmt_stacked_cache,
    },
    TechniqueDescriptor {
        id: "unused_data_filter",
        label: "Fltr",
        name: "Unused Data Filter",
        category: Category::Indirect,
        tag: 4,
        paper: true,
        params: &[ParamSpec {
            field: "unused_fraction",
            error_name: "unused_fraction",
            domain: ParamDomain::Fraction,
            default: None,
        }],
        wire: &[WireKind {
            kind: "unused_data_filter",
            fields: RATIO_WIRE,
        }],
        effectiveness: Rating::Medium,
        range: Rating::Medium,
        complexity: Rating::Medium,
        pessimistic: AssumptionBand {
            text: "10% unused data",
            params: &[0.1],
        },
        realistic: AssumptionBand {
            text: "40% unused data",
            params: &[0.4],
        },
        optimistic: AssumptionBand {
            text: "80% unused data",
            params: &[0.8],
        },
        apply: apply_unused_data_filter,
        describe: fmt_unused_data_filter,
    },
    TechniqueDescriptor {
        id: "smaller_cores",
        label: "SmCo",
        name: "Smaller Cores",
        category: Category::Indirect,
        tag: 5,
        paper: true,
        params: &[ParamSpec {
            field: "area_fraction",
            error_name: "area_fraction",
            domain: ParamDomain::UnitInterval,
            default: None,
        }],
        wire: &[WireKind {
            kind: "smaller_cores",
            fields: RATIO_WIRE,
        }],
        effectiveness: Rating::Low,
        range: Rating::Low,
        complexity: Rating::Low,
        pessimistic: AssumptionBand {
            text: "9x less area",
            params: &[1.0 / 9.0],
        },
        realistic: AssumptionBand {
            text: "40x less area",
            params: &[1.0 / 40.0],
        },
        optimistic: AssumptionBand {
            text: "80x less area",
            params: &[1.0 / 80.0],
        },
        apply: apply_smaller_cores,
        describe: fmt_smaller_cores,
    },
    TechniqueDescriptor {
        id: "link_compression",
        label: "LC",
        name: "Link Compress",
        category: Category::Direct,
        tag: 6,
        paper: true,
        params: &[ParamSpec {
            field: "ratio",
            error_name: "compression_ratio",
            domain: ParamDomain::Ratio,
            default: None,
        }],
        wire: &[WireKind {
            kind: "link_compression",
            fields: RATIO_WIRE,
        }],
        effectiveness: Rating::High,
        range: Rating::Medium,
        complexity: Rating::Low,
        pessimistic: AssumptionBand {
            text: "1.25x compr.",
            params: &[1.25],
        },
        realistic: AssumptionBand {
            text: "2x compr.",
            params: &[2.0],
        },
        optimistic: AssumptionBand {
            text: "3.5x compr.",
            params: &[3.5],
        },
        apply: apply_link_compression,
        describe: fmt_link_compression,
    },
    TechniqueDescriptor {
        id: "sectored_cache",
        label: "Sect",
        name: "Sectored Caches",
        category: Category::Direct,
        tag: 7,
        paper: true,
        params: &[ParamSpec {
            field: "unused_fraction",
            error_name: "unused_fraction",
            domain: ParamDomain::Fraction,
            default: None,
        }],
        wire: &[WireKind {
            kind: "sectored_cache",
            fields: RATIO_WIRE,
        }],
        effectiveness: Rating::Medium,
        range: Rating::High,
        complexity: Rating::Medium,
        pessimistic: AssumptionBand {
            text: "10% unused data",
            params: &[0.1],
        },
        realistic: AssumptionBand {
            text: "40% unused data",
            params: &[0.4],
        },
        optimistic: AssumptionBand {
            text: "80% unused data",
            params: &[0.8],
        },
        apply: apply_sectored_cache,
        describe: fmt_sectored_cache,
    },
    TechniqueDescriptor {
        id: "small_cache_lines",
        label: "SmCl",
        name: "Smaller Cache Lines",
        category: Category::Dual,
        tag: 8,
        paper: true,
        params: &[ParamSpec {
            field: "unused_fraction",
            error_name: "unused_fraction",
            domain: ParamDomain::Fraction,
            default: None,
        }],
        wire: &[WireKind {
            kind: "small_cache_lines",
            fields: RATIO_WIRE,
        }],
        effectiveness: Rating::High,
        range: Rating::High,
        complexity: Rating::Medium,
        pessimistic: AssumptionBand {
            text: "10% unused data",
            params: &[0.1],
        },
        realistic: AssumptionBand {
            text: "40% unused data",
            params: &[0.4],
        },
        optimistic: AssumptionBand {
            text: "80% unused data",
            params: &[0.8],
        },
        apply: apply_small_cache_lines,
        describe: fmt_small_cache_lines,
    },
    TechniqueDescriptor {
        id: "cache_link_compression",
        label: "CC/LC",
        name: "Cache+Link Compress",
        category: Category::Dual,
        tag: 9,
        paper: true,
        params: &[ParamSpec {
            field: "ratio",
            error_name: "compression_ratio",
            domain: ParamDomain::Ratio,
            default: None,
        }],
        wire: &[WireKind {
            kind: "cache_link_compression",
            fields: RATIO_WIRE,
        }],
        effectiveness: Rating::High,
        range: Rating::High,
        complexity: Rating::Low,
        pessimistic: AssumptionBand {
            text: "1.25x compr.",
            params: &[1.25],
        },
        realistic: AssumptionBand {
            text: "2x compr.",
            params: &[2.0],
        },
        optimistic: AssumptionBand {
            text: "3.5x compr.",
            params: &[3.5],
        },
        apply: apply_cache_link_compression,
        describe: fmt_cache_link_compression,
    },
    // -- Post-2009 extensions (registered as data; nothing below the
    //    registry knows them by name) ---------------------------------
    TechniqueDescriptor {
        id: "thermal_capped_3d",
        label: "3D/T",
        name: "Thermal-capped 3D Cache",
        category: Category::Indirect,
        tag: 10,
        paper: false,
        params: &[
            ParamSpec {
                field: "layers",
                error_name: "layers",
                domain: ParamDomain::Layers,
                default: None,
            },
            ParamSpec {
                field: "layer_density",
                error_name: "layer_density",
                domain: ParamDomain::Ratio,
                default: Some(1.0),
            },
            ParamSpec {
                field: "thermal_derate",
                error_name: "thermal_derate",
                domain: ParamDomain::UnitInterval,
                default: Some(1.0),
            },
        ],
        wire: &[WireKind {
            kind: "thermal_capped_3d",
            fields: &[0, 1, 2],
        }],
        effectiveness: Rating::High,
        range: Rating::Medium,
        complexity: Rating::High,
        pessimistic: AssumptionBand {
            text: "2 DRAM layers, 0.5 derate",
            params: &[2.0, 8.0, 0.5],
        },
        realistic: AssumptionBand {
            text: "4 DRAM layers, 0.7 derate",
            params: &[4.0, 8.0, 0.7],
        },
        optimistic: AssumptionBand {
            text: "8 DRAM layers, 0.85 derate",
            params: &[8.0, 16.0, 0.85],
        },
        apply: apply_thermal_capped_3d,
        describe: fmt_thermal_capped_3d,
    },
    TechniqueDescriptor {
        id: "cxl_harvesting",
        label: "CXL",
        name: "CXL Bandwidth Harvest",
        category: Category::Direct,
        tag: 11,
        paper: false,
        params: &[
            ParamSpec {
                field: "io_bandwidth_ratio",
                error_name: "io_bandwidth_ratio",
                domain: ParamDomain::NonNegative,
                default: None,
            },
            ParamSpec {
                field: "idle_fraction",
                error_name: "idle_fraction",
                domain: ParamDomain::ClosedFraction,
                default: None,
            },
        ],
        wire: &[WireKind {
            kind: "cxl_harvesting",
            fields: &[0, 1],
        }],
        effectiveness: Rating::Medium,
        range: Rating::High,
        complexity: Rating::Medium,
        pessimistic: AssumptionBand {
            text: "0.25x I/O, 25% idle",
            params: &[0.25, 0.25],
        },
        realistic: AssumptionBand {
            text: "0.5x I/O, 50% idle",
            params: &[0.5, 0.5],
        },
        optimistic: AssumptionBand {
            text: "1x I/O, 80% idle",
            params: &[1.0, 0.8],
        },
        apply: apply_cxl_harvesting,
        describe: fmt_cxl_harvesting,
    },
];

/// The full technique registry: the paper's nine Table 2 rows followed
/// by the post-2009 extensions, in figure/registration order.
pub fn registry() -> &'static [TechniqueDescriptor] {
    &REGISTRY
}

/// Looks up a descriptor by registry id.
///
/// # Examples
///
/// ```
/// use bandwall_model::descriptor::descriptor;
/// assert!(descriptor("dram_cache").is_some());
/// assert!(descriptor("warp_drive").is_none());
/// ```
pub fn descriptor(id: &str) -> Option<&'static TechniqueDescriptor> {
    REGISTRY.iter().find(|d| d.id == id)
}

/// Resolves a wire `kind` string to its descriptor and the wire shape it
/// names (a descriptor may expose several shapes).
pub fn wire_kind(kind: &str) -> Option<(&'static TechniqueDescriptor, &'static WireKind)> {
    REGISTRY
        .iter()
        .find_map(|d| d.wire.iter().find(|w| w.kind == kind).map(|w| (d, w)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_identity_is_consistent() {
        let ids: BTreeSet<&str> = REGISTRY.iter().map(|d| d.id).collect();
        let tags: BTreeSet<u64> = REGISTRY.iter().map(|d| d.tag).collect();
        let labels: BTreeSet<&str> = REGISTRY.iter().map(|d| d.label).collect();
        assert_eq!(ids.len(), REGISTRY.len(), "ids must be unique");
        assert_eq!(tags.len(), REGISTRY.len(), "tags must be unique");
        assert_eq!(labels.len(), REGISTRY.len(), "labels must be unique");
        let kinds: Vec<&str> = REGISTRY
            .iter()
            .flat_map(|d| d.wire.iter().map(|w| w.kind))
            .collect();
        let unique: BTreeSet<&&str> = kinds.iter().collect();
        assert_eq!(unique.len(), kinds.len(), "wire kinds must be unique");
        assert_eq!(REGISTRY.iter().filter(|d| d.paper).count(), 9);
    }

    #[test]
    fn schemas_are_well_formed() {
        for d in registry() {
            assert!(d.params.len() <= MAX_PARAMS, "{}", d.id);
            assert_eq!(
                d.wire.first().map(|w| w.kind),
                Some(d.id),
                "{}: primary wire kind must be the id",
                d.id
            );
            for w in d.wire {
                for &i in w.fields {
                    assert!(i < d.params.len(), "{}: field index {i}", d.id);
                }
                // Omitted fields must have defaults, or the shape could
                // never be parsed.
                for (i, spec) in d.params.iter().enumerate() {
                    assert!(
                        w.fields.contains(&i) || spec.default.is_some(),
                        "{}: shape {} omits defaultless param {}",
                        d.id,
                        w.kind,
                        spec.field
                    );
                }
            }
        }
    }

    #[test]
    fn every_band_instantiates_and_describes() {
        for d in registry() {
            for level in AssumptionLevel::ALL {
                let t = d
                    .at(level)
                    .unwrap_or_else(|e| panic!("{} {level}: {e}", d.id));
                assert_eq!(t.label(), d.label);
                assert!(!t.to_string().is_empty());
            }
        }
    }

    #[test]
    fn domains_validate_and_report_constraints() {
        assert!(ParamDomain::Ratio.validate("r", 1.0).is_ok());
        assert!(ParamDomain::Ratio.validate("r", 0.9).is_err());
        assert!(ParamDomain::Fraction.validate("f", 0.0).is_ok());
        assert!(ParamDomain::Fraction.validate("f", 1.0).is_err());
        assert!(ParamDomain::ClosedFraction.validate("f", 1.0).is_ok());
        assert!(ParamDomain::ClosedFraction.validate("f", 1.1).is_err());
        assert!(ParamDomain::UnitInterval.validate("u", 0.0).is_err());
        assert!(ParamDomain::UnitInterval.validate("u", 1.0).is_ok());
        assert!(ParamDomain::NonNegative.validate("n", 0.0).is_ok());
        assert!(ParamDomain::NonNegative.validate("n", -0.1).is_err());
        assert!(ParamDomain::Layers.validate("l", 2.0).is_ok());
        assert!(ParamDomain::Layers.validate("l", 64.0).is_ok());
        assert!(ParamDomain::Layers.validate("l", 65.0).is_err());
        assert!(ParamDomain::Layers.validate("l", 1.5).is_err());
        assert!(ParamDomain::Layers.validate("l", 0.0).is_err());
        let err = ParamDomain::Layers.validate("layers", 0.0).unwrap_err();
        assert!(
            err.to_string()
                .contains("must be at least 1 and at most 64"),
            "{err}"
        );
    }

    #[test]
    fn wire_kind_resolves_aliases() {
        let (d, w) = wire_kind("stacked_dram_cache").unwrap();
        assert_eq!(d.id, "stacked_cache");
        assert_eq!(w.fields, &[0, 1]);
        assert!(wire_kind("nope").is_none());
    }

    #[test]
    fn instantiate_validates_in_schema_order() {
        let d = descriptor("stacked_cache").unwrap();
        // Both parameters invalid: the first (layers) is reported.
        let err = d.instantiate(&[0.0, 0.5]).unwrap_err();
        assert!(err.to_string().contains("layers"), "{err}");
        assert!(d.instantiate(&[1.0]).is_err(), "wrong arity");
    }

    #[test]
    fn thermal_cap_is_geometric() {
        let d = descriptor("thermal_capped_3d").unwrap();
        let t = d.instantiate(&[3.0, 8.0, 0.5]).unwrap();
        let mut e = Effects::none();
        t.apply_to(&mut e);
        let total: f64 = e.stacked_layers().iter().map(|l| l.density()).sum();
        assert!((total - (8.0 + 4.0 + 2.0)).abs() < 1e-12, "{total}");
        // Ceiling: no matter how many layers, the total effective density
        // never exceeds density / (1 - derate) — the fp sum saturates there.
        let many = d.instantiate(&[64.0, 8.0, 0.5]).unwrap();
        let mut e = Effects::none();
        many.apply_to(&mut e);
        let total: f64 = e.stacked_layers().iter().map(|l| l.density()).sum();
        assert!(total <= 16.0, "{total}");
        assert!(total > 15.9, "{total}");
        // A derate that underflows the density to zero ends the stack
        // at the last layer with any density left, instead of panicking.
        let underflow = d.instantiate(&[3.0, 8.0, 1e-300]).unwrap();
        let mut e = Effects::none();
        underflow.apply_to(&mut e);
        assert_eq!(e.stacked_layers().len(), 2);
    }

    #[test]
    fn cxl_harvesting_is_a_pure_traffic_divisor() {
        let d = descriptor("cxl_harvesting").unwrap();
        let t = d.instantiate(&[1.0, 0.5]).unwrap();
        let mut e = Effects::none();
        t.apply_to(&mut e);
        assert_eq!(e.traffic_divisor(), 1.5);
        assert_eq!(e.capacity_factor(), 1.0);
        assert!(e.stacked_layers().is_empty());
    }
}
