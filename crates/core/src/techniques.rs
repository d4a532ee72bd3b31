//! The bandwidth-conservation techniques of Section 6.
//!
//! Each [`Technique`] is a validated, immutable instantiation of one
//! [`crate::descriptor::TechniqueDescriptor`] from the open registry,
//! together with the way it perturbs the traffic model (its [`Effects`]
//! contribution). Techniques compose freely — apply any subset to a
//! [`crate::ScalingProblem`] — and composition is commutative because
//! every contribution is multiplicative.
//!
//! The named constructors below cover the paper's Table 2; techniques
//! registered later (e.g. `thermal_capped_3d`, `cxl_harvesting`) are
//! built through [`Technique::from_registry`], which is also how the
//! wire layer instantiates every technique from its id.
//!
//! | Paper label | Constructor | Category |
//! |-------------|-------------|----------|
//! | CC — cache compression | [`Technique::cache_compression`] | indirect |
//! | DRAM — DRAM cache | [`Technique::dram_cache`] | indirect |
//! | 3D — stacked cache | [`Technique::stacked_cache`] / [`Technique::stacked_dram_cache`] | indirect |
//! | Fltr — unused-data filtering | [`Technique::unused_data_filter`] | indirect |
//! | SmCo — smaller cores | [`Technique::smaller_cores`] | indirect |
//! | LC — link compression | [`Technique::link_compression`] | direct |
//! | Sect — sectored caches | [`Technique::sectored_cache`] | direct |
//! | SmCl — small cache lines | [`Technique::small_cache_lines`] | dual |
//! | CC/LC — cache+link compression | [`Technique::cache_link_compression`] | dual |

use crate::descriptor::{self, TechniqueDescriptor, MAX_PARAMS};
use crate::effects::Effects;
use crate::error::ModelError;
use std::fmt;

/// How a technique attacks the bandwidth wall (Section 6 taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Reduces traffic indirectly by increasing effective cache capacity;
    /// dampened by the `-α` exponent.
    Indirect,
    /// Reduces the memory traffic itself (or grows effective bandwidth).
    Direct,
    /// Both at once.
    Dual,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Category::Indirect => "indirect",
            Category::Direct => "direct",
            Category::Dual => "dual",
        })
    }
}

/// One bandwidth-conservation technique with validated parameters.
///
/// # Examples
///
/// ```
/// use bandwall_model::{Baseline, ScalingProblem, Technique};
///
/// // DRAM caches at 8× density lift the next generation from 11 to 18 cores.
/// let problem = ScalingProblem::new(Baseline::niagara2_like(), 32.0)
///     .with_technique(Technique::dram_cache(8.0)?);
/// assert_eq!(problem.max_supportable_cores()?, 18);
/// # Ok::<(), bandwall_model::ModelError>(())
/// ```
#[derive(Clone, Copy)]
pub struct Technique {
    descriptor: &'static TechniqueDescriptor,
    params: [f64; MAX_PARAMS],
}

impl Technique {
    /// Builds a technique from already-validated parts — only
    /// [`TechniqueDescriptor::instantiate`] calls this.
    pub(crate) fn from_parts(
        descriptor: &'static TechniqueDescriptor,
        params: [f64; MAX_PARAMS],
    ) -> Self {
        Technique { descriptor, params }
    }

    /// Instantiates any registered technique by registry id, validating
    /// `params` against its schema (one value per schema entry, in
    /// order). This is the open-ended constructor the named ones below
    /// are shorthands for.
    ///
    /// # Examples
    ///
    /// ```
    /// use bandwall_model::Technique;
    ///
    /// let a = Technique::from_registry("dram_cache", &[8.0])?;
    /// assert_eq!(a, Technique::dram_cache(8.0)?);
    /// # Ok::<(), bandwall_model::ModelError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Rejects unknown ids, wrong parameter counts, and out-of-domain
    /// parameters.
    pub fn from_registry(id: &str, params: &[f64]) -> Result<Self, ModelError> {
        let descriptor = descriptor::descriptor(id).ok_or(ModelError::InvalidParameter {
            name: "technique_id",
            value: f64::NAN,
            constraint: "must name a registered technique",
        })?;
        descriptor.instantiate(params)
    }

    /// Cache compression with the given ratio (Section 6.1). Realistic
    /// ratios are 1.4–2.1× for commercial workloads.
    ///
    /// # Errors
    ///
    /// Rejects ratios below 1 or non-finite.
    pub fn cache_compression(ratio: f64) -> Result<Self, ModelError> {
        Self::from_registry("cache_compression", &[ratio])
    }

    /// DRAM L2 cache, `density`× denser than SRAM (Section 6.1 cites
    /// 8×–16× density improvements).
    ///
    /// # Errors
    ///
    /// Rejects densities below 1 or non-finite.
    pub fn dram_cache(density: f64) -> Result<Self, ModelError> {
        Self::from_registry("dram_cache", &[density])
    }

    /// 3D-stacked SRAM cache layers (Section 6.1). The paper analyses
    /// `layers = 1`.
    ///
    /// # Errors
    ///
    /// Rejects `layers` outside `1..=64`.
    pub fn stacked_cache(layers: u32) -> Result<Self, ModelError> {
        Self::stacked_dram_cache(layers, 1.0)
    }

    /// 3D-stacked cache layers implemented in DRAM `layer_density`× denser
    /// than SRAM (the "3D DRAM (8x/16x)" bars of Figure 6). The cache
    /// sharing the core die stays SRAM unless a separate
    /// [`Technique::dram_cache`] is also applied.
    ///
    /// # Errors
    ///
    /// Rejects `layers` outside `1..=64` and densities below 1.
    pub fn stacked_dram_cache(layers: u32, layer_density: f64) -> Result<Self, ModelError> {
        Self::from_registry("stacked_cache", &[f64::from(layers), layer_density])
    }

    /// Unused-data filtering keeping only useful words cached
    /// (Section 6.1); `unused_fraction` of cached data goes unused
    /// (realistically ~40%).
    ///
    /// # Errors
    ///
    /// Rejects fractions outside `[0, 1)`.
    pub fn unused_data_filter(unused_fraction: f64) -> Result<Self, ModelError> {
        Self::from_registry("unused_data_filter", &[unused_fraction])
    }

    /// Smaller cores occupying `area_fraction` of a baseline CEA
    /// (Section 6.1; prior work suggests up to 80× smaller).
    ///
    /// # Errors
    ///
    /// Rejects fractions outside `(0, 1]`.
    pub fn smaller_cores(area_fraction: f64) -> Result<Self, ModelError> {
        Self::from_registry("smaller_cores", &[area_fraction])
    }

    /// Link compression with the given effective-bandwidth ratio
    /// (Section 6.2; ~2× for commercial workloads).
    ///
    /// # Errors
    ///
    /// Rejects ratios below 1 or non-finite.
    pub fn link_compression(ratio: f64) -> Result<Self, ModelError> {
        Self::from_registry("link_compression", &[ratio])
    }

    /// Sectored caches fetching only predicted-referenced sectors
    /// (Section 6.2). Unfilled sectors still occupy cache space, so only
    /// traffic shrinks.
    ///
    /// # Errors
    ///
    /// Rejects fractions outside `[0, 1)`.
    pub fn sectored_cache(unused_fraction: f64) -> Result<Self, ModelError> {
        Self::from_registry("sectored_cache", &[unused_fraction])
    }

    /// Word-sized cache lines (Section 6.3, Equation 12): unused words
    /// consume neither bus bandwidth nor cache capacity.
    ///
    /// # Errors
    ///
    /// Rejects fractions outside `[0, 1)`.
    pub fn small_cache_lines(unused_fraction: f64) -> Result<Self, ModelError> {
        Self::from_registry("small_cache_lines", &[unused_fraction])
    }

    /// Cache + link compression (Section 6.3): compressed data crosses the
    /// link *and* stays compressed in the L2.
    ///
    /// # Errors
    ///
    /// Rejects ratios below 1 or non-finite.
    pub fn cache_link_compression(ratio: f64) -> Result<Self, ModelError> {
        Self::from_registry("cache_link_compression", &[ratio])
    }

    /// The registry descriptor this technique instantiates.
    pub fn descriptor(&self) -> &'static TechniqueDescriptor {
        self.descriptor
    }

    /// The validated parameter vector, one value per schema entry of
    /// [`Self::descriptor`].
    pub fn params(&self) -> &[f64] {
        &self.params[..self.descriptor.params.len()]
    }

    /// The paper's taxonomy bucket for this technique.
    pub fn category(&self) -> Category {
        self.descriptor.category
    }

    /// The short label the paper uses on figure axes (CC, DRAM, 3D, Fltr,
    /// SmCo, LC, Sect, SmCl, CC/LC — plus the registered extensions).
    pub fn label(&self) -> &'static str {
        self.descriptor.label
    }

    /// Accumulates this technique's contribution into `effects`.
    pub fn apply_to(&self, effects: &mut Effects) {
        (self.descriptor.apply)(self.params(), effects);
    }
}

impl PartialEq for Technique {
    fn eq(&self, other: &Self) -> bool {
        self.descriptor.tag == other.descriptor.tag && self.params() == other.params()
    }
}

impl fmt::Debug for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Technique")
            .field("id", &self.descriptor.id)
            .field("params", &self.params())
            .finish()
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (self.descriptor.describe)(self.params(), f)
    }
}

/// Folds a set of techniques into one [`Effects`] record.
///
/// # Examples
///
/// ```
/// use bandwall_model::techniques::{combine, Technique};
///
/// let set = [
///     Technique::cache_link_compression(2.0)?,
///     Technique::small_cache_lines(0.4)?,
/// ];
/// let e = combine(&set);
/// // Direct reduction: 2 × 1/(1-0.4) = 3.33× → 70% less traffic.
/// assert!((e.traffic_divisor() - 2.0 / 0.6).abs() < 1e-12);
/// # Ok::<(), bandwall_model::ModelError>(())
/// ```
pub fn combine(techniques: &[Technique]) -> Effects {
    let mut effects = Effects::none();
    for t in techniques {
        t.apply_to(&mut effects);
    }
    effects
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validation() {
        assert!(Technique::cache_compression(0.9).is_err());
        assert!(Technique::cache_compression(1.0).is_ok());
        assert!(Technique::dram_cache(f64::NAN).is_err());
        assert!(Technique::stacked_cache(0).is_err());
        assert!(Technique::stacked_dram_cache(1, 0.5).is_err());
        assert!(Technique::unused_data_filter(1.0).is_err());
        assert!(Technique::unused_data_filter(-0.1).is_err());
        assert!(Technique::unused_data_filter(0.0).is_ok());
        assert!(Technique::smaller_cores(0.0).is_err());
        assert!(Technique::smaller_cores(1.5).is_err());
        assert!(Technique::smaller_cores(1.0).is_ok());
        assert!(Technique::link_compression(0.5).is_err());
        assert!(Technique::sectored_cache(0.99).is_ok());
        assert!(Technique::small_cache_lines(1.0).is_err());
        assert!(Technique::cache_link_compression(2.0).is_ok());
    }

    #[test]
    fn registry_constructor_matches_named_ones() {
        assert_eq!(
            Technique::from_registry("cache_compression", &[2.0]).unwrap(),
            Technique::cache_compression(2.0).unwrap()
        );
        assert_eq!(
            Technique::from_registry("stacked_cache", &[1.0, 1.0]).unwrap(),
            Technique::stacked_cache(1).unwrap()
        );
        assert!(Technique::from_registry("warp_drive", &[1.0]).is_err());
        assert!(Technique::from_registry("dram_cache", &[]).is_err());
        assert!(Technique::from_registry("thermal_capped_3d", &[4.0, 8.0, 0.7]).is_ok());
        assert!(Technique::from_registry("cxl_harvesting", &[0.5, 0.5]).is_ok());
    }

    #[test]
    fn categories_match_paper() {
        assert_eq!(
            Technique::cache_compression(2.0).unwrap().category(),
            Category::Indirect
        );
        assert_eq!(
            Technique::dram_cache(8.0).unwrap().category(),
            Category::Indirect
        );
        assert_eq!(
            Technique::stacked_cache(1).unwrap().category(),
            Category::Indirect
        );
        assert_eq!(
            Technique::unused_data_filter(0.4).unwrap().category(),
            Category::Indirect
        );
        assert_eq!(
            Technique::smaller_cores(0.025).unwrap().category(),
            Category::Indirect
        );
        assert_eq!(
            Technique::link_compression(2.0).unwrap().category(),
            Category::Direct
        );
        assert_eq!(
            Technique::sectored_cache(0.4).unwrap().category(),
            Category::Direct
        );
        assert_eq!(
            Technique::small_cache_lines(0.4).unwrap().category(),
            Category::Dual
        );
        assert_eq!(
            Technique::cache_link_compression(2.0).unwrap().category(),
            Category::Dual
        );
    }

    #[test]
    fn labels_match_figure_axes() {
        let labels: Vec<&str> = [
            Technique::cache_compression(2.0).unwrap(),
            Technique::dram_cache(8.0).unwrap(),
            Technique::stacked_cache(1).unwrap(),
            Technique::unused_data_filter(0.4).unwrap(),
            Technique::smaller_cores(0.025).unwrap(),
            Technique::link_compression(2.0).unwrap(),
            Technique::sectored_cache(0.4).unwrap(),
            Technique::small_cache_lines(0.4).unwrap(),
            Technique::cache_link_compression(2.0).unwrap(),
        ]
        .iter()
        .map(Technique::label)
        .collect();
        assert_eq!(
            labels,
            ["CC", "DRAM", "3D", "Fltr", "SmCo", "LC", "Sect", "SmCl", "CC/LC"]
        );
    }

    #[test]
    fn indirect_effects() {
        let e = combine(&[Technique::cache_compression(2.0).unwrap()]);
        assert_eq!(e.capacity_factor(), 2.0);
        assert_eq!(e.traffic_divisor(), 1.0);

        let e = combine(&[Technique::unused_data_filter(0.4).unwrap()]);
        assert!((e.capacity_factor() - 1.0 / 0.6).abs() < 1e-12);
    }

    #[test]
    fn direct_effects() {
        let e = combine(&[Technique::link_compression(3.0).unwrap()]);
        assert_eq!(e.traffic_divisor(), 3.0);
        assert_eq!(e.capacity_factor(), 1.0);

        let e = combine(&[Technique::sectored_cache(0.8).unwrap()]);
        assert!((e.traffic_divisor() - 5.0).abs() < 1e-12);
        assert_eq!(e.capacity_factor(), 1.0);
    }

    #[test]
    fn dual_effects() {
        let e = combine(&[Technique::small_cache_lines(0.4).unwrap()]);
        assert!((e.capacity_factor() - 1.0 / 0.6).abs() < 1e-12);
        assert!((e.traffic_divisor() - 1.0 / 0.6).abs() < 1e-12);
    }

    #[test]
    fn combination_is_commutative() {
        let a = Technique::cache_link_compression(2.0).unwrap();
        let b = Technique::dram_cache(8.0).unwrap();
        let c = Technique::stacked_cache(1).unwrap();
        let d = Technique::small_cache_lines(0.4).unwrap();
        let forward = combine(&[a, b, c, d]);
        let backward = combine(&[d, c, b, a]);
        assert_eq!(forward, backward);
    }

    #[test]
    fn paper_combined_capacity_claim() {
        // "3D-stacked DRAM cache, cache compression, and small cache lines
        // can increase the effective cache capacity by 53×" — capacity per
        // CEA × die-area doubling when cache dominates.
        let e = combine(&[
            Technique::cache_compression(2.0).unwrap(),
            Technique::dram_cache(8.0).unwrap(),
            Technique::stacked_cache(1).unwrap(),
            Technique::small_cache_lines(0.4).unwrap(),
        ]);
        // Per-CEA factor: 2 × 8 × 1.667 = 26.7; the stacked layer doubles
        // the cache area when cache dominates the die, giving ≈53×.
        let per_cea = e.capacity_factor() * e.cache_density();
        assert!((per_cea - 80.0 / 3.0).abs() < 1e-9);
        let with_layer = per_cea * 2.0;
        assert!(with_layer > 50.0 && with_layer < 56.0, "{with_layer}");
        // Indirect traffic reduction at α = 0.5: 1 - 53^-0.5 ≈ 86%
        // (the paper quotes 84% for its exact area split).
        let reduction = 1.0 - with_layer.powf(-0.5);
        assert!(reduction > 0.83 && reduction < 0.88, "{reduction}");
    }

    #[test]
    fn display_mentions_parameters() {
        assert!(Technique::dram_cache(8.0)
            .unwrap()
            .to_string()
            .contains('8'));
        assert!(Technique::smaller_cores(1.0 / 80.0)
            .unwrap()
            .to_string()
            .contains("80"));
        assert!(Technique::stacked_dram_cache(1, 16.0)
            .unwrap()
            .to_string()
            .contains("16"));
        assert!(Technique::stacked_cache(1)
            .unwrap()
            .to_string()
            .contains("SRAM"));
    }

    #[test]
    fn display_is_byte_stable_for_the_catalogue() {
        // These strings feed figure labels and golden reports; the
        // registry's describe functions must keep them byte-identical.
        for (t, display) in [
            (
                Technique::cache_compression(2.0).unwrap(),
                "cache compression (2x)",
            ),
            (
                Technique::dram_cache(8.0).unwrap(),
                "DRAM cache (8x density)",
            ),
            (
                Technique::stacked_cache(1).unwrap(),
                "3D-stacked SRAM cache (1 layer(s))",
            ),
            (
                Technique::stacked_dram_cache(2, 8.0).unwrap(),
                "3D-stacked DRAM cache (2 layer(s), 8x)",
            ),
            (
                Technique::unused_data_filter(0.4).unwrap(),
                "unused-data filtering (40%)",
            ),
            (
                Technique::smaller_cores(1.0 / 80.0).unwrap(),
                "smaller cores (80x smaller)",
            ),
            (
                Technique::link_compression(2.0).unwrap(),
                "link compression (2x)",
            ),
            (
                Technique::sectored_cache(0.4).unwrap(),
                "sectored cache (40% unused)",
            ),
            (
                Technique::small_cache_lines(0.4).unwrap(),
                "small cache lines (40% unused)",
            ),
            (
                Technique::cache_link_compression(2.0).unwrap(),
                "cache+link compression (2x)",
            ),
        ] {
            assert_eq!(t.to_string(), display);
        }
    }

    #[test]
    fn category_display() {
        assert_eq!(Category::Indirect.to_string(), "indirect");
        assert_eq!(Category::Direct.to_string(), "direct");
        assert_eq!(Category::Dual.to_string(), "dual");
    }
}
