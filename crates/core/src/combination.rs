//! Named technique combinations, including the fifteen studied in
//! Figure 16.
//!
//! A [`Combination`] is simply a labelled set of catalogue techniques built
//! at a chosen [`AssumptionLevel`]. When a combination pairs DRAM caches
//! with 3D stacking, the DRAM density applies to both the core die and the
//! stacked layer (both dies use DRAM cells), which is how the paper reaches
//! 183 cores for CC/LC + DRAM + 3D + SmCl at the fourth generation.

use crate::catalog::{profile, AssumptionLevel};
use crate::error::ModelError;
use crate::techniques::Technique;
use std::fmt;

/// A named set of techniques (one x-axis group of Figure 16).
///
/// # Examples
///
/// ```
/// use bandwall_model::combination::Combination;
/// use bandwall_model::catalog::AssumptionLevel;
/// use bandwall_model::{Baseline, ScalingProblem};
///
/// let combo = Combination::from_labels(&["CC/LC", "DRAM", "3D", "SmCl"],
///                                      AssumptionLevel::Realistic)?;
/// let p = ScalingProblem::new(Baseline::niagara2_like(), 256.0)
///     .with_techniques(combo.techniques().iter().copied());
/// assert_eq!(p.max_supportable_cores()?, 183);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Combination {
    name: String,
    techniques: Vec<Technique>,
}

impl Combination {
    /// Builds a combination from catalogue labels (`"CC"`, `"DRAM"`, `"3D"`,
    /// `"Fltr"`, `"SmCo"`, `"LC"`, `"Sect"`, `"SmCl"`, `"CC/LC"`) at the
    /// given assumption level. The display name joins the labels with
    /// `" + "` as in the paper's figure.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for an unknown label.
    pub fn from_labels(labels: &[&str], level: AssumptionLevel) -> Result<Self, ModelError> {
        let mut techniques = Vec::with_capacity(labels.len());
        for &label in labels {
            let d = profile(label).ok_or(ModelError::InvalidParameter {
                name: "label",
                value: f64::NAN,
                constraint: "must be a Table 2 technique label",
            })?;
            techniques.push(d.at(level)?);
        }
        Ok(Combination {
            name: labels.join(" + "),
            techniques,
        })
    }

    /// Builds a combination from explicit techniques with a custom name.
    pub fn new<I>(name: impl Into<String>, techniques: I) -> Self
    where
        I: IntoIterator<Item = Technique>,
    {
        Combination {
            name: name.into(),
            techniques: techniques.into_iter().collect(),
        }
    }

    /// The combination's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The constituent techniques.
    pub fn techniques(&self) -> &[Technique] {
        &self.techniques
    }
}

impl fmt::Display for Combination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// The fifteen technique combinations of Figure 16, in x-axis order
/// (IDEAL and BASE excluded; they carry no techniques).
///
/// # Errors
///
/// Never fails for the built-in label sets; the `Result` mirrors
/// [`Combination::from_labels`].
///
/// # Examples
///
/// ```
/// use bandwall_model::combination::figure16_combinations;
/// use bandwall_model::catalog::AssumptionLevel;
///
/// let combos = figure16_combinations(AssumptionLevel::Realistic)?;
/// assert_eq!(combos.len(), 15);
/// assert_eq!(combos[0].name(), "CC + DRAM + 3D");
/// assert_eq!(combos.last().unwrap().name(), "CC/LC + DRAM + 3D + SmCl");
/// # Ok::<(), bandwall_model::ModelError>(())
/// ```
pub fn figure16_combinations(level: AssumptionLevel) -> Result<Vec<Combination>, ModelError> {
    const SETS: [&[&str]; 15] = [
        &["CC", "DRAM", "3D"],
        &["CC/LC", "DRAM"],
        &["CC", "3D", "Fltr"],
        &["CC/LC", "Fltr"],
        &["DRAM", "3D", "LC"],
        &["DRAM", "Fltr", "LC"],
        &["DRAM", "LC", "Sect"],
        &["3D", "Fltr", "LC"],
        &["SmCl", "LC"],
        &["CC/LC", "SmCl"],
        &["DRAM", "3D", "SmCl"],
        &["CC/LC", "DRAM", "SmCl"],
        &["CC/LC", "3D", "SmCl"],
        &["CC/LC", "DRAM", "3D"],
        &["CC/LC", "DRAM", "3D", "SmCl"],
    ];
    SETS.iter()
        .map(|labels| Combination::from_labels(labels, level))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Baseline;
    use crate::scaling::ScalingProblem;

    #[test]
    fn from_labels_builds_techniques() {
        let c = Combination::from_labels(&["CC", "LC"], AssumptionLevel::Realistic).unwrap();
        assert_eq!(c.name(), "CC + LC");
        assert_eq!(c.techniques().len(), 2);
        assert_eq!(c.to_string(), "CC + LC");
    }

    #[test]
    fn unknown_label_rejected() {
        assert!(Combination::from_labels(&["XYZ"], AssumptionLevel::Realistic).is_err());
    }

    #[test]
    fn figure16_has_15_combinations() {
        let combos = figure16_combinations(AssumptionLevel::Realistic).unwrap();
        assert_eq!(combos.len(), 15);
    }

    #[test]
    fn headline_combination_reaches_183_cores_at_16x() {
        let combos = figure16_combinations(AssumptionLevel::Realistic).unwrap();
        let full = combos.last().unwrap();
        let p = ScalingProblem::new(Baseline::niagara2_like(), 256.0)
            .with_techniques(full.techniques().iter().copied());
        assert_eq!(p.max_supportable_cores().unwrap(), 183);
    }

    #[test]
    fn direct_reduction_of_smcl_plus_lc_is_70_percent() {
        // "the combination of link compression and small cache lines alone
        // can directly reduce memory traffic by 70%"
        let c = Combination::from_labels(&["SmCl", "LC"], AssumptionLevel::Realistic).unwrap();
        let effects = crate::techniques::combine(c.techniques());
        let reduction = 1.0 - 1.0 / effects.traffic_divisor();
        assert!((reduction - 0.70).abs() < 0.01, "reduction = {reduction}");
    }

    #[test]
    fn combinations_dominate_their_parts() {
        // Each combination should support at least as many cores as any of
        // its constituent techniques alone.
        let base = Baseline::niagara2_like();
        for combo in figure16_combinations(AssumptionLevel::Realistic).unwrap() {
            let combined = ScalingProblem::new(base, 64.0)
                .with_techniques(combo.techniques().iter().copied())
                .max_supportable_cores()
                .unwrap();
            for &t in combo.techniques() {
                let single = ScalingProblem::new(base, 64.0)
                    .with_technique(t)
                    .max_supportable_cores()
                    .unwrap();
                assert!(
                    combined >= single,
                    "{}: combined {combined} < single {single} ({t})",
                    combo.name()
                );
            }
        }
    }

    #[test]
    fn custom_combination() {
        let c = Combination::new("custom", [Technique::link_compression(2.0).unwrap()]);
        assert_eq!(c.name(), "custom");
        assert_eq!(c.techniques().len(), 1);
    }
}
