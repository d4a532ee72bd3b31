//! The technique catalogue of Table 2, read straight from the
//! [`crate::descriptor`] registry: each mechanism with its realistic /
//! pessimistic / optimistic parameter assumptions and the paper's
//! qualitative assessment (effectiveness, variability, complexity).
//!
//! [`catalog`] yields exactly the paper's nine rows (the figure-15 and
//! Table 2 reproductions iterate it); [`extended_catalog`] additionally
//! includes every post-2009 technique registered since.

use crate::descriptor::{registry, TechniqueDescriptor};
use std::fmt;

/// Which end of a technique's assumption band to instantiate (the candle
/// bars of Figure 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AssumptionLevel {
    /// Lower end of the literature range.
    Pessimistic,
    /// The paper's main-line assumption.
    #[default]
    Realistic,
    /// Upper end of the literature range.
    Optimistic,
}

impl AssumptionLevel {
    /// All three levels, pessimistic first.
    pub const ALL: [AssumptionLevel; 3] = [
        AssumptionLevel::Pessimistic,
        AssumptionLevel::Realistic,
        AssumptionLevel::Optimistic,
    ];
}

impl fmt::Display for AssumptionLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AssumptionLevel::Pessimistic => "pessimistic",
            AssumptionLevel::Realistic => "realistic",
            AssumptionLevel::Optimistic => "optimistic",
        })
    }
}

/// Qualitative three-point rating used in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rating {
    /// Low.
    Low,
    /// Medium.
    Medium,
    /// High.
    High,
}

impl fmt::Display for Rating {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rating::Low => "Low",
            Rating::Medium => "Med.",
            Rating::High => "High",
        })
    }
}

/// The paper's Table 2 catalogue — exactly nine rows, in Figure 15
/// order. Registered post-2009 techniques are deliberately excluded so
/// the paper-reproduction experiments keep their exact row sets; see
/// [`extended_catalog`] for everything.
///
/// # Examples
///
/// ```
/// use bandwall_model::catalog::{catalog, AssumptionLevel};
///
/// let table = catalog();
/// assert_eq!(table.len(), 9);
/// assert_eq!(table[0].label, "CC");
/// let dram = table.iter().find(|d| d.label == "DRAM").unwrap();
/// assert_eq!(dram.band(AssumptionLevel::Realistic).text, "8x density");
/// ```
pub fn catalog() -> Vec<&'static TechniqueDescriptor> {
    registry().iter().filter(|d| d.paper).collect()
}

/// Every registered technique — the Table 2 rows followed by the
/// post-2009 extensions, in registry order.
///
/// # Examples
///
/// ```
/// use bandwall_model::catalog::{catalog, extended_catalog};
///
/// assert!(extended_catalog().len() > catalog().len());
/// assert!(extended_catalog().iter().any(|d| d.id == "cxl_harvesting"));
/// ```
pub fn extended_catalog() -> &'static [TechniqueDescriptor] {
    registry()
}

/// Looks up a catalogue entry (including extensions) by its figure
/// label.
///
/// # Examples
///
/// ```
/// use bandwall_model::catalog::profile;
/// assert!(profile("DRAM").is_some());
/// assert!(profile("nope").is_none());
/// ```
pub fn profile(label: &str) -> Option<&'static TechniqueDescriptor> {
    registry().iter().find(|d| d.label == label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_nine_rows_in_figure_order() {
        let labels: Vec<&str> = catalog().iter().map(|d| d.label).collect();
        assert_eq!(
            labels,
            ["CC", "DRAM", "3D", "Fltr", "SmCo", "LC", "Sect", "SmCl", "CC/LC"]
        );
    }

    #[test]
    fn extended_catalogue_appends_registered_techniques() {
        let ids: Vec<&str> = extended_catalog().iter().map(|d| d.id).collect();
        assert!(ids.len() >= 11, "{ids:?}");
        assert_eq!(&ids[..2], &["cache_compression", "dram_cache"]);
        assert!(ids.contains(&"thermal_capped_3d"));
        assert!(ids.contains(&"cxl_harvesting"));
    }

    #[test]
    fn every_profile_instantiates_at_every_level() {
        for d in extended_catalog() {
            for level in AssumptionLevel::ALL {
                let t = d.at(level).unwrap();
                assert_eq!(t.label(), d.label, "{}", d.name);
            }
        }
    }

    #[test]
    fn table2_qualitative_ratings() {
        let dram = profile("DRAM").unwrap();
        assert_eq!(dram.effectiveness, Rating::High);
        assert_eq!(dram.range, Rating::Medium);
        assert_eq!(dram.complexity, Rating::Low);
        let smco = profile("SmCo").unwrap();
        assert_eq!(smco.effectiveness, Rating::Low);
        let threed = profile("3D").unwrap();
        assert_eq!(threed.complexity, Rating::High);
    }

    #[test]
    fn assumption_texts_match_table2() {
        let cc = profile("CC").unwrap();
        assert_eq!(cc.band(AssumptionLevel::Realistic).text, "2x compr.");
        assert_eq!(cc.band(AssumptionLevel::Pessimistic).text, "1.25x compr.");
        assert_eq!(cc.band(AssumptionLevel::Optimistic).text, "3.5x compr.");
    }

    #[test]
    fn optimistic_at_least_as_good_as_pessimistic() {
        use crate::params::Baseline;
        use crate::scaling::ScalingProblem;
        for d in extended_catalog() {
            let solve = |level| {
                ScalingProblem::new(Baseline::niagara2_like(), 32.0)
                    .with_technique(d.at(level).unwrap())
                    .max_supportable_cores()
                    .unwrap()
            };
            let pess = solve(AssumptionLevel::Pessimistic);
            let real = solve(AssumptionLevel::Realistic);
            let opt = solve(AssumptionLevel::Optimistic);
            assert!(pess <= real && real <= opt, "{}", d.name);
        }
    }

    #[test]
    fn rating_display_and_order() {
        assert!(Rating::Low < Rating::Medium && Rating::Medium < Rating::High);
        assert_eq!(Rating::Medium.to_string(), "Med.");
    }

    #[test]
    fn level_display() {
        assert_eq!(AssumptionLevel::Realistic.to_string(), "realistic");
        assert_eq!(AssumptionLevel::default(), AssumptionLevel::Realistic);
    }

    #[test]
    fn categories_exposed() {
        use crate::techniques::Category;
        assert_eq!(profile("CC").unwrap().category, Category::Indirect);
        assert_eq!(profile("LC").unwrap().category, Category::Direct);
        assert_eq!(profile("SmCl").unwrap().category, Category::Dual);
        assert_eq!(profile("CXL").unwrap().category, Category::Direct);
    }
}
