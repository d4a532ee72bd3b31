//! Shared sweep driver for the single-technique figures (Figures 4–12
//! and the post-2009 extension experiments): each variant is solved on
//! the next-generation 32-CEA die under a constant traffic envelope.
//!
//! A figure's sweep is declared as a [`CatalogueSweep`] — base row
//! first, by construction — in its row of [`TECHNIQUE_FIGURES`], from
//! which the named sweeps `POST /v1/sweep` serves are read. There is no
//! hand-maintained name list: adding a row *is* publishing its sweep.

use crate::experiments::technique_figures::{TechniqueFigure, TECHNIQUE_FIGURES};
use crate::registry::Experiment;
use crate::report::{Report, TableBlock, Value};
use crate::{die_budget, paper_baseline};
use bandwall_model::descriptor;
use bandwall_model::Technique;

/// One sweep point: a label and the technique to apply (`None` = base).
#[derive(Debug, Clone)]
pub struct Variant {
    /// Row label (e.g. `"2.0x"` or `"DRAM L2 (8x)"`).
    pub label: String,
    /// Technique instance; `None` solves the unmodified base problem.
    pub technique: Option<Technique>,
    /// Paper's reported core count for this point, when stated.
    pub paper: Option<u64>,
}

impl Variant {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, technique: Option<Technique>, paper: Option<u64>) -> Self {
        Variant {
            label: label.into(),
            technique,
            paper,
        }
    }

    /// Builds a technique variant from the registry: `id` names a
    /// [`descriptor::TechniqueDescriptor`] and `params` its full
    /// parameter vector. This is the one constructor the technique-figure
    /// rows use, so a sweep point is always a registry-validated instance.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id or out-of-domain parameters — sweep
    /// declarations are static data, so both are programming errors.
    pub fn from_descriptor(
        label: impl Into<String>,
        id: &str,
        params: &[f64],
        paper: Option<u64>,
    ) -> Self {
        let technique = descriptor::descriptor(id)
            .unwrap_or_else(|| panic!("unknown technique id '{id}'"))
            .instantiate(params)
            .unwrap_or_else(|e| panic!("invalid parameters for technique '{id}': {e}"));
        Variant {
            label: label.into(),
            technique: Some(technique),
            paper,
        }
    }
}

/// A figure's declared sweep: the mandatory base row (technique `None`)
/// followed by registry-built technique points. The base-first
/// convention every consumer relies on is enforced by this type — the
/// only way to construct one is [`CatalogueSweep::base`], and
/// [`CatalogueSweep::point`] can only append technique variants.
#[derive(Debug, Clone)]
pub struct CatalogueSweep {
    variants: Vec<Variant>,
}

impl CatalogueSweep {
    /// Starts a sweep with its base row.
    pub fn base(label: impl Into<String>, paper: Option<u64>) -> Self {
        CatalogueSweep {
            variants: vec![Variant::new(label, None, paper)],
        }
    }

    /// Appends a technique point built from the registry (see
    /// [`Variant::from_descriptor`]).
    #[must_use]
    pub fn point(
        mut self,
        label: impl Into<String>,
        id: &str,
        params: &[f64],
        paper: Option<u64>,
    ) -> Self {
        self.variants
            .push(Variant::from_descriptor(label, id, params, paper));
        self
    }

    /// The sweep points, base first.
    pub fn variants(&self) -> &[Variant] {
        &self.variants
    }

    /// Consumes the sweep into its variant list, base first.
    pub fn into_variants(self) -> Vec<Variant> {
        self.variants
    }
}

/// Solves every variant on the next-generation die and returns the
/// structured table plus the computed core counts in variant order.
///
/// # Errors
///
/// Propagates the first [`bandwall_model::ModelError`] from any variant's
/// solver.
pub fn sweep_block(
    variants: &[Variant],
) -> Result<(TableBlock, Vec<u64>), bandwall_model::ModelError> {
    let baseline = paper_baseline();
    let n2 = die_budget(1);
    let mut results = Vec::with_capacity(variants.len());
    let mut table = TableBlock::new(&["configuration", "supportable cores", "", "paper"]);
    for v in variants {
        let mut problem = bandwall_model::ScalingProblem::new(baseline, n2);
        if let Some(t) = v.technique {
            problem = problem.with_technique(t);
        }
        let cores = problem.max_supportable_cores()?;
        results.push(cores);
        table.push_row(vec![
            Value::text(v.label.clone()),
            Value::int(cores),
            Value::bar(cores as f64, 32.0, 32),
            v.paper.map(Value::int).unwrap_or_else(Value::empty),
        ]);
    }
    Ok((table, results))
}

/// The catalogue-sweep names `POST /v1/sweep` serves: the ids of the
/// [`TECHNIQUE_FIGURES`] rows, in registry order.
pub fn named_sweep_ids() -> Vec<&'static str> {
    TECHNIQUE_FIGURES.iter().map(|row| row.id()).collect()
}

/// Resolves a named catalogue sweep to its variant list (`None` for an
/// unknown name). Names are registry experiment ids (see
/// [`named_sweep_ids`]).
pub fn named_sweep(name: &str) -> Option<Vec<Variant>> {
    TECHNIQUE_FIGURES
        .iter()
        .find(|row| row.id() == name)
        .map(TechniqueFigure::variants)
}

/// Records a `cores[label]` metric for every variant the paper anchors.
pub fn add_paper_metrics(report: &mut Report, variants: &[Variant], results: &[u64]) {
    for (v, &cores) in variants.iter().zip(results) {
        if let Some(paper) = v.paper {
            report.metric(
                format!("cores[{}]", v.label),
                cores as f64,
                Some(paper as f64),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_variant_yields_11() {
        let (_, out) = sweep_block(&[Variant::new("base", None, Some(11))]).unwrap();
        assert_eq!(out, vec![11]);
    }

    #[test]
    fn technique_variant_applies() {
        let t = Technique::dram_cache(8.0).unwrap();
        let (_, out) = sweep_block(&[Variant::new("dram", Some(t), None)]).unwrap();
        assert_eq!(out, vec![18]);
    }

    #[test]
    fn from_descriptor_matches_named_constructor() {
        let a = Variant::from_descriptor("dram", "dram_cache", &[8.0], None);
        assert_eq!(a.technique, Some(Technique::dram_cache(8.0).unwrap()));
        assert_eq!(a.paper, None);
    }

    #[test]
    #[should_panic(expected = "unknown technique id")]
    fn from_descriptor_rejects_unknown_ids() {
        let _ = Variant::from_descriptor("x", "warp_drive", &[2.0], None);
    }

    #[test]
    fn catalogue_sweeps_are_base_first_by_construction() {
        let sweep =
            CatalogueSweep::base("base", Some(11)).point("dram", "dram_cache", &[8.0], None);
        let variants = sweep.into_variants();
        assert_eq!(variants.len(), 2);
        assert!(variants[0].technique.is_none());
        assert!(variants[1].technique.is_some());
    }

    #[test]
    fn named_sweeps_are_derived_from_the_registry() {
        let ids = named_sweep_ids();
        assert!(ids.len() >= 11, "{ids:?}");
        assert_eq!(ids[0], "fig04_cache_compression");
        assert!(ids.contains(&"fig12_cache_link"));
        assert!(ids.contains(&"thermal_capped_3d"));
        assert!(ids.contains(&"cxl_harvesting"));
        for name in ids {
            let variants = named_sweep(name).unwrap_or_else(|| panic!("{name} must resolve"));
            assert!(!variants.is_empty(), "{name} has no variants");
            // Every catalogue sweep leads with the untouched base case.
            assert!(variants[0].technique.is_none(), "{name} base first");
        }
        assert!(named_sweep("fig99_warp_drive").is_none());
    }

    #[test]
    fn block_carries_paper_anchor() {
        let (table, results) = sweep_block(&[Variant::new("base", None, Some(11))]).unwrap();
        assert_eq!(results, vec![11]);
        assert_eq!(table.rows[0][3].num(), Some(11.0));
        let mut r = Report::new("x", "F", "t");
        add_paper_metrics(&mut r, &[Variant::new("base", None, Some(11))], &results);
        assert_eq!(r.get_metric("cores[base]").unwrap().delta(), Some(0.0));
    }
}
