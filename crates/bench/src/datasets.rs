//! Dataset construction for the figure binaries.
//!
//! The original evaluation ran against DBLP (26M triples), TAP (220k) and
//! LUBM(50, 0). The binaries default to laptop-scale versions that preserve
//! the structural ratios (see the `kwsearch-datagen` crate docs) and can be
//! scaled up through the `KWSEARCH_SCALE` environment variable:
//!
//! * `KWSEARCH_SCALE=small`  — quick smoke runs (default for tests),
//! * `KWSEARCH_SCALE=medium` — the default for the figure binaries,
//! * `KWSEARCH_SCALE=large`  — ~10⁶ triples (DBLP tier), the scale of the
//!   committed benchmark's `data_bound` workload,
//! * `KWSEARCH_SCALE=huge`   — ~10⁷ triples, approaching the paper's full
//!   DBLP evaluation scale.

use kwsearch_datagen::{DblpConfig, DblpDataset, LubmConfig, LubmDataset, TapConfig, TapDataset};

/// Scale profile of the generated datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleProfile {
    /// Tiny datasets for unit tests and smoke runs.
    Small,
    /// Default benchmark scale.
    Medium,
    /// ~10⁶ triples on the DBLP tier (a DBLP-like publication expands to
    /// roughly nine triples).
    Large,
    /// ~10⁷ triples on the DBLP tier.
    Huge,
}

impl ScaleProfile {
    /// Reads the profile from the `KWSEARCH_SCALE` environment variable,
    /// defaulting to [`ScaleProfile::Medium`].
    pub fn from_env() -> Self {
        match std::env::var("KWSEARCH_SCALE").as_deref() {
            Ok("small") => ScaleProfile::Small,
            Ok("large") => ScaleProfile::Large,
            Ok("huge") => ScaleProfile::Huge,
            _ => ScaleProfile::Medium,
        }
    }

    /// The profile's name as spelled in `KWSEARCH_SCALE`.
    pub fn name(self) -> &'static str {
        match self {
            ScaleProfile::Small => "small",
            ScaleProfile::Medium => "medium",
            ScaleProfile::Large => "large",
            ScaleProfile::Huge => "huge",
        }
    }

    /// Number of DBLP-like publications for this profile.
    pub fn dblp_publications(self) -> usize {
        match self {
            ScaleProfile::Small => 300,
            ScaleProfile::Medium => 3_000,
            ScaleProfile::Large => 120_000,
            ScaleProfile::Huge => 1_200_000,
        }
    }

    /// Number of LUBM-like universities for this profile.
    pub fn lubm_universities(self) -> usize {
        match self {
            ScaleProfile::Small => 1,
            ScaleProfile::Medium => 4,
            ScaleProfile::Large => 10,
            ScaleProfile::Huge => 40,
        }
    }

    /// Instances per class for the TAP-like dataset.
    pub fn tap_instances_per_class(self) -> usize {
        match self {
            ScaleProfile::Small => 4,
            ScaleProfile::Medium => 15,
            ScaleProfile::Large => 40,
            ScaleProfile::Huge => 150,
        }
    }
}

/// Builds the DBLP-like dataset for a profile.
pub fn dblp_dataset(profile: ScaleProfile) -> DblpDataset {
    DblpDataset::generate(DblpConfig::with_scale(profile.dblp_publications()))
}

/// Builds the LUBM-like dataset for a profile.
pub fn lubm_dataset(profile: ScaleProfile) -> LubmDataset {
    LubmDataset::generate(LubmConfig::with_universities(profile.lubm_universities()))
}

/// Builds the TAP-like dataset for a profile.
pub fn tap_dataset(profile: ScaleProfile) -> TapDataset {
    TapDataset::generate(TapConfig {
        instances_per_class: profile.tap_instances_per_class(),
        ..TapConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_scale_monotonically() {
        assert!(ScaleProfile::Small.dblp_publications() < ScaleProfile::Medium.dblp_publications());
        assert!(ScaleProfile::Medium.dblp_publications() < ScaleProfile::Large.dblp_publications());
        assert!(ScaleProfile::Large.dblp_publications() < ScaleProfile::Huge.dblp_publications());
        assert!(ScaleProfile::Large.lubm_universities() < ScaleProfile::Huge.lubm_universities());
        assert!(
            ScaleProfile::Small.lubm_universities() <= ScaleProfile::Medium.lubm_universities()
        );
        assert!(
            ScaleProfile::Small.tap_instances_per_class()
                < ScaleProfile::Large.tap_instances_per_class()
        );
    }

    #[test]
    fn small_datasets_build_quickly_and_are_nonempty() {
        let dblp = dblp_dataset(ScaleProfile::Small);
        assert!(dblp.graph.edge_count() > 1000);
        let lubm = lubm_dataset(ScaleProfile::Small);
        assert!(lubm.graph.edge_count() > 100);
        let tap = tap_dataset(ScaleProfile::Small);
        assert!(tap.graph.edge_count() > 100);
    }
}
