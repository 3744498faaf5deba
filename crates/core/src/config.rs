//! Search configuration.

use crate::scoring::ScoringFunction;

/// Tuning knobs of the top-k query computation.
///
/// All fields are discrete (`Eq + Hash`), so the configuration can serve
/// directly as (part of) a cache key — the augmentation cache embeds the
/// whole config in its [`AugmentationKey`](crate::AugmentationKey), which
/// makes cross-config collisions impossible by construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SearchConfig {
    /// Number of queries to compute (`k` in Algorithm 1/2).
    pub k: usize,
    /// Maximum exploration distance `d_max`: paths longer than this are not
    /// expanded, bounding the neighbourhood that is searched.
    pub dmax: u32,
    /// The cost function used to rank subgraphs (C1, C2 or C3).
    pub scoring: ScoringFunction,
    /// Upper bound on the number of cursor expansions, a safety valve against
    /// pathological graphs (the paper's worst case is `|G|^dmax` cursors).
    pub max_cursors: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            k: 10,
            dmax: 8,
            scoring: ScoringFunction::PopularityAndMatch,
            max_cursors: 1_000_000,
        }
    }
}

impl SearchConfig {
    /// Default configuration with a different `k`.
    pub fn with_k(k: usize) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }

    /// Sets the scoring function.
    pub fn scoring(mut self, scoring: ScoringFunction) -> Self {
        self.scoring = scoring;
        self
    }

    /// Sets the exploration distance bound.
    pub fn dmax(mut self, dmax: u32) -> Self {
        self.dmax = dmax;
        self
    }

    /// The per-(element, keyword) path cap: at most `k` paths are retained.
    /// The paper's space bound (`k · |K| · |G|`) relies on keeping only the
    /// `k` cheapest paths, which preserves the top-k guarantee because any
    /// subgraph built from a pruned path is dominated by `k` cheaper
    /// alternatives through the same element.
    pub fn effective_path_cap(&self) -> usize {
        self.k.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_the_papers_setup() {
        let config = SearchConfig::default();
        assert_eq!(config.k, 10, "the paper computes the top-10 queries");
        assert_eq!(config.scoring, ScoringFunction::PopularityAndMatch);
        assert!(config.dmax >= 4, "dmax must allow multi-hop connections");
    }

    #[test]
    fn builder_style_setters() {
        let config = SearchConfig::with_k(5)
            .scoring(ScoringFunction::PathLength)
            .dmax(3);
        assert_eq!(config.k, 5);
        assert_eq!(config.scoring, ScoringFunction::PathLength);
        assert_eq!(config.dmax, 3);
    }

    #[test]
    fn configs_are_usable_as_cache_keys() {
        // The augmentation cache embeds the whole config in its key; every
        // field must therefore participate in equality.
        let base = SearchConfig::default();
        assert_eq!(base, SearchConfig::default());
        let variants = [
            SearchConfig::with_k(3),
            SearchConfig::default().scoring(ScoringFunction::PathLength),
            SearchConfig::default().dmax(3),
            SearchConfig {
                max_cursors: 7,
                ..SearchConfig::default()
            },
        ];
        for variant in &variants {
            assert_ne!(&base, variant, "{variant:?} must differ from the default");
        }
    }

    #[test]
    fn effective_path_cap_defaults_to_k() {
        assert_eq!(SearchConfig::with_k(7).effective_path_cap(), 7);
        assert_eq!(SearchConfig::with_k(0).effective_path_cap(), 1);
    }
}
