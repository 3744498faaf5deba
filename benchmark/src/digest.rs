//! The `result_digest`: an order-sensitive hash of ranked results, used to
//! prove that two paths (hot replay vs cold session, sharded vs unsharded,
//! traced decomposition vs session) returned the same thing.

use kwsearch_core::RankedQuery;

use crate::report::Report;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Digest of one request's ranked queries: every query's canonical text and
/// cost bits, in rank order.
pub fn of_queries(queries: &[RankedQuery]) -> u64 {
    queries.iter().fold(FNV_OFFSET, |hash, ranked| {
        let canonical = ranked.query.canonicalized().to_string();
        fold(
            fold(hash, canonical.as_bytes()),
            &ranked.cost.to_bits().to_le_bytes(),
        )
    })
}

/// A cheap per-reply fingerprint (count and cost bits only) for paths where
/// canonicalizing every reply would throttle the closed-loop client.
pub fn of_costs(queries: &[RankedQuery]) -> u64 {
    queries
        .iter()
        .fold(FNV_OFFSET ^ queries.len() as u64, |hash, ranked| {
            fold(hash, &ranked.cost.to_bits().to_le_bytes())
        })
}

/// Folds per-request digests, in request order, into the run's digest.
pub fn of_digests(digests: &[u64]) -> u64 {
    digests
        .iter()
        .fold(FNV_OFFSET, |hash, d| fold(hash, &d.to_le_bytes()))
}

/// Theorem-1 emission order: costs never decrease down the ranking, and
/// ranks are dense from 1.
pub fn well_ranked(queries: &[RankedQuery]) -> bool {
    queries.windows(2).all(|w| w[0].cost <= w[1].cost)
        && queries.iter().enumerate().all(|(i, q)| q.rank == i + 1)
}

/// The digest each slot of a cycled request sequence produced the first time
/// it ran: what every repeat, and every other path to the same result, must
/// reproduce.
#[derive(Debug)]
pub struct FirstPass(Vec<Option<u64>>);

impl FirstPass {
    pub fn new(sequence_len: usize) -> Self {
        Self(vec![None; sequence_len])
    }

    /// Checks request `i`'s ranking, and records its digest as `slot`'s
    /// first pass — or, on a repeat, checks that it equals the first pass.
    pub fn check(&mut self, report: &mut Report, i: usize, slot: usize, queries: &[RankedQuery]) {
        report.check(well_ranked(queries), || {
            format!("request {i}: costs decrease down the ranking")
        });
        let digest = of_queries(queries);
        let first = *self.0[slot].get_or_insert(digest);
        report.check(first == digest, || {
            format!("request {i}: a repeat of request {slot} returned other results")
        });
    }

    /// Checks that `path`'s result for `slot` equals the first pass.
    pub fn check_path(
        &self,
        report: &mut Report,
        slot: usize,
        queries: &[RankedQuery],
        path: &str,
    ) {
        report.check(self.0[slot] == Some(of_queries(queries)), || {
            format!("request {slot}: {path} returned other results than the first pass")
        });
    }

    /// The run's digest: the first `prefix` slots' digests, in order.
    pub fn digest(&self, prefix: usize) -> u64 {
        let digests: Vec<u64> = self.0[..prefix].iter().map_while(|d| *d).collect();
        of_digests(&digests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwsearch_core::{PreparedGraph, SearchConfig};
    use kwsearch_rdf::fixtures::figure1_graph;

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(of_digests(&[1, 2]), of_digests(&[2, 1]));
        assert_eq!(of_digests(&[1, 2]), of_digests(&[1, 2]));

        let prepared = PreparedGraph::index(figure1_graph());
        let mut queries = prepared
            .session(&["2006", "cimiano", "aifb"], SearchConfig::default())
            .unwrap()
            .into_outcome()
            .queries;
        assert!(queries.len() >= 2 && well_ranked(&queries));
        let forward = of_queries(&queries);
        let forward_costs = of_costs(&queries);
        queries.reverse();
        assert_ne!(of_queries(&queries), forward);
        assert!(!well_ranked(&queries));
        // Cost ties can make the cheap fingerprint symmetric; it still
        // separates a truncated reply.
        assert_ne!(of_costs(&queries[1..]), forward_costs);
    }

    #[test]
    fn a_repeat_that_differs_from_its_first_pass_is_a_problem() {
        let prepared = PreparedGraph::index(figure1_graph());
        let queries = prepared
            .session(&["cimiano", "aifb"], SearchConfig::default())
            .unwrap()
            .into_outcome()
            .queries;
        let mut report = Report::default();
        let mut first_pass = FirstPass::new(4);
        first_pass.check(&mut report, 0, 0, &queries);
        first_pass.check(&mut report, 4, 0, &queries);
        first_pass.check_path(&mut report, 0, &queries, "the other path");
        assert!(report.correct());
        assert_eq!(first_pass.digest(2), of_digests(&[of_queries(&queries)]));
        first_pass.check(&mut report, 8, 0, &queries[1..]);
        first_pass.check_path(&mut report, 0, &queries[1..], "the other path");
        assert_eq!(report.problems.len(), 3, "{:?}", report.problems);
    }
}
