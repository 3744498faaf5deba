//! Seed-determined inputs: the DBLP-like dataset, keyword queries whose
//! answers exist, and the Zipf draw over a query pool.
//!
//! Everything the program under test receives (triples and keywords) comes
//! from here; the same seed gives the same inputs, a different seed gives
//! different ones.

use kwsearch_datagen::{DblpConfig, DblpDataset, ZipfSampler};
use kwsearch_rdf::DataGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent random streams derived from the one `--seed`.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Queries = 1,
    Zipf = 2,
    ReaderQueries = 3,
}

/// The generator composes queries of up to this many keywords.
const MAX_KEYWORDS: usize = 5;

pub fn rng(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(seed ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The label pools the query generator draws from (the dataset minus its
/// graph, which moves into the preparation).
#[derive(Debug)]
pub struct Pools {
    author_names: Vec<String>,
    venue_names: Vec<String>,
    titles: Vec<String>,
    years: Vec<String>,
    authorship: Vec<Vec<usize>>,
    publication_venue: Vec<usize>,
}

/// Generates the dataset for `seed` and splits it into graph and pools.
pub fn dataset(publications: usize, seed: u64) -> (DataGraph, Pools) {
    let dataset = DblpDataset::generate(DblpConfig {
        seed,
        ..DblpConfig::with_scale(publications)
    });
    let pools = Pools {
        author_names: dataset.author_names,
        venue_names: dataset.venue_names,
        titles: dataset.titles,
        years: dataset.years,
        authorship: dataset.authorship,
        publication_venue: dataset.publication_venue,
    };
    (dataset.graph, pools)
}

/// Walks the publications, ordered by their first author's popularity, in
/// golden-ratio steps from a seed-chosen start: any prefix of the walk is
/// spread evenly over the popularity range.
///
/// What a request costs depends mostly on how prolific its author is
/// (authorship is Zipfian). Independent draws give each run its own share of
/// expensive requests, which moves p95 by ±10 % between seeds; the even
/// walk gives every run, and every prefix of it, the same share.
struct Walk {
    position: usize,
    step: usize,
}

impl Walk {
    fn new(rng: &mut StdRng, len: usize) -> Self {
        let mut step = ((len as f64 * 0.618_033_988_749_895) as usize).max(1);
        while gcd(step, len) != 1 {
            step += 1;
        }
        Self {
            position: rng.gen_range(0..len),
            step,
        }
    }

    fn next(&mut self, len: usize) -> usize {
        let position = self.position;
        self.position = (self.position + self.step) % len;
        position
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Pools {
    pub fn publications(&self) -> usize {
        self.titles.len()
    }

    /// Publication numbers, most prolific first author first.
    fn by_popularity(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.publications()).collect();
        // Authors are numbered by Zipf rank: a lower number publishes more.
        order.sort_by_key(|&p| (self.authorship[p][0], p));
        order
    }

    /// One `n`-keyword query (`n` in `1..=5`) about publication `p`: the
    /// first `n` of first author, year, venue, first title term, and a
    /// second author (a co-author when there is one). All describe the same
    /// publication, so a connecting query with answers exists.
    fn query(&self, p: usize, rng: &mut StdRng, n: usize) -> Vec<String> {
        let authors = &self.authorship[p];
        let second = if authors.len() > 1 {
            authors[rng.gen_range(1..authors.len())]
        } else {
            rng.gen_range(0..self.author_names.len())
        };
        let title_term = self.titles[p].split(' ').next().unwrap_or_default();
        let all = [
            self.author_names[authors[0]].as_str(),
            self.years[p].as_str(),
            self.venue_names[self.publication_venue[p]].as_str(),
            title_term,
            self.author_names[second].as_str(),
        ];
        all[..n.clamp(1, all.len())]
            .iter()
            .map(|s| (*s).to_string())
            .collect()
    }

    /// A request sequence of `len` queries; request `i` has
    /// `keyword_cycle[i % keyword_cycle.len()]` keywords, and each keyword
    /// count walks the publications on its own [`Walk`].
    ///
    /// The keyword counts follow a fixed cycle, not a draw: latency clusters
    /// by keyword count with gaps between the clusters, so a percentile is
    /// only steady when the mix puts it inside a cluster — and keeps it
    /// there for every seed.
    pub fn sequence(
        &self,
        seed: u64,
        stream: Stream,
        len: usize,
        keyword_cycle: &[usize],
    ) -> Vec<Vec<String>> {
        let mut rng = rng(seed, stream);
        let order = self.by_popularity();
        let mut walks: Vec<Walk> = (0..=MAX_KEYWORDS)
            .map(|_| Walk::new(&mut rng, order.len()))
            .collect();
        (0..len)
            .map(|i| {
                let n = keyword_cycle[i % keyword_cycle.len()].clamp(1, MAX_KEYWORDS);
                let p = order[walks[n].next(order.len())];
                self.query(p, &mut rng, n)
            })
            .collect()
    }

    /// `len` *distinct* queries (the hot pool: one cache entry each).
    pub fn distinct_pool(
        &self,
        seed: u64,
        len: usize,
        keyword_cycle: &[usize],
    ) -> Vec<Vec<String>> {
        let mut pool: Vec<Vec<String>> = Vec::with_capacity(len);
        // Longer than needed, so that dropping repeats still leaves `len`.
        for query in self.sequence(seed, Stream::Queries, len * 4, keyword_cycle) {
            if pool.len() < len && !pool.contains(&query) {
                pool.push(query);
            }
        }
        pool
    }
}

/// `len` indices into a pool of `pool` items, drawn Zipf(`s`).
pub fn zipf_draws(seed: u64, pool: usize, s: f64, len: usize) -> Vec<u32> {
    let sampler = ZipfSampler::new(pool, s);
    let mut rng = rng(seed, Stream::Zipf);
    (0..len).map(|_| sampler.sample(&mut rng) as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_sequence_and_another_seed_another() {
        let (graph_a, pools_a) = dataset(300, 7);
        let (graph_b, pools_b) = dataset(300, 7);
        let (_, pools_c) = dataset(300, 8);
        assert_eq!(graph_a.edge_count(), graph_b.edge_count());
        let a = pools_a.sequence(7, Stream::Queries, 50, &[2, 3, 4, 5]);
        let b = pools_b.sequence(7, Stream::Queries, 50, &[2, 3, 4, 5]);
        let c = pools_c.sequence(8, Stream::Queries, 50, &[2, 3, 4, 5]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().enumerate().all(|(i, q)| q.len() == 2 + i % 4));
    }

    #[test]
    fn a_walk_visits_everything_once_and_spreads_every_prefix() {
        let mut rng = rng(1, Stream::Queries);
        let len = 1_000;
        let mut walk = Walk::new(&mut rng, len);
        let visited: Vec<usize> = (0..len).map(|_| walk.next(len)).collect();
        let mut sorted = visited.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..len).collect::<Vec<_>>());
        // The first 50 steps already reach every tenth of the range.
        for tenth in 0..10 {
            assert!(visited[..50].iter().any(|&p| p / 100 == tenth));
        }
    }

    #[test]
    fn zipf_draw_repeats_per_seed_and_is_skewed() {
        let a = zipf_draws(42, 64, 1.0, 5_000);
        assert_eq!(a, zipf_draws(42, 64, 1.0, 5_000));
        assert_ne!(a, zipf_draws(43, 64, 1.0, 5_000));
        assert!(a.iter().all(|&i| i < 64));
        let count = |i: u32| a.iter().filter(|&&x| x == i).count();
        assert!(count(0) > count(8) && count(8) > count(63));
    }

    #[test]
    fn the_pool_holds_distinct_queries() {
        let (_, pools) = dataset(300, 3);
        let pool = pools.distinct_pool(3, 64, &[2, 3, 4, 5]);
        assert_eq!(pool.len(), 64);
        for (i, q) in pool.iter().enumerate() {
            assert!(!pool[..i].contains(q));
        }
    }
}
