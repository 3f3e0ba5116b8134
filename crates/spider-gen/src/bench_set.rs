//! Benchmark assembly: cross-domain train/dev splits with populated
//! databases, mirroring Spider's structure.

use crate::domains::all_domains;
use crate::populate::populate;
use crate::qgen::generate_example;
use crate::spec::DomainSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlkit::{classify, Hardness, Query};
use std::collections::BTreeMap;
use storage::Database;

/// One benchmark example.
#[derive(Debug, Clone)]
pub struct ExampleItem {
    /// Stable id within the benchmark.
    pub id: usize,
    /// Database this example runs against.
    pub db_id: String,
    /// The English question (standard Spider style).
    pub question: String,
    /// Spider-Realistic paraphrase (explicit column mentions removed).
    pub question_realistic: String,
    /// Gold query AST.
    pub gold: Query,
    /// Gold query SQL text (printed once, cached).
    pub gold_sql: String,
    /// Spider hardness bucket.
    pub hardness: Hardness,
    /// Template family (t1..t20).
    pub template: &'static str,
}

/// Generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct BenchmarkConfig {
    /// RNG seed controlling schemas' data and question sampling.
    pub seed: u64,
    /// Number of training examples (cross-domain example pool).
    pub train_size: usize,
    /// Number of dev (evaluation) examples.
    pub dev_size: usize,
    /// How many domains go to dev (the rest supply train examples).
    pub dev_domains: usize,
    /// Additional procedurally synthesized domains appended to the
    /// handcrafted catalog (train side only benefits unless `dev_domains`
    /// reaches into them).
    pub synthetic_domains: usize,
}

impl Default for BenchmarkConfig {
    fn default() -> Self {
        BenchmarkConfig {
            seed: 2023,
            train_size: 1200,
            dev_size: 300,
            dev_domains: 6,
            synthetic_domains: 0,
        }
    }
}

impl BenchmarkConfig {
    /// A small configuration for fast tests.
    pub fn tiny() -> Self {
        BenchmarkConfig {
            seed: 7,
            train_size: 120,
            dev_size: 40,
            dev_domains: 4,
            synthetic_domains: 0,
        }
    }
}

/// A complete benchmark: databases plus train/dev example sets.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// All databases by db_id (train and dev domains).
    pub databases: BTreeMap<String, Database>,
    /// Domain specs by db_id (prompt layer needs NL vocabulary).
    pub specs: BTreeMap<String, DomainSpec>,
    /// Training pool (example-selection candidates; SFT corpus).
    pub train: Vec<ExampleItem>,
    /// Dev set (what gets evaluated).
    pub dev: Vec<ExampleItem>,
}

impl Benchmark {
    /// Generate a benchmark deterministically from a config.
    ///
    /// Domains are split disjointly: the first `dev_domains` (after a seeded
    /// shuffle) supply dev examples, the rest supply train examples — so
    /// evaluation is cross-domain exactly as in Spider.
    pub fn generate(cfg: BenchmarkConfig) -> Benchmark {
        let mut domains = all_domains();
        domains.extend(crate::synth::synthetic_domains(
            cfg.synthetic_domains,
            cfg.seed,
        ));
        // Seeded rotation (cheap deterministic shuffle).
        let rot = (cfg.seed as usize) % domains.len();
        domains.rotate_left(rot);

        let (dev_domains, train_domains) = domains.split_at(cfg.dev_domains.min(domains.len()));

        let mut databases = BTreeMap::new();
        let mut specs = BTreeMap::new();
        for d in dev_domains.iter().chain(train_domains.iter()) {
            databases.insert(d.db_id.to_string(), populate(d, cfg.seed));
            specs.insert(d.db_id.to_string(), d.clone());
        }

        let mut next_id = 0usize;
        let train = Self::fill(
            train_domains,
            &databases,
            cfg.train_size,
            cfg.seed ^ 0x7261696e,
            &mut next_id,
        );
        let dev = Self::fill(
            dev_domains,
            &databases,
            cfg.dev_size,
            cfg.seed ^ 0x646576,
            &mut next_id,
        );
        if obskit::enabled() {
            let g = obskit::current();
            g.add_counter("spidergen.benchmarks_generated", 1);
            g.set_gauge("spidergen.train_size", train.len() as f64);
            g.set_gauge("spidergen.dev_size", dev.len() as f64);
        }
        Benchmark {
            databases,
            specs,
            train,
            dev,
        }
    }

    fn fill(
        domains: &[DomainSpec],
        databases: &BTreeMap<String, Database>,
        target: usize,
        seed: u64,
        next_id: &mut usize,
    ) -> Vec<ExampleItem> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(target);
        let mut seen_sql = std::collections::HashSet::new();
        let mut attempts = 0usize;
        let max_attempts = target * 60;
        while out.len() < target && attempts < max_attempts {
            attempts += 1;
            let d = &domains[out.len() % domains.len()];
            let db = &databases[d.db_id];
            let Some(ex) = generate_example(d, db, &mut rng) else {
                continue;
            };
            let gold_sql = ex.gold.to_string();
            // De-duplicate identical (db, sql) pairs; identical questions with
            // different SQL are fine (paraphrases resolve to data).
            if !seen_sql.insert(format!("{}\u{1}{}", d.db_id, gold_sql)) {
                continue;
            }
            // Gold must execute; most templates should return rows so EX is
            // informative (NOT IN may legitimately return none).
            let Ok(rs) = storage::execute_query(db, &ex.gold) else {
                continue;
            };
            if rs.rows.is_empty() && ex.template != "t12" && ex.template != "t14" {
                continue;
            }
            let hardness = classify(&ex.gold);
            out.push(ExampleItem {
                id: *next_id,
                db_id: d.db_id.to_string(),
                question: ex.question,
                question_realistic: ex.question_realistic,
                gold: ex.gold,
                gold_sql,
                hardness,
                template: ex.template,
            });
            *next_id += 1;
        }
        out
    }

    /// Per-hardness counts of the dev set.
    pub fn dev_hardness_histogram(&self) -> BTreeMap<Hardness, usize> {
        let mut m = BTreeMap::new();
        for e in &self.dev {
            *m.entry(e.hardness).or_insert(0) += 1;
        }
        m
    }

    /// The database for an example.
    pub fn db(&self, item: &ExampleItem) -> &Database {
        &self.databases[&item.db_id]
    }

    /// The domain spec for an example.
    pub fn spec(&self, item: &ExampleItem) -> &DomainSpec {
        &self.specs[&item.db_id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn tiny_benchmark_generates_to_size() {
        let b = Benchmark::generate(BenchmarkConfig::tiny());
        assert!(b.train.len() >= 100, "train {}", b.train.len());
        assert!(b.dev.len() >= 35, "dev {}", b.dev.len());
    }

    #[test]
    fn splits_are_cross_domain() {
        let b = Benchmark::generate(BenchmarkConfig::tiny());
        let train_dbs: HashSet<&str> = b.train.iter().map(|e| e.db_id.as_str()).collect();
        let dev_dbs: HashSet<&str> = b.dev.iter().map(|e| e.db_id.as_str()).collect();
        assert!(
            train_dbs.is_disjoint(&dev_dbs),
            "{train_dbs:?} ∩ {dev_dbs:?}"
        );
        assert!(dev_dbs.len() >= 2);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Benchmark::generate(BenchmarkConfig::tiny());
        let b = Benchmark::generate(BenchmarkConfig::tiny());
        assert_eq!(a.train.len(), b.train.len());
        assert_eq!(a.dev.len(), b.dev.len());
        for (x, y) in a.dev.iter().zip(&b.dev) {
            assert_eq!(x.gold_sql, y.gold_sql);
            assert_eq!(x.question, y.question);
        }
    }

    #[test]
    fn gold_sql_round_trips() {
        let b = Benchmark::generate(BenchmarkConfig::tiny());
        for e in b.dev.iter().chain(&b.train) {
            let reparsed = sqlkit::parse_query(&e.gold_sql).unwrap();
            assert_eq!(reparsed, e.gold);
        }
    }

    #[test]
    fn hardness_histogram_has_multiple_buckets() {
        let b = Benchmark::generate(BenchmarkConfig::tiny());
        assert!(b.dev_hardness_histogram().len() >= 2);
    }

    #[test]
    fn no_duplicate_gold_sql_within_db() {
        let b = Benchmark::generate(BenchmarkConfig::tiny());
        let mut seen = HashSet::new();
        for e in &b.train {
            assert!(seen.insert(format!("{}|{}", e.db_id, e.gold_sql)));
        }
    }
}
