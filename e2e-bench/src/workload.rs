//! The three workloads and the set-up every run of them pays.
//!
//! All three are one closed-loop client over the paper's DAIL-SQL pipeline
//! (`gpt-4` profile, 5-shot); they differ in what the item's time is spent
//! on:
//!
//! * `dev-greedy` — the paper's headline configuration: 1,200-row pool,
//!   exact retrieval, greedy decoding. Every prompt is distinct and the
//!   pool matrices fit in cache, so no layer dominates.
//! * `sc-vote` — DAIL-SQL + self-consistency (5 samples). Five of the six
//!   completions per item share one prompt and the vote executes five
//!   candidates: the only workload where calls share work.
//! * `large-pool` — a 100k-row pool from 200 synthetic domains behind an
//!   IVF index. The matrices dwarf the CPU cache and selection dominates
//!   the item; generation and k-means dominate set-up.

use dail_core::{DailSql, PredictCtx};
use promptkit::{ExampleSelector, RetrievalMode};
use simllm::SimLlm;
use spider_gen::{Benchmark, BenchmarkConfig};
use std::time::{Duration, Instant};
use textkit::Tokenizer;

/// Rows of the `large-pool` example pool.
const LARGE_POOL_ROWS: usize = 100_000;
/// Synthetic domains that make a pool of [`LARGE_POOL_ROWS`] reachable:
/// the handcrafted train domains cap a pool at 17,646 distinct rows.
const LARGE_POOL_SYNTHETIC_DOMAINS: usize = 200;
/// Self-consistency samples of `sc-vote`, as in the paper's DAIL-SQL + SC.
const SC_SAMPLES: usize = 5;
/// Dev items of every workload: enough that p99 has ten samples beyond it.
const DEV_ITEMS: usize = 1000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DevGreedy,
    ScVote,
    LargePool,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::DevGreedy, Workload::ScVote, Workload::LargePool];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DevGreedy => "dev-greedy",
            Workload::ScVote => "sc-vote",
            Workload::LargePool => "large-pool",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark to generate: the paper's configuration (seed 2023)
    /// with a dev set of [`DEV_ITEMS`], grown to the large pool for
    /// `large-pool`. The generation seed stays pinned because it also
    /// rotates which domains are held out: varying it moved EX between 77%
    /// and 87% and throughput by a fifth, wider than any regression bound.
    /// The rotation is `seed % domains`, and 2023 leaves the same
    /// remainder over 24 and 224 domains, so `large-pool` serves the very
    /// dev set of `dev-greedy` and the pool is the only difference.
    pub fn config(self) -> BenchmarkConfig {
        let paper = BenchmarkConfig {
            dev_size: DEV_ITEMS,
            ..bench::paper_config()
        };
        match self {
            Workload::DevGreedy | Workload::ScVote => paper,
            Workload::LargePool => BenchmarkConfig {
                train_size: LARGE_POOL_ROWS,
                synthetic_domains: LARGE_POOL_SYNTHETIC_DOMAINS,
                ..paper
            },
        }
    }

    pub fn retrieval(self) -> RetrievalMode {
        match self {
            Workload::DevGreedy | Workload::ScVote => RetrievalMode::Exact,
            Workload::LargePool => RetrievalMode::Ivf,
        }
    }

    /// Whether the untraced run reports timings at the host's reference
    /// speed ([`crate::probe`]). The host's drift slows the cache-resident
    /// pipeline of the 1,200-row pool together with the probe. It slows
    /// `large-pool`, whose items stream the large matrices from memory
    /// and evict the probe's table as they go, less and out of step with
    /// the probe: in three runs its wall clock read 95-100 items/s while
    /// the probe moved by a quarter, so correcting it would add the
    /// probe's noise, not remove the host's.
    pub fn host_corrected(self) -> bool {
        match self {
            Workload::DevGreedy | Workload::ScVote => true,
            Workload::LargePool => false,
        }
    }

    pub fn predictor(self) -> DailSql {
        let model = SimLlm::new("gpt-4").expect("gpt-4 is in the model zoo");
        match self {
            Workload::DevGreedy | Workload::LargePool => DailSql::new(model),
            Workload::ScVote => DailSql::with_self_consistency(model, SC_SAMPLES),
        }
    }
}

/// Wall-clock split of one set-up. `total` runs up to the first item, so
/// it also holds the tokenizer and predictor construction.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    pub generate: Duration,
    pub selector_build: Duration,
    pub total: Duration,
}

/// Everything one run serves items from.
pub struct Pipeline<'a> {
    pub bench: &'a Benchmark,
    pub selector: ExampleSelector<'a>,
    pub tokenizer: Tokenizer,
    pub predictor: DailSql,
}

impl Pipeline<'_> {
    /// The prediction context with this pipeline's selector.
    pub fn ctx(&self, seed: u64) -> PredictCtx<'_> {
        predict_ctx(self.bench, &self.selector, &self.tokenizer, seed)
    }
}

pub fn predict_ctx<'a>(
    bench: &'a Benchmark,
    selector: &'a ExampleSelector<'a>,
    tokenizer: &'a Tokenizer,
    seed: u64,
) -> PredictCtx<'a> {
    PredictCtx {
        bench,
        selector,
        tokenizer,
        seed,
        realistic: false,
        trace: obskit::TraceContext::disabled(),
    }
}

/// Generate the workload's benchmark, build its selector, and hand the
/// ready pipeline to `serve`. The selector borrows the benchmark, so the
/// pipeline cannot outlive this call.
pub fn with_pipeline<R>(
    workload: Workload,
    serve: impl FnOnce(Pipeline<'_>, SetupTimes) -> R,
) -> R {
    let start = Instant::now();
    let bench = Benchmark::generate(workload.config());
    let generate = start.elapsed();
    let built = Instant::now();
    let selector = ExampleSelector::with_retrieval(&bench, workload.retrieval());
    let selector_build = built.elapsed();
    let pipeline = Pipeline {
        bench: &bench,
        selector,
        tokenizer: Tokenizer::new(),
        predictor: workload.predictor(),
    };
    let times = SetupTimes {
        generate,
        selector_build,
        total: start.elapsed(),
    };
    serve(pipeline, times)
}
