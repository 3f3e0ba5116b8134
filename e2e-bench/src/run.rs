//! The untraced run: the real pipeline, `Predictor::predict` then
//! `eval::score_item`, timed per item on the wall clock and, on the
//! workloads whose items follow the host-speed probe, reported at the
//! host's reference speed (see [`crate::probe`]).

use crate::probe::{self, HostProbe};
use crate::report::{self, Fnv, Metrics};
use crate::workload::{with_pipeline, Pipeline, Workload};
use dail_core::{DailSql, PredictCtx, Predictor};
use eval::ItemScore;
use spider_gen::{Benchmark, ExampleItem};
use sqlkit::{parse_query, Query};
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};
use storage::{execute_query_oracle, results_match, Database};

/// Set-ups per run, so `setup_s` is a median even when one pass fills
/// the measured time. Every set-up beyond the passes' costs a whole
/// `large-pool` generation, so this stays at two.
const MIN_SETUPS: usize = 2;

/// What one item produced.
pub struct Served {
    pub sql: String,
    pub prompt_tokens: usize,
    pub score: ItemScore,
}

impl Served {
    pub fn same_as(&self, other: &Served) -> bool {
        self.sql == other.sql
            && self.prompt_tokens == other.prompt_tokens
            && self.score.valid == other.score.valid
            && self.score.ex == other.score.ex
            && self.score.em == other.score.em
    }
}

/// One closed-loop pass over the dev items. An outcome is `None` when
/// predicting or scoring the item panicked.
pub struct Pass {
    pub outcomes: Vec<Option<Served>>,
    pub item_ns: Vec<u64>,
    /// The probe's time after each item, when the pass was probed.
    pub probe_ns: Vec<u64>,
}

pub fn serve_pass(
    ctx: &PredictCtx<'_>,
    predictor: &DailSql,
    items: &[ExampleItem],
    mut probe: Option<&mut HostProbe>,
) -> Pass {
    let mut outcomes = Vec::with_capacity(items.len());
    let mut item_ns = Vec::with_capacity(items.len());
    let mut probe_ns = Vec::new();
    for item in items {
        let start = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let pred = predictor.predict(ctx, item);
            let score = eval::score_item(ctx.bench.db(item), item, &pred.sql);
            Served {
                sql: pred.sql,
                prompt_tokens: pred.prompt_tokens,
                score,
            }
        }))
        .ok();
        item_ns.push(start.elapsed().as_nanos() as u64);
        outcomes.push(black_box(outcome));
        if let Some(probe) = probe.as_deref_mut() {
            probe_ns.push(probe.sample());
        }
    }
    Pass {
        outcomes,
        item_ns,
        probe_ns,
    }
}

/// Whether EX compares rows in order: `eval::score_item`'s rule, which
/// `eval` keeps private.
pub fn has_top_level_order(q: &Query) -> bool {
    matches!(q, Query::Select(s) if !s.order_by.is_empty())
}

/// `(valid, ex)` re-derived through the reference interpreter, or `None`
/// when the gold query fails there.
fn oracle_verdict(db: &Database, item: &ExampleItem, sql: &str) -> Option<(bool, bool)> {
    let Ok(pred) = parse_query(sql) else {
        return Some((false, false));
    };
    let Ok(pred_rs) = execute_query_oracle(db, &pred) else {
        return Some((false, false));
    };
    let gold_rs = execute_query_oracle(db, &item.gold).ok()?;
    Some((
        true,
        results_match(&gold_rs, &pred_rs, has_top_level_order(&item.gold)),
    ))
}

/// The verdicts of one pass, checked against the oracle.
pub struct Checked {
    /// Per item: it did not panic and the oracle agrees with its verdict.
    pub ok: Vec<bool>,
    pub fingerprint: Fnv,
    pub ex: usize,
    pub prompt_tokens: usize,
}

impl Checked {
    pub fn failed(&self) -> usize {
        self.ok.iter().filter(|ok| !**ok).count()
    }

    pub fn ex_pct(&self) -> f64 {
        100.0 * report::ratio(self.ex, self.ok.len())
    }

    pub fn prompt_tokens_per_item(&self) -> f64 {
        report::ratio(self.prompt_tokens, self.ok.len())
    }
}

pub fn check(bench: &Benchmark, outcomes: &[Option<Served>]) -> Checked {
    let mut checked = Checked {
        ok: Vec::with_capacity(outcomes.len()),
        fingerprint: Fnv::default(),
        ex: 0,
        prompt_tokens: 0,
    };
    for (item, outcome) in bench.dev.iter().zip(outcomes) {
        checked.fingerprint.field(&(item.id as u64).to_le_bytes());
        let Some(served) = outcome else {
            checked.fingerprint.field(b"panicked");
            checked.ok.push(false);
            continue;
        };
        let verdict = (served.score.valid, served.score.ex);
        checked
            .fingerprint
            .field(served.sql.as_bytes())
            .field(&[u8::from(verdict.0), u8::from(verdict.1)]);
        checked
            .ok
            .push(oracle_verdict(bench.db(item), item, &served.sql) == Some(verdict));
        checked.ex += usize::from(served.score.ex);
        checked.prompt_tokens += served.prompt_tokens;
    }
    checked
}

/// Fingerprint of the dev set's content (database, question, gold SQL),
/// without item ids, which depend on the pool size.
pub fn dev_fingerprint(bench: &Benchmark) -> Fnv {
    let mut h = Fnv::default();
    for item in &bench.dev {
        h.field(item.db_id.as_bytes())
            .field(item.question.as_bytes())
            .field(item.gold_sql.as_bytes());
    }
    h
}

/// Sizes and identities a run's numbers depend on.
pub fn context(workload: Workload, seed: u64, p: &Pipeline<'_>) -> Vec<(&'static str, String)> {
    let cfg = workload.config();
    let pool_rows = p.selector.pool_len();
    vec![
        ("workload", report::quoted(workload.name())),
        ("seed", seed.to_string()),
        ("held_out_seed", crate::HELD_OUT_SEED.to_string()),
        ("nproc", crate::nproc().to_string()),
        (
            "threads",
            std::env::var("DAIL_THREADS").expect("main sets DAIL_THREADS"),
        ),
        ("retrieval", report::quoted(workload.retrieval().as_str())),
        ("pool_rows", pool_rows.to_string()),
        (
            "matrix_bytes",
            (2 * pool_rows * textkit::DIM * std::mem::size_of::<f32>()).to_string(),
        ),
        ("synthetic_domains", cfg.synthetic_domains.to_string()),
        ("dev_items", p.bench.dev.len().to_string()),
        ("dev_fingerprint", dev_fingerprint(p.bench).hex()),
    ]
}

pub struct RunResult {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    pub info: Vec<(&'static str, String)>,
}

/// Serve passes, each after a set-up of its own, until the items' busy
/// time reaches `seconds` on the wall clock. Every pass starts from a
/// fresh selector, so its memo caches are as cold as the first pass's and
/// each prompt is new to the pipeline serving it. On the workloads the
/// host's drift slows, the probe runs after every item, outside the
/// item's timed span, and the timings are reported at the reference
/// speed; elsewhere they are reported as measured.
pub fn untraced(workload: Workload, seed: u64, seconds: f64) -> RunResult {
    let mut probe = workload.host_corrected().then(HostProbe::new);
    let mut item_ns: Vec<u64> = Vec::new();
    let mut probe_ns: Vec<u64> = Vec::new();
    // Each set-up's wall-clock time and the number of probes before it.
    let mut setups: Vec<(Duration, usize)> = Vec::new();
    let mut reference: Option<(Vec<Option<Served>>, Checked)> = None;
    let mut info = Vec::new();
    let mut failed = 0;
    while reference.is_none() || secs(&item_ns) < seconds {
        with_pipeline(workload, |p, times| {
            setups.push((times.total, probe_ns.len()));
            let pass = serve_pass(&p.ctx(seed), &p.predictor, &p.bench.dev, probe.as_mut());
            item_ns.extend_from_slice(&pass.item_ns);
            probe_ns.extend_from_slice(&pass.probe_ns);
            match &reference {
                None => {
                    let checked = check(p.bench, &pass.outcomes);
                    failed += checked.failed();
                    info = context(workload, seed, &p);
                    reference = Some((pass.outcomes, checked));
                }
                // Later passes must repeat the checked first pass exactly.
                Some((first, _)) => {
                    failed += first
                        .iter()
                        .zip(&pass.outcomes)
                        .filter(|(a, b)| match (a, b) {
                            (Some(a), Some(b)) => !a.same_as(b),
                            _ => true,
                        })
                        .count();
                }
            }
        });
    }
    while setups.len() < MIN_SETUPS {
        with_pipeline(workload, |_, times| {
            setups.push((times.total, probe_ns.len()))
        });
    }
    let setup_wall: Vec<Duration> = setups.iter().map(|&(wall, _)| wall).collect();
    let (corrected_ns, setup_corrected) = if probe.is_some() {
        (
            probe::corrected_items(&item_ns, &probe_ns),
            setups
                .iter()
                .map(|&(wall, at)| probe::corrected_setup(wall, &probe_ns, at))
                .collect(),
        )
    } else {
        (item_ns.clone(), setup_wall.clone())
    };
    let (_, checked) = reference.expect("at least one pass ran");
    let n = item_ns.len();
    let pass_len = checked.ok.len();
    let wall_ms = |q| report::pass_percentile_ms(&item_ns, pass_len, q);
    info.extend([
        ("prediction_fingerprint", checked.fingerprint.hex()),
        ("passes", (n / pass_len).to_string()),
        ("item_samples", n.to_string()),
        ("setups", setups.len().to_string()),
        ("host_corrected", probe.is_some().to_string()),
        (
            "probe_reference_ns",
            report::json_number(probe::REFERENCE_NS),
        ),
        (
            "probe_p50_ns",
            if probe_ns.is_empty() {
                "null".into()
            } else {
                report::percentile(&probe_ns, 0.50).to_string()
            },
        ),
        (
            "host_factor",
            report::json_number(secs(&corrected_ns) / secs(&item_ns)),
        ),
        (
            "wall_items_per_s",
            report::json_number(n as f64 / secs(&item_ns)),
        ),
        ("wall_item_p50_ms", report::json_number(wall_ms(0.50))),
        ("wall_item_p99_ms", report::json_number(wall_ms(0.99))),
        (
            "wall_setup_s",
            report::json_number(report::median_secs(&setup_wall)),
        ),
    ]);
    // The probe's table is the benchmark's, not the program's.
    let probe_mb = probe.map_or(0.0, |_| probe::TABLE_BYTES as f64 / (1024.0 * 1024.0));

    let mut metrics = Metrics::default();
    metrics.push("items_per_s", n as f64 / secs(&corrected_ns), "1/s");
    metrics.push(
        "item_p50_ms",
        report::pass_percentile_ms(&corrected_ns, pass_len, 0.50),
        "ms",
    );
    metrics.push(
        "item_p99_ms",
        report::pass_percentile_ms(&corrected_ns, pass_len, 0.99),
        "ms",
    );
    metrics.push("setup_s", report::median_secs(&setup_corrected), "s");
    metrics.push("peak_rss_mb", report::peak_rss_mb() - probe_mb, "MB");
    metrics.push("ex_pct", checked.ex_pct(), "%");
    metrics.push(
        "prompt_tokens_per_item",
        checked.prompt_tokens_per_item(),
        "tokens",
    );
    RunResult {
        metrics,
        attempted: n,
        failed,
        info,
    }
}

fn secs(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / 1e9
}
