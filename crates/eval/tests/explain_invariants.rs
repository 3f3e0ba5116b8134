//! Property tests for the EXPLAIN/ANALYZE accounting invariants, driven by
//! the benchmark generator's gold queries (the exact query population the
//! harness executes).
//!
//! Invariants under test:
//! - every operator's `rows_in` equals the summed `rows_out` of its row-input
//!   children (the `inputs` prefix of `children`; trailing children are
//!   attached condition subqueries);
//! - per-node self-times sum exactly to the plan total, and the total never
//!   exceeds the wall-clock measured around the call;
//! - the analyzed path returns byte-for-byte the same result set as the
//!   plain executor;
//! - when an enabled telemetry sink is current, the emitted `storage.exec`
//!   span's duration equals the plan's self-time total exactly.

use proptest::prelude::*;
use spider_gen::{Benchmark, BenchmarkConfig};
use std::sync::OnceLock;
use storage::{execute_query, execute_query_analyzed, Engine, Plan};

fn bench() -> &'static Benchmark {
    static BENCH: OnceLock<Benchmark> = OnceLock::new();
    BENCH.get_or_init(|| Benchmark::generate(BenchmarkConfig::tiny()))
}

fn assert_rows_flow(plan: &Plan) {
    for (i, n) in plan.nodes.iter().enumerate() {
        if n.inputs == 0 {
            continue;
        }
        let fed: u64 = n.children[..n.inputs]
            .iter()
            .map(|&c| plan.nodes[c].stats.rows_out)
            .sum();
        assert_eq!(
            n.stats.rows_in, fed,
            "node {i} ({}) rows_in != sum of input children rows_out",
            n.label
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rows-flow and self-time partition invariants hold for every gold
    /// query the generator emits.
    #[test]
    fn analyze_invariants_hold_on_gold_queries(idx in 0usize..1000) {
        let b = bench();
        let pool_len = b.dev.len() + b.train.len();
        let item = if idx % pool_len < b.dev.len() {
            &b.dev[idx % pool_len]
        } else {
            &b.train[idx % pool_len - b.dev.len()]
        };
        let db = b.db(item);

        let t0 = std::time::Instant::now();
        let an = execute_query_analyzed(
            db,
            &item.gold,
            Engine::default(),
            obskit::TraceContext::disabled(),
        )
        .expect("gold queries always execute");
        let elapsed_ns = t0.elapsed().as_nanos() as u64;

        // Rows flow through the operator tree without loss.
        assert_rows_flow(&an.plan);

        // Self-times partition the run: the per-node sum IS the total, and
        // the total is bounded by the wall-clock around the call.
        let summed: u64 = an.plan.nodes.iter().map(|n| n.stats.self_ns).sum();
        prop_assert_eq!(summed, an.plan.total_self_ns());
        prop_assert!(
            an.plan.total_self_ns() <= elapsed_ns,
            "self-time total {} exceeds wall-clock {}",
            an.plan.total_self_ns(),
            elapsed_ns
        );

        // The analyzed path is score-transparent: identical result set.
        let plain = execute_query(db, &item.gold).unwrap();
        prop_assert_eq!(&an.result.columns, &plain.columns);
        prop_assert_eq!(&an.result.rows, &plain.rows);

        // The root exec node passes the final result through.
        let root = &an.plan.nodes[an.plan.root];
        prop_assert_eq!(root.stats.rows_out, an.result.rows.len() as u64);
    }
}

/// With an enabled sink current, every analyzed execution emits a
/// `storage.exec` span whose duration equals the plan's self-time total
/// exactly — the plan provably accounts for the whole span.
#[test]
fn exec_span_duration_equals_self_time_total() {
    // This thread's own sink: tests running in parallel cannot emit into it.
    let rec = obskit::Recorder::enabled();
    let _sink = rec.enter();
    let b = bench();
    for item in b.dev.iter().take(10) {
        let before: Vec<obskit::Event> = rec.events();
        let an = execute_query_analyzed(
            b.db(item),
            &item.gold,
            Engine::default(),
            obskit::TraceContext::root(None),
        )
        .expect("gold queries always execute");
        let after = rec.events();
        let durs: Vec<u64> = after[before.len()..]
            .iter()
            .filter_map(|e| match e {
                obskit::Event::SpanEnd { name, dur_ns, .. } if name == "storage.exec" => {
                    Some(*dur_ns)
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            durs,
            vec![an.plan.total_self_ns()],
            "one storage.exec span, equal to the plan's self-time sum: {}",
            item.gold_sql
        );
    }
}
