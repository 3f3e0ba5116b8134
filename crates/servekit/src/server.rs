//! The serving core: admission, worker pool, retry, cache, outcomes.
//!
//! [`serve`] runs a batch of requests against any [`Predictor`] behind a
//! bounded queue and a worker pool, with per-request deadlines, retry with
//! exponential backoff against injected [`simllm::faults`] faults, and an
//! LRU prediction cache with request coalescing.
//!
//! ## Determinism model
//!
//! Every number a serve-bench report prints must be identical across runs
//! *and across worker counts*, so the serving layer separates two clocks:
//!
//! * **Virtual time** drives everything reported. Admission (shedding) is
//!   decided by a deterministic single-server queueing model
//!   ([`AdmissionModel`]) fed with simulated per-request service times;
//!   latencies are simulated milliseconds derived purely from the request
//!   key, its fault plan, and backoff — never from wall clocks.
//! * **Real time** is only how the work gets done: requests genuinely flow
//!   through the bounded queue into real worker threads that run the
//!   predictor (under `catch_unwind` — a panicking predictor becomes a
//!   typed failure, never a crash). Real scheduling affects throughput of
//!   the benchmark process, not any reported number.
//!
//! The admission model is intentionally worker-count independent (one
//! nominal server with a buffer of `queue_capacity`): reports from
//! `--workers 1` and `--workers 8` are byte-identical and therefore
//! comparable. Real backpressure on the bounded queue is still exercised —
//! producers block on a full queue, and [`BoundedQueue::try_push`] gives
//! the non-blocking shed path (unit-tested in this crate).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dail_core::{PredictCtx, Predictor};
use simllm::{FaultConfig, FaultInjector};
use spider_gen::ExampleItem;

use crate::cache::{CacheStats, Lookup, PredictionCache, Slot};
use crate::queue::BoundedQueue;

/// Simulated service cost of a request served from the cache, in ms.
const CACHE_HIT_COST_MS: u64 = 1;

/// Configuration of the serving layer.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing predictions.
    pub workers: usize,
    /// Bounded work-queue capacity (also the admission-model buffer).
    pub queue_capacity: usize,
    /// Maximum resident prediction-cache entries.
    pub cache_capacity: usize,
    /// Attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff_base_ms << (n - 1)` simulated ms.
    pub backoff_base_ms: u64,
    /// Per-request deadline on simulated service time, in ms.
    pub deadline_ms: u64,
    /// Scale simulated service time into real sleeps (0.0 = don't sleep;
    /// useful to watch the pool under realistic pacing).
    pub time_scale: f64,
    /// Question representation name, part of the cache key.
    pub repr: String,
    /// Few-shot example count, part of the cache key.
    pub shots: usize,
    /// Fault-injection knobs applied to every attempt.
    pub faults: FaultConfig,
    /// Head-sampling rate for request traces in `[0, 1]`. The decision
    /// is deterministic per request (`obskit::trace::sample` keyed on
    /// `faults.seed` and the request index), so the same seed always
    /// traces the same requests. Only consulted when an enabled obskit
    /// sink is current; never affects any served outcome.
    pub trace_sample: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 32,
            cache_capacity: 4096,
            max_attempts: 4,
            backoff_base_ms: 25,
            deadline_ms: 2_000,
            time_scale: 0.0,
            repr: "code".into(),
            shots: 0,
            faults: FaultConfig::default(),
            trace_sample: 1.0,
        }
    }
}

/// Terminal result of one served request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A prediction was produced.
    Ok {
        /// The served SQL (possibly fault-corrupted).
        sql: String,
        /// Simulated end-to-end latency (queue wait + service), in ms.
        latency_ms: u64,
        /// Attempts consumed, including the successful one.
        attempts: u32,
    },
    /// Shed at admission: the system was over capacity.
    Overloaded,
    /// The retry sequence ran past the deadline.
    DeadlineExceeded {
        /// Simulated end-to-end latency at the point of expiry, in ms.
        latency_ms: u64,
        /// Attempts consumed before expiry.
        attempts: u32,
    },
    /// Every attempt drew a transient fault (or the predictor panicked).
    Failed {
        /// Simulated end-to-end latency across all attempts, in ms.
        latency_ms: u64,
        /// Attempts consumed.
        attempts: u32,
    },
}

/// One request in a batch: which dev item, and when it arrives (virtual ms).
#[derive(Debug, Clone, Copy)]
pub struct ServeReq {
    /// Index into the `items` slice passed to [`serve`].
    pub item_idx: usize,
    /// Arrival time on the virtual clock, in ms.
    pub arrival_ms: u64,
    /// Tenant id for per-tenant metrics slicing (rendered `t{n}` in
    /// [`obskit::tsdb`] labels). Purely an observability dimension: it
    /// never affects admission, scheduling or the served result.
    pub tenant: u32,
}

/// Aggregate counters for one [`serve`] batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests offered.
    pub submitted: u64,
    /// Requests admitted past the load-shedder.
    pub admitted: u64,
    /// Requests shed with [`Outcome::Overloaded`].
    pub shed: u64,
    /// Requests resolved [`Outcome::Ok`].
    pub ok: u64,
    /// Requests resolved [`Outcome::Failed`].
    pub failed: u64,
    /// Requests resolved [`Outcome::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Retried attempts across all unique computations.
    pub retries: u64,
    /// Predictor panics caught (reported, never propagated).
    pub panics: u64,
    /// Cache counters.
    pub cache: CacheStats,
    /// Simulated queue-wait per admitted request, in request order.
    pub wait_ms: Vec<u64>,
    /// Simulated service time per admitted request, in request order.
    pub service_ms: Vec<u64>,
    /// Simulated total latency per admitted request, in request order.
    pub total_ms: Vec<u64>,
    /// Virtual time at which the last admitted request completes.
    pub makespan_ms: u64,
}

/// Outcomes plus stats for one [`serve`] batch.
#[derive(Debug)]
pub struct ServeOutput {
    /// One outcome per input request, in input order.
    pub outcomes: Vec<Outcome>,
    /// Aggregate counters.
    pub stats: ServeStats,
    /// One trace context per input request, in input order, parented
    /// under that request's `servekit.request` span. Callers use these
    /// to attach post-serve work (e.g. EX scoring) to the request tree;
    /// unsampled requests carry a no-op context.
    pub traces: Vec<obskit::TraceContext>,
}

/// Deterministic single-server admission model driven by the virtual
/// clock. A request is shed when the model's system (one in service +
/// `buffer` waiting) is full at its arrival; otherwise it reports the
/// simulated queueing delay. Worker count deliberately does not appear —
/// see the module docs.
pub struct AdmissionModel {
    buffer: usize,
    finish_times: std::collections::VecDeque<u64>,
    last_finish: u64,
}

impl AdmissionModel {
    /// Model with `buffer` waiting slots (the real queue's capacity).
    pub fn new(buffer: usize) -> AdmissionModel {
        AdmissionModel {
            buffer: buffer.max(1),
            finish_times: std::collections::VecDeque::new(),
            last_finish: 0,
        }
    }

    /// Offer a request arriving at `arrival_ms` needing `service_ms`.
    /// Returns the simulated queue wait, or `None` to shed.
    pub fn offer(&mut self, arrival_ms: u64, service_ms: u64) -> Option<u64> {
        while let Some(&f) = self.finish_times.front() {
            if f <= arrival_ms {
                self.finish_times.pop_front();
            } else {
                break;
            }
        }
        if self.finish_times.len() > self.buffer {
            return None;
        }
        let start = arrival_ms.max(self.last_finish);
        let finish = start + service_ms;
        self.last_finish = finish;
        self.finish_times.push_back(finish);
        Some(start - arrival_ms)
    }

    /// Virtual completion time of the last admitted request.
    pub fn makespan_ms(&self) -> u64 {
        self.last_finish
    }
}

/// Cache key: the full identity of a prediction.
pub fn cache_key(db_id: &str, question: &str, repr: &str, shots: usize) -> String {
    format!("{db_id}|{question}|{repr}|{shots}")
}

fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Baseline simulated service cost of computing one prediction, in ms.
fn base_cost_ms(key: &str) -> u64 {
    20 + fnv(key) % 45
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimKind {
    Success { corrupt: bool },
    Exhausted,
    Deadline,
}

/// The full simulated attempt sequence for one key: how many attempts run,
/// the simulated service time, and how the sequence ends. Pure in
/// `(key, cfg)`, so admission (load-gen thread) and execution (worker
/// threads) agree without communicating.
#[derive(Debug, Clone, Copy)]
struct AttemptSim {
    attempts: u32,
    service_ms: u64,
    kind: SimKind,
}

fn simulate_attempts(inj: &FaultInjector, key: &str, cfg: &ServeConfig) -> AttemptSim {
    let base = base_cost_ms(key);
    let mut total = 0u64;
    let max_attempts = cfg.max_attempts.max(1);
    for attempt in 0..max_attempts {
        if attempt > 0 {
            total += cfg.backoff_base_ms << (attempt - 1);
        }
        let plan = inj.plan(key, attempt);
        total += base + plan.spike_ms;
        if total > cfg.deadline_ms {
            return AttemptSim {
                attempts: attempt + 1,
                service_ms: total,
                kind: SimKind::Deadline,
            };
        }
        if !plan.transient_error {
            return AttemptSim {
                attempts: attempt + 1,
                service_ms: total,
                kind: SimKind::Success {
                    corrupt: plan.corrupt,
                },
            };
        }
    }
    AttemptSim {
        attempts: max_attempts,
        service_ms: total,
        kind: SimKind::Exhausted,
    }
}

/// Cache value: the key's terminal result, without per-request latency
/// (each duplicate reports its own simulated latency).
#[derive(Debug, Clone)]
enum Served {
    Ok { sql: String, attempts: u32 },
    Failed { attempts: u32 },
    DeadlineExceeded { attempts: u32 },
}

struct WorkItem {
    key: String,
    item_idx: usize,
    sim: AttemptSim,
    slot: Arc<Slot<Served>>,
    /// Trace context of the request that *owns* this computation
    /// (coalesced duplicates share the owner's attempt spans).
    trace: obskit::TraceContext,
}

/// How each request was routed at submission time.
enum Route {
    Shed,
    Cached(Arc<Slot<Served>>),
}

/// Serve a batch of requests against `predictor`.
///
/// `items` is the dev pool; each request names an item by index. Returns
/// one [`Outcome`] per request plus aggregate [`ServeStats`]. Every
/// reported number is deterministic given the request stream and config —
/// independent of worker count and thread scheduling.
///
/// Telemetry goes to the caller's current obskit sink: every worker enters
/// it, and its windowed store (if any) gets the per-tenant series.
pub fn serve(
    predictor: &(dyn Predictor + Sync),
    ctx: &PredictCtx<'_>,
    items: &[ExampleItem],
    reqs: &[ServeReq],
    cfg: &ServeConfig,
) -> ServeOutput {
    let sink = obskit::current();
    let span = sink.span("servekit.serve");
    let serve_span_id = span.id();

    let inj = FaultInjector::new(cfg.faults);
    let cache: PredictionCache<Served> = PredictionCache::new(cfg.cache_capacity);
    let queue: BoundedQueue<WorkItem> = BoundedQueue::new(cfg.queue_capacity);
    let mut admission = AdmissionModel::new(cfg.queue_capacity);
    let retries = AtomicU64::new(0);
    let panics = AtomicU64::new(0);

    let mut stats = ServeStats {
        submitted: reqs.len() as u64,
        ..ServeStats::default()
    };
    let mut routes: Vec<Route> = Vec::with_capacity(reqs.len());
    // Per-request trace state: the `servekit.request` root span (held
    // open until outcomes are assembled) and the context children hang
    // off. Both indexed by request order.
    let mut req_spans: Vec<obskit::Span> = Vec::with_capacity(reqs.len());
    let mut traces: Vec<obskit::TraceContext> = Vec::with_capacity(reqs.len());
    let mut sampled_count = 0u64;
    // Simulated service time of each key's *first admitted* occurrence;
    // duplicates cost [`CACHE_HIT_COST_MS`]. Tracked independently of the
    // cache so admission stays a pure function of the request stream.
    let mut first_admitted: HashMap<&str, ()> = HashMap::new();
    let mut keys: Vec<String> = Vec::with_capacity(reqs.len());
    for req in reqs {
        let item = &items[req.item_idx];
        let question = if ctx.realistic {
            &item.question_realistic
        } else {
            &item.question
        };
        keys.push(cache_key(&item.db_id, question, &cfg.repr, cfg.shots));
    }

    std::thread::scope(|scope| {
        for _ in 0..cfg.workers.max(1) {
            let queue = &queue;
            let inj = &inj;
            let retries = &retries;
            let panics = &panics;
            let sink = &sink;
            scope.spawn(move || {
                let _sink = sink.enter();
                while let Some(work) = queue.pop() {
                    let served =
                        run_attempts(predictor, ctx, &items[work.item_idx], inj, &work, cfg);
                    retries.fetch_add(u64::from(work.sim.attempts - 1), Ordering::Relaxed);
                    if cfg.time_scale > 0.0 {
                        let ms = (work.sim.service_ms as f64 * cfg.time_scale) as u64;
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                    if matches!(served, Served::Failed { .. })
                        && matches!(work.sim.kind, SimKind::Success { .. })
                    {
                        // The simulation said success but the predictor
                        // panicked: count it (the report asserts zero).
                        panics.fetch_add(1, Ordering::Relaxed);
                    }
                    work.slot.fill(served);
                }
            });
        }

        // Submit sequentially on this thread: admission and cache routing
        // happen in request order, which is what makes every counter
        // deterministic.
        for (i, req) in reqs.iter().enumerate() {
            let sampled = obskit::enabled()
                && obskit::trace::sample(cfg.faults.seed, i as u64, cfg.trace_sample);
            sampled_count += u64::from(sampled);
            let root = obskit::TraceContext::root(i as u64, sampled, serve_span_id);
            let (req_span, rctx) = root.span("servekit.request");
            req_spans.push(req_span);
            traces.push(rctx);

            let key = keys[i].as_str();
            let is_first = !first_admitted.contains_key(key);
            let service_ms = if is_first {
                simulate_attempts(&inj, key, cfg).service_ms
            } else {
                CACHE_HIT_COST_MS
            };
            let offered = {
                let (_adm_span, actx) = rctx.span("servekit.admission");
                let offered = admission.offer(req.arrival_ms, service_ms);
                actx.meta(
                    "servekit.admission.decision",
                    &[
                        ("request", i.to_string()),
                        (
                            "decision",
                            if offered.is_some() { "admit" } else { "shed" }.to_string(),
                        ),
                    ],
                );
                offered
            };
            sink.tsdb(|t| {
                t.counter(
                    "servekit.requests",
                    &[
                        ("db", items[req.item_idx].db_id.as_str()),
                        ("outcome", if offered.is_some() { "admit" } else { "shed" }),
                        ("tenant", &format!("t{}", req.tenant)),
                    ],
                    req.arrival_ms,
                    1,
                )
            });
            let Some(wait_ms) = offered else {
                stats.shed += 1;
                routes.push(Route::Shed);
                continue;
            };
            first_admitted.insert(key, ());
            stats.admitted += 1;
            stats.wait_ms.push(wait_ms);
            stats.service_ms.push(service_ms);
            stats.total_ms.push(wait_ms + service_ms);
            {
                // Simulated queue wait: the span records the structure
                // (its duration is wall-clock; `wait_ms` is the number
                // every report uses).
                let (_wait_span, wctx) = rctx.span("servekit.queue_wait");
                wctx.meta(
                    "servekit.queue_wait.simulated",
                    &[("wait_ms", wait_ms.to_string())],
                );
            }
            let (cache_span, cctx) = rctx.span("servekit.cache_lookup");
            let lookup = cache.begin(key);
            cctx.meta(
                "servekit.cache_lookup.route",
                &[(
                    "route",
                    match lookup {
                        Lookup::Owner(_) => "owner",
                        Lookup::Shared(_) => "shared",
                    }
                    .to_string(),
                )],
            );
            drop(cache_span);
            match lookup {
                Lookup::Owner(slot) => {
                    let work = WorkItem {
                        key: key.to_string(),
                        item_idx: req.item_idx,
                        sim: simulate_attempts(&inj, key, cfg),
                        slot: Arc::clone(&slot),
                        trace: rctx,
                    };
                    // Blocking push: real backpressure. Shedding was
                    // already decided by the admission model above.
                    if queue.push(work).is_err() {
                        unreachable!("queue closed while submitting");
                    }
                    routes.push(Route::Cached(slot));
                }
                Lookup::Shared(slot) => routes.push(Route::Cached(slot)),
            }
        }
        queue.close();
    });

    stats.makespan_ms = admission.makespan_ms();
    stats.retries = retries.load(Ordering::Relaxed);
    stats.panics = panics.load(Ordering::Relaxed);
    stats.cache = cache.stats();

    // All workers have joined, so every slot is filled; assemble outcomes.
    let mut outcomes = Vec::with_capacity(reqs.len());
    let mut admitted_idx = 0usize;
    for (i, route) in routes.iter().enumerate() {
        match route {
            Route::Shed => outcomes.push(Outcome::Overloaded),
            Route::Cached(slot) => {
                let latency_ms = stats.total_ms[admitted_idx];
                admitted_idx += 1;
                let outcome = match slot.wait() {
                    Served::Ok { sql, attempts } => {
                        stats.ok += 1;
                        Outcome::Ok {
                            sql,
                            latency_ms,
                            attempts,
                        }
                    }
                    Served::Failed { attempts } => {
                        stats.failed += 1;
                        Outcome::Failed {
                            latency_ms,
                            attempts,
                        }
                    }
                    Served::DeadlineExceeded { attempts } => {
                        stats.deadline_exceeded += 1;
                        Outcome::DeadlineExceeded {
                            latency_ms,
                            attempts,
                        }
                    }
                };
                sink.tsdb(|t| {
                    let req = &reqs[i];
                    let tenant = format!("t{}", req.tenant);
                    // Completion time on the virtual clock: arrival plus
                    // the simulated end-to-end latency.
                    let done_ms = req.arrival_ms + latency_ms;
                    t.observe(
                        "servekit.latency_ms",
                        &[
                            ("db", items[req.item_idx].db_id.as_str()),
                            ("tenant", &tenant),
                        ],
                        done_ms,
                        latency_ms,
                        traces[i].is_recording().then_some(i as u64),
                    );
                    let attempts = match &outcome {
                        Outcome::Ok { attempts, .. }
                        | Outcome::Failed { attempts, .. }
                        | Outcome::DeadlineExceeded { attempts, .. } => *attempts,
                        Outcome::Overloaded => 1,
                    };
                    if attempts > 1 {
                        t.counter(
                            "servekit.retry",
                            &[("tenant", &tenant)],
                            done_ms,
                            u64::from(attempts - 1),
                        );
                    }
                });
                outcomes.push(outcome);
            }
        }
    }

    // Close every request span before the batch span: outcomes are
    // assembled, so the per-request trees are complete.
    drop(req_spans);

    if sink.is_enabled() {
        sink.add_counter("servekit.submitted", stats.submitted);
        sink.add_counter("servekit.admitted", stats.admitted);
        sink.add_counter("servekit.shed", stats.shed);
        sink.add_counter("servekit.shed.queue_full", stats.shed);
        sink.add_counter("servekit.failed.retries_exhausted", stats.failed);
        sink.add_counter("servekit.failed.deadline_exceeded", stats.deadline_exceeded);
        sink.add_counter("servekit.trace.sampled", sampled_count);
        sink.add_counter("servekit.trace.unsampled", stats.submitted - sampled_count);
        sink.add_counter("servekit.retries", stats.retries);
        sink.add_counter("servekit.panics", stats.panics);
        for &w in &stats.wait_ms {
            sink.observe("servekit.latency.wait_ms", w);
        }
        for &s in &stats.service_ms {
            sink.observe("servekit.latency.service_ms", s);
        }
        for &t in &stats.total_ms {
            sink.observe("servekit.latency.total_ms", t);
        }
    }
    drop(span);

    ServeOutput {
        outcomes,
        stats,
        traces,
    }
}

/// Execute the simulated attempt sequence for one unique key: run the
/// predictor once on success (under `catch_unwind`), apply the corruption
/// fault, and map deadline/exhaustion to typed failures.
///
/// When the owning request is traced, every simulated attempt opens a
/// `servekit.attempt` span under the request span, and the predictor runs
/// under the *final* attempt's context so the whole pipeline (prompt
/// build, selection, model call) lands inside that attempt's subtree.
fn run_attempts(
    predictor: &(dyn Predictor + Sync),
    ctx: &PredictCtx<'_>,
    item: &ExampleItem,
    inj: &FaultInjector,
    work: &WorkItem,
    _cfg: &ServeConfig,
) -> Served {
    let attempts = work.sim.attempts;
    // Spans for the attempts that drew a transient fault (or ran past the
    // deadline): open-and-close, purely structural.
    let faulted_attempts = match work.sim.kind {
        SimKind::Success { .. } => attempts - 1,
        SimKind::Deadline | SimKind::Exhausted => attempts,
    };
    for n in 0..faulted_attempts {
        let (_attempt_span, actx) = work.trace.span("servekit.attempt");
        actx.meta(
            "servekit.attempt.outcome",
            &[
                ("attempt", n.to_string()),
                (
                    "outcome",
                    match work.sim.kind {
                        SimKind::Deadline if n + 1 == attempts => "deadline",
                        _ => "transient_error",
                    }
                    .to_string(),
                ),
            ],
        );
    }
    match work.sim.kind {
        SimKind::Deadline => Served::DeadlineExceeded { attempts },
        SimKind::Exhausted => Served::Failed { attempts },
        SimKind::Success { corrupt } => {
            let (_attempt_span, actx) = work.trace.span("servekit.attempt");
            let traced_ctx = PredictCtx {
                trace: actx,
                ..*ctx
            };
            match catch_unwind(AssertUnwindSafe(|| predictor.predict(&traced_ctx, item))) {
                Ok(pred) => {
                    let sql = if corrupt {
                        inj.corrupt_sql(&pred.sql, &work.key, attempts - 1)
                    } else {
                        pred.sql
                    };
                    Served::Ok { sql, attempts }
                }
                // A panicking predictor becomes a typed failure; the
                // caller counts it so the report can assert "panics: 0".
                Err(_) => Served::Failed { attempts },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_model_sheds_when_system_is_full() {
        let mut m = AdmissionModel::new(2);
        // All arrive at t=0 with 100ms service: 1 in service + 2 waiting
        // admitted, the rest shed.
        assert_eq!(m.offer(0, 100), Some(0));
        assert_eq!(m.offer(0, 100), Some(100));
        assert_eq!(m.offer(0, 100), Some(200));
        assert_eq!(m.offer(0, 100), None);
        // After the backlog drains, admission resumes.
        assert_eq!(m.offer(150, 100), Some(150), "one slot freed at t=100");
        assert_eq!(m.offer(1000, 50), Some(0), "idle system admits instantly");
        assert_eq!(m.makespan_ms(), 1050);
    }

    #[test]
    fn simulated_attempts_are_pure_and_respect_deadline() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 7,
            error_rate: 0.9,
            spike_rate: 0.5,
            spike_ms: 400,
            corrupt_rate: 0.0,
        });
        let cfg = ServeConfig {
            deadline_ms: 500,
            ..ServeConfig::default()
        };
        for key in ["a", "b", "c", "d", "e", "f", "g", "h"] {
            let x = simulate_attempts(&inj, key, &cfg);
            let y = simulate_attempts(&inj, key, &cfg);
            assert_eq!(x.attempts, y.attempts);
            assert_eq!(x.service_ms, y.service_ms);
            assert_eq!(x.kind, y.kind);
            if x.kind == SimKind::Deadline {
                assert!(x.service_ms > cfg.deadline_ms);
            }
            assert!(x.attempts >= 1 && x.attempts <= cfg.max_attempts);
        }
    }

    #[test]
    fn cache_key_separates_all_components() {
        let base = cache_key("db", "q", "code", 5);
        assert_ne!(base, cache_key("db2", "q", "code", 5));
        assert_ne!(base, cache_key("db", "q2", "code", 5));
        assert_ne!(base, cache_key("db", "q", "text", 5));
        assert_ne!(base, cache_key("db", "q", "code", 0));
    }
}
