//! The serving core: admission, cache routing, retry, worker pool,
//! outcomes.
//!
//! [`serve`] runs a batch of requests against any [`Predictor`] in two
//! steps: one pass over the requests in request order decides admission,
//! routes each admitted request through an LRU prediction cache, and fixes
//! each computation's attempt plan (retry with exponential backoff against
//! injected [`simllm::faults`] faults, under a per-request deadline); then
//! a worker pool runs every computation once.
//!
//! ## Determinism model
//!
//! Every number a serve-bench report prints must be identical across runs
//! *and across worker counts*, so the serving layer separates two clocks:
//!
//! * **Virtual time** drives everything reported, and the request-order
//!   pass decides all of it. Admission (shedding) comes from a
//!   deterministic single-server queueing model ([`AdmissionModel`]) fed
//!   with simulated per-request service times. The cache is an LRU map from
//!   key to computation: a resident key is served by its computation and
//!   billed the cache-hit cost, and any other key opens a new computation
//!   billed its full simulated service time. Latencies are simulated
//!   milliseconds derived purely from the request key, its fault plan, and
//!   backoff — never from wall clocks.
//! * **Real time** is only how the work gets done: worker threads take
//!   computations by index and run the predictor once each (under
//!   `catch_unwind` — a panicking predictor becomes a typed failure, never
//!   a crash), and the outcomes are assembled in request order. Real
//!   scheduling affects throughput of the benchmark process, not any
//!   reported number.
//!
//! The admission model is intentionally worker-count independent (one
//! nominal server with a buffer of `queue_capacity`): reports from
//! `--workers 1` and `--workers 8` are byte-identical and therefore
//! comparable.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use dail_core::{PredictCtx, Predictor};
use simllm::{FaultConfig, FaultInjector};
use spider_gen::ExampleItem;

/// Simulated service cost of a request served from the cache, in ms.
const CACHE_HIT_COST_MS: u64 = 1;
/// Maximum resident prediction-cache entries.
const CACHE_CAPACITY: usize = 4096;
/// Attempts per computation (1 = no retries).
const MAX_ATTEMPTS: u32 = 4;
/// Backoff before retry `n` is `BACKOFF_BASE_MS << (n - 1)` simulated ms.
const BACKOFF_BASE_MS: u64 = 25;
/// Per-request deadline on simulated service time, in ms.
const DEADLINE_MS: u64 = 2_000;

/// Configuration of the serving layer.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing predictions.
    pub workers: usize,
    /// Waiting slots of the admission model: a request that arrives while
    /// one request is in service and this many wait is shed.
    pub queue_capacity: usize,
    /// Question representation name, part of the cache key.
    pub repr: String,
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
            repr: "code".into(),
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

/// Prediction-cache counters, decided in request order on the virtual
/// clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Admitted requests that opened a computation: the first occurrence
    /// of a key, or the first after its entry was evicted.
    pub misses: u64,
    /// Admitted requests served by a resident entry's computation.
    pub served: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
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
    /// Model with `buffer` waiting slots ([`ServeConfig::queue_capacity`]).
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

/// How the cache routed one admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lookup {
    /// The key was not resident: the request opens computation `n`.
    Owner(usize),
    /// The key was resident: computation `n` serves the request.
    Shared(usize),
}

/// The prediction cache on the virtual clock: an LRU map from cache key to
/// the computation that serves it. Requests are routed in request order,
/// so the owner/shared split and every counter are pure functions of the
/// request stream.
struct VirtualCache<'k> {
    capacity: usize,
    /// Key → (tick of its last use, the computation serving it).
    entries: HashMap<&'k str, (u64, usize)>,
    tick: u64,
    stats: CacheStats,
}

impl<'k> VirtualCache<'k> {
    fn new(capacity: usize) -> VirtualCache<'k> {
        VirtualCache {
            capacity,
            entries: HashMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Route an admitted request for `key`. A resident key is served by
    /// its computation; any other key opens the next computation (they
    /// are numbered by miss), evicting the least-recently-used entry past
    /// capacity.
    fn route(&mut self, key: &'k str) -> Lookup {
        self.tick += 1;
        if let Some((last_used, computation)) = self.entries.get_mut(key) {
            *last_used = self.tick;
            self.stats.served += 1;
            return Lookup::Shared(*computation);
        }
        let computation = self.stats.misses as usize;
        self.stats.misses += 1;
        self.entries.insert(key, (self.tick, computation));
        if self.entries.len() > self.capacity {
            // Ticks are unique and `key` holds the newest, so the victim
            // is another key.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (last_used, _))| *last_used)
                .map(|(&k, _)| k)
                .expect("an over-capacity cache is not empty");
            self.entries.remove(victim);
            self.stats.evictions += 1;
        }
        Lookup::Owner(computation)
    }
}

/// Cache key: the full identity of a prediction.
pub fn cache_key(db_id: &str, question: &str, repr: &str) -> String {
    // The `|0` tail is the shot count the key once carried. The key's
    // bytes seed `base_cost_ms` and the fault plan, so dropping it would
    // move every simulated latency and fault, and every golden with them.
    format!("{db_id}|{question}|{repr}|0")
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
/// the simulated service time, and how the sequence ends. Pure in `key`
/// and the fault plan.
#[derive(Debug, Clone, Copy)]
struct AttemptSim {
    attempts: u32,
    service_ms: u64,
    kind: SimKind,
}

fn simulate_attempts(inj: &FaultInjector, key: &str) -> AttemptSim {
    let base = base_cost_ms(key);
    let mut total = 0u64;
    for attempt in 0..MAX_ATTEMPTS {
        if attempt > 0 {
            total += BACKOFF_BASE_MS << (attempt - 1);
        }
        let plan = inj.plan(key, attempt);
        total += base + plan.spike_ms;
        if total > DEADLINE_MS {
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
        attempts: MAX_ATTEMPTS,
        service_ms: total,
        kind: SimKind::Exhausted,
    }
}

/// A computation's terminal result, without per-request latency (each
/// request it serves reports its own simulated latency).
#[derive(Debug, Clone)]
enum Served {
    Ok { sql: String, attempts: u32 },
    Failed { attempts: u32 },
    DeadlineExceeded { attempts: u32 },
}

/// One run of the predictor's attempt plan, opened by the request the
/// cache routed as its owner.
struct Computation<'k> {
    key: &'k str,
    item_idx: usize,
    sim: AttemptSim,
    /// Trace context of the owning request (the requests the cache routes
    /// to this computation share the owner's attempt spans).
    trace: obskit::TraceContext,
    /// Set once, by the worker that runs the computation.
    served: OnceLock<Served>,
}

/// Serve a batch of requests against `predictor`.
///
/// `items` is the dev pool; each request names an item by index. Returns
/// one [`Outcome`] per request plus aggregate [`ServeStats`]. Every
/// reported number is deterministic given the request stream and config —
/// independent of worker count and thread scheduling.
///
/// Telemetry goes to the caller's current obskit sink: every worker enters
/// it, and this thread records the per-tenant windowed writes
/// (`servekit.requests`, `servekit.latency_ms`, `servekit.retry`) in
/// request order.
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
    let keys: Vec<String> = reqs
        .iter()
        .map(|req| {
            let item = &items[req.item_idx];
            let question = if ctx.realistic {
                &item.question_realistic
            } else {
                &item.question
            };
            cache_key(&item.db_id, question, &cfg.repr)
        })
        .collect();
    let mut admission = AdmissionModel::new(cfg.queue_capacity);
    let mut cache = VirtualCache::new(CACHE_CAPACITY);
    let mut stats = ServeStats {
        submitted: reqs.len() as u64,
        ..ServeStats::default()
    };
    // The computation serving each request (`None`: shed), in request order.
    let mut routes: Vec<Option<usize>> = Vec::with_capacity(reqs.len());
    let mut computations: Vec<Computation<'_>> = Vec::new();
    // Per-request trace state: the `servekit.request` root span (held
    // open until outcomes are assembled) and the context children hang
    // off. Both indexed by request order.
    let mut req_spans: Vec<obskit::Span> = Vec::with_capacity(reqs.len());
    let mut traces: Vec<obskit::TraceContext> = Vec::with_capacity(reqs.len());
    let mut sampled_count = 0u64;

    // The request-order pass: admission, cache routing and every
    // computation's attempt plan, which is what makes every counter
    // deterministic.
    for (i, req) in reqs.iter().enumerate() {
        let sampled =
            obskit::enabled() && obskit::trace::sample(cfg.faults.seed, i as u64, cfg.trace_sample);
        sampled_count += u64::from(sampled);
        let root = obskit::TraceContext::root(i as u64, sampled, serve_span_id);
        let (req_span, rctx) = root.span("servekit.request");
        req_spans.push(req_span);
        traces.push(rctx);

        let key = keys[i].as_str();
        // A resident key costs a cache hit; any other key runs (and is
        // billed) its whole attempt plan.
        let sim = (!cache.entries.contains_key(key)).then(|| simulate_attempts(&inj, key));
        let service_ms = sim.map_or(CACHE_HIT_COST_MS, |s| s.service_ms);
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
        if sink.is_enabled() {
            sink.add_counter_at(
                "servekit.requests",
                &[
                    ("db", items[req.item_idx].db_id.as_str()),
                    ("outcome", if offered.is_some() { "admit" } else { "shed" }),
                    ("tenant", &format!("t{}", req.tenant)),
                ],
                req.arrival_ms,
                1,
            );
        }
        let Some(wait_ms) = offered else {
            stats.shed += 1;
            routes.push(None);
            continue;
        };
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
        let lookup = {
            let (_cache_span, cctx) = rctx.span("servekit.cache_lookup");
            let lookup = cache.route(key);
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
            lookup
        };
        routes.push(Some(match lookup {
            Lookup::Owner(n) => {
                computations.push(Computation {
                    key,
                    item_idx: req.item_idx,
                    sim: sim.expect("a key that was not resident has its attempt plan"),
                    trace: rctx,
                    served: OnceLock::new(),
                });
                n
            }
            Lookup::Shared(n) => n,
        }));
    }
    stats.makespan_ms = admission.makespan_ms();
    stats.cache = cache.stats;

    // The worker pool: each worker takes the next computation index until
    // none is left. The index publishes nothing; each result is set once,
    // and the scope's join makes it visible here.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..cfg.workers.max(1) {
            scope.spawn(|| {
                let _sink = sink.enter();
                while let Some(c) = computations.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let served = run_attempts(predictor, ctx, &items[c.item_idx], &inj, c);
                    c.served.set(served).expect("each computation runs once");
                }
            });
        }
    });
    let mut served: Vec<Served> = Vec::with_capacity(computations.len());
    for c in computations {
        let s = c.served.into_inner().expect("every computation ran");
        stats.retries += u64::from(c.sim.attempts - 1);
        // The simulation said success but the predictor panicked: count
        // it (the report asserts zero).
        if matches!(s, Served::Failed { .. }) && matches!(c.sim.kind, SimKind::Success { .. }) {
            stats.panics += 1;
        }
        served.push(s);
    }

    let mut outcomes = Vec::with_capacity(reqs.len());
    let mut admitted_idx = 0usize;
    for (i, route) in routes.iter().enumerate() {
        let Some(n) = *route else {
            outcomes.push(Outcome::Overloaded);
            continue;
        };
        let latency_ms = stats.total_ms[admitted_idx];
        admitted_idx += 1;
        let outcome = match &served[n] {
            Served::Ok { sql, attempts } => {
                stats.ok += 1;
                Outcome::Ok {
                    sql: sql.clone(),
                    latency_ms,
                    attempts: *attempts,
                }
            }
            Served::Failed { attempts } => {
                stats.failed += 1;
                Outcome::Failed {
                    latency_ms,
                    attempts: *attempts,
                }
            }
            Served::DeadlineExceeded { attempts } => {
                stats.deadline_exceeded += 1;
                Outcome::DeadlineExceeded {
                    latency_ms,
                    attempts: *attempts,
                }
            }
        };
        if sink.is_enabled() {
            let req = &reqs[i];
            let tenant = format!("t{}", req.tenant);
            // Completion time on the virtual clock: arrival plus
            // the simulated end-to-end latency.
            let done_ms = req.arrival_ms + latency_ms;
            sink.observe_at(
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
            // `servekit.retry{tenant}` counts per *served request*:
            // `attempts - 1` at its completion, where a request the cache
            // served reports its computation's attempts. It is not the
            // `servekit.retries` counter, which counts retried attempts
            // once per unique computation.
            if attempts > 1 {
                sink.add_counter_at(
                    "servekit.retry",
                    &[("tenant", &tenant)],
                    done_ms,
                    u64::from(attempts - 1),
                );
            }
        }
        outcomes.push(outcome);
    }

    // Close every request span before the batch span: outcomes are
    // assembled, so the per-request trees are complete.
    drop(req_spans);

    if sink.is_enabled() {
        sink.add_counter("servekit.submitted", stats.submitted);
        sink.add_counter("servekit.admitted", stats.admitted);
        sink.add_counter("servekit.shed", stats.shed);
        sink.add_counter("servekit.failed.retries_exhausted", stats.failed);
        sink.add_counter("servekit.failed.deadline_exceeded", stats.deadline_exceeded);
        sink.add_counter("servekit.trace.sampled", sampled_count);
        sink.add_counter("servekit.trace.unsampled", stats.submitted - sampled_count);
        // Retried attempts per unique computation (a request the cache
        // served adds nothing); see `servekit.retry` above for the
        // per-request series.
        sink.add_counter("servekit.retries", stats.retries);
        sink.add_counter("servekit.panics", stats.panics);
        // A cache counter exists once it has counted a lookup.
        for (name, n) in [
            ("servekit.cache.served", stats.cache.served),
            ("servekit.cache.miss", stats.cache.misses),
            ("servekit.cache.evictions", stats.cache.evictions),
        ] {
            if n > 0 {
                sink.add_counter(name, n);
            }
        }
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

/// Execute the simulated attempt sequence of one computation: run the
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
    work: &Computation<'_>,
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
                        inj.corrupt_sql(&pred.sql, work.key, attempts - 1)
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
            spike_ms: 1_000,
            corrupt_rate: 0.0,
        });
        let mut deadlines = 0;
        for key in ["a", "b", "c", "d", "e", "f", "g", "h"] {
            let x = simulate_attempts(&inj, key);
            let y = simulate_attempts(&inj, key);
            assert_eq!(x.attempts, y.attempts);
            assert_eq!(x.service_ms, y.service_ms);
            assert_eq!(x.kind, y.kind);
            if x.kind == SimKind::Deadline {
                assert!(x.service_ms > DEADLINE_MS);
                deadlines += 1;
            } else {
                assert!(x.service_ms <= DEADLINE_MS);
            }
            assert!(x.attempts >= 1 && x.attempts <= MAX_ATTEMPTS);
        }
        assert!(deadlines > 0, "two spikes run past the deadline");
    }

    #[test]
    fn cache_key_separates_all_components() {
        let base = cache_key("db", "q", "code");
        assert_ne!(base, cache_key("db2", "q", "code"));
        assert_ne!(base, cache_key("db", "q2", "code"));
        assert_ne!(base, cache_key("db", "q", "text"));
    }

    #[test]
    fn second_lookup_is_served_by_the_first_computation() {
        let mut cache = VirtualCache::new(8);
        assert!(!cache.entries.contains_key("k"));
        assert_eq!(cache.route("k"), Lookup::Owner(0));
        assert!(cache.entries.contains_key("k"));
        assert_eq!(cache.route("k"), Lookup::Shared(0));
        let s = cache.stats;
        assert_eq!((s.misses, s.served, s.evictions), (1, 1, 0));
    }

    #[test]
    fn lru_evicts_least_recently_used_entry() {
        let mut cache = VirtualCache::new(2);
        assert_eq!(cache.route("a"), Lookup::Owner(0));
        assert_eq!(cache.route("b"), Lookup::Owner(1));
        // Touch "a" so "b" becomes LRU, then overflow with "c".
        assert_eq!(cache.route("a"), Lookup::Shared(0));
        assert_eq!(cache.route("c"), Lookup::Owner(2));
        assert_eq!(cache.stats.evictions, 1);
        assert_eq!(cache.entries.len(), 2);
        assert_eq!(cache.route("a"), Lookup::Shared(0), "a survived");
        assert!(!cache.entries.contains_key("b"));
        assert_eq!(
            cache.route("b"),
            Lookup::Owner(3),
            "b was evicted: a new computation"
        );
    }
}
