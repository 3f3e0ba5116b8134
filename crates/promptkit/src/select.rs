//! Example selection strategies for few-shot prompting.
//!
//! The paper compares four strategies plus DAIL selection:
//!
//! * `Random` — uniform sample from the training pool;
//! * `QTS` — question text similarity (embedding cosine);
//! * `MQS` — *masked* question similarity (domain words masked first);
//! * `QRS` — query similarity: rank by skeleton similarity between the
//!   example's gold query and a *preliminary* predicted query for the target;
//! * `Dail` — DAIL selection: masked-question similarity ranking, filtered
//!   and re-ranked by query-skeleton similarity, capturing both the question
//!   intent and the (estimated) target SQL shape.
//!
//! Scoring runs on `retrievekit`: pool embeddings live in contiguous
//! [`EmbeddingMatrix`] storage scored by the blocked `f32` kernel, the
//! best `k` are kept by a bounded heap instead of a full sort, and target
//! features are memoized in a [`FeatureCache`] so the experiment grids
//! embed each target once instead of once per strategy. Results are
//! identical to the pre-optimization selector (ties and all) — see the
//! `matches_reference_selector` test, which keeps the old implementation
//! alive as the specification.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use retrievekit::{
    top_k, top_k_cosine_traced, EmbeddingMatrix, FeatureCache, IvfIndex, IvfParams,
    QuantizedMatrix, RetrievalMode, SnapshotError, SnapshotSection, SECTION_IVF,
};
use spider_gen::{Benchmark, ExampleItem};
use sqlkit::{Query, Skeleton};
use textkit::{embed_into, DomainMasker, DIM};

/// Remove mask placeholders before embedding: what remains is the
/// question's intent scaffold.
fn strip_masks(masked: &str) -> String {
    masked.replace(textkit::MASK, " ")
}

/// The selection strategies of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SelectionStrategy {
    /// Uniform random examples.
    Random,
    /// Question text similarity.
    QuestionSimilarity,
    /// Masked question similarity.
    MaskedQuestionSimilarity,
    /// Query (skeleton) similarity against a preliminary prediction.
    QuerySimilarity,
    /// DAIL selection: masked-question similarity ∧ skeleton similarity.
    Dail,
}

impl SelectionStrategy {
    /// Short label used in report tables.
    pub fn as_str(self) -> &'static str {
        match self {
            SelectionStrategy::Random => "Random",
            SelectionStrategy::QuestionSimilarity => "QTS",
            SelectionStrategy::MaskedQuestionSimilarity => "MQS",
            SelectionStrategy::QuerySimilarity => "QRS",
            SelectionStrategy::Dail => "DAIL_S",
        }
    }

    /// All strategies in the paper's order.
    pub const ALL: [SelectionStrategy; 5] = [
        SelectionStrategy::Random,
        SelectionStrategy::QuestionSimilarity,
        SelectionStrategy::MaskedQuestionSimilarity,
        SelectionStrategy::QuerySimilarity,
        SelectionStrategy::Dail,
    ];
}

/// Embedded target features, built once per distinct target and shared
/// across strategies (and threads) via the selector's [`FeatureCache`].
struct QueryFeatures {
    raw: Vec<f32>,
    masked: Vec<f32>,
}

/// Bound on distinct targets memoized at once — one entry per dev item,
/// so even the full experiment grid stays far below this.
const FEATURE_CACHE_CAPACITY: usize = 8192;

/// Approximate-retrieval state for one embedding matrix: the trained IVF
/// index, plus the int8 scan mirror when the mode asks for it. The
/// quantized matrix is never persisted — rebuilding it is a cheap,
/// deterministic function of the f32 matrix.
struct AnnState {
    index: IvfIndex,
    quant: Option<QuantizedMatrix>,
}

impl AnnState {
    /// Train (or adopt a pre-trained index for) one matrix under `mode`.
    fn build(
        mode: RetrievalMode,
        matrix: &EmbeddingMatrix,
        index: Option<IvfIndex>,
    ) -> Option<AnnState> {
        if mode == RetrievalMode::Exact {
            return None;
        }
        let index =
            index.unwrap_or_else(|| IvfIndex::train(matrix, matrix.len(), &IvfParams::default()));
        let quant = (mode == RetrievalMode::IvfInt8).then(|| QuantizedMatrix::from_matrix(matrix));
        Some(AnnState { index, quant })
    }
}

/// Precomputed selector over a benchmark's training pool.
pub struct ExampleSelector<'a> {
    pool: &'a [ExampleItem],
    raw: EmbeddingMatrix,
    masked: EmbeddingMatrix,
    skeletons: Vec<Skeleton>,
    features: FeatureCache<QueryFeatures>,
    masked_targets: FeatureCache<String>,
    raw_ann: Option<AnnState>,
    masked_ann: Option<AnnState>,
}

impl<'a> ExampleSelector<'a> {
    /// Build the selector: embeds every training question (raw and masked
    /// with its own domain vocabulary) into contiguous matrix rows and
    /// extracts gold skeletons. Retrieval is exact: the committed oracle,
    /// whose selections are byte-identical to pre-IVF builds.
    pub fn new(bench: &'a Benchmark) -> Self {
        Self::with_retrieval(bench, RetrievalMode::Exact)
    }

    /// [`ExampleSelector::new`] with an explicit retrieval mode; the ANN
    /// modes are reachable only through this and
    /// [`ExampleSelector::load_snapshot_with_retrieval`].
    pub fn with_retrieval(bench: &'a Benchmark, mode: RetrievalMode) -> Self {
        let n = bench.train.len();
        let mut raw = EmbeddingMatrix::with_capacity(DIM, n);
        let mut masked = EmbeddingMatrix::with_capacity(DIM, n);
        let mut skeletons = Vec::with_capacity(n);
        let mut row = vec![0f32; DIM];
        for ex in &bench.train {
            let spec = &bench.specs[&ex.db_id];
            let masker = DomainMasker::new(spec.domain_terms());
            embed_into(&ex.question, &mut row);
            raw.push_row(&row);
            // The mask token itself carries no intent information —
            // embedding it would add constant similarity between all
            // masked questions and wash out the signal.
            embed_into(&strip_masks(&masker.mask(&ex.question)), &mut row);
            masked.push_row(&row);
            skeletons.push(Skeleton::of(&ex.gold));
        }
        let raw_ann = AnnState::build(mode, &raw, None);
        let masked_ann = AnnState::build(mode, &masked, None);
        ExampleSelector {
            pool: &bench.train,
            raw,
            masked,
            skeletons,
            features: FeatureCache::new(FEATURE_CACHE_CAPACITY),
            masked_targets: FeatureCache::new(FEATURE_CACHE_CAPACITY),
            raw_ann,
            masked_ann,
        }
    }

    /// Top-k over one matrix under the active retrieval mode: the exact
    /// sharded scan when no ANN state exists, else the IVF probe (with
    /// int8 candidate generation and exact rerank in `ivf-int8` mode).
    /// Every path ends in full-precision f32 scores with score-desc /
    /// index-asc tie-breaking.
    fn retrieve(
        &self,
        matrix: &EmbeddingMatrix,
        ann: &Option<AnnState>,
        query: &[f32],
        k: usize,
        trace: obskit::TraceContext,
    ) -> Vec<(f32, u32)> {
        match ann {
            None => top_k_cosine_traced(matrix, query, matrix.len(), k, trace),
            Some(a) => {
                let (_span, _) = trace.span("retrievekit.score");
                match &a.quant {
                    Some(qm) => a.index.search_quantized(matrix, qm, query, k),
                    None => a.index.search(matrix, query, k),
                }
            }
        }
    }

    /// Memoized masked form of a target question, keyed by database and
    /// question, so the experiment grids mask each target once instead of
    /// once per strategy × prompt build. `mask` runs on the first sighting
    /// only (it must be a pure function of the key, which domain masking
    /// is).
    pub fn mask_target(
        &self,
        db_id: &str,
        question: &str,
        mask: impl FnOnce() -> String,
    ) -> std::sync::Arc<String> {
        let key = format!("{db_id}\u{1f}{question}");
        self.masked_targets.get_or_insert_with(&key, mask)
    }

    /// Number of candidates in the pool.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Target features for `(question, masked)` — embedded on first sight,
    /// shared afterwards.
    fn target_features(
        &self,
        target_question: &str,
        masked_target: &str,
    ) -> std::sync::Arc<QueryFeatures> {
        // U+001F cannot appear in either component, so the key is injective.
        let key = format!("{target_question}\u{1f}{masked_target}");
        self.features.get_or_insert_with(&key, || {
            let mut raw = vec![0f32; DIM];
            embed_into(target_question, &mut raw);
            let mut masked = vec![0f32; DIM];
            embed_into(&strip_masks(masked_target), &mut masked);
            QueryFeatures { raw, masked }
        })
    }

    /// Select `k` examples for a target question.
    ///
    /// * `masked_target` — the target question masked with *its* domain terms
    ///   (callers build it via [`textkit::DomainMasker`]);
    /// * `preliminary` — a draft prediction for the target, required by QRS
    ///   and used by DAIL when present.
    /// * `seed` — drives the Random strategy (and tie-breaking shuffles).
    pub fn select(
        &self,
        strategy: SelectionStrategy,
        target_question: &str,
        masked_target: &str,
        preliminary: Option<&Query>,
        k: usize,
        seed: u64,
    ) -> Vec<&'a ExampleItem> {
        self.select_traced(
            strategy,
            target_question,
            masked_target,
            preliminary,
            k,
            seed,
            obskit::TraceContext::disabled(),
        )
    }

    /// [`ExampleSelector::select`] under a request trace context: the
    /// selection runs inside a `promptkit.select` span with the
    /// retrieval scan in a `retrievekit.score` child span. Selections
    /// are identical to the untraced path.
    #[allow(clippy::too_many_arguments)]
    pub fn select_traced(
        &self,
        strategy: SelectionStrategy,
        target_question: &str,
        masked_target: &str,
        preliminary: Option<&Query>,
        k: usize,
        seed: u64,
        trace: obskit::TraceContext,
    ) -> Vec<&'a ExampleItem> {
        if k == 0 || self.pool.is_empty() {
            return Vec::new();
        }
        let (_span, tctx) = trace.span("promptkit.select");
        let timed = obskit::enabled();
        let started = timed.then(std::time::Instant::now);
        if timed {
            let g = obskit::current();
            g.add_counter("promptkit.selections", 1);
            g.add_counter("promptkit.candidates_scored", self.pool.len() as u64);
        }
        let picked = self.select_inner(
            strategy,
            target_question,
            masked_target,
            preliminary,
            k,
            seed,
            tctx,
        );
        if let Some(t0) = started {
            obskit::current().observe("retrievekit.select_ns", t0.elapsed().as_nanos() as u64);
        }
        picked
    }

    #[allow(clippy::too_many_arguments)]
    fn select_inner(
        &self,
        strategy: SelectionStrategy,
        target_question: &str,
        masked_target: &str,
        preliminary: Option<&Query>,
        k: usize,
        seed: u64,
        trace: obskit::TraceContext,
    ) -> Vec<&'a ExampleItem> {
        let k = k.min(self.pool.len());
        match strategy {
            SelectionStrategy::Random => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut ids: Vec<usize> = (0..self.pool.len()).collect();
                ids.shuffle(&mut rng);
                ids.truncate(k);
                ids.into_iter().map(|i| &self.pool[i]).collect()
            }
            SelectionStrategy::QuestionSimilarity => {
                let f = self.target_features(target_question, masked_target);
                self.take(self.retrieve(&self.raw, &self.raw_ann, &f.raw, k, trace))
            }
            SelectionStrategy::MaskedQuestionSimilarity => {
                let f = self.target_features(target_question, masked_target);
                self.take(self.retrieve(&self.masked, &self.masked_ann, &f.masked, k, trace))
            }
            SelectionStrategy::QuerySimilarity => {
                let Some(pq) = preliminary else {
                    // No draft available: degrade to question similarity,
                    // which is what implementations fall back to in practice.
                    return self.select_inner(
                        SelectionStrategy::QuestionSimilarity,
                        target_question,
                        masked_target,
                        None,
                        k,
                        seed,
                        trace,
                    );
                };
                let sk = Skeleton::of(pq);
                let (_score_span, _) = trace.span("retrievekit.score");
                self.take(top_k(self.skeletons.iter().map(|s| s.similarity(&sk)), k))
            }
            SelectionStrategy::Dail => {
                let f = self.target_features(target_question, masked_target);
                match preliminary {
                    Some(pq) => {
                        let sk = Skeleton::of(pq);
                        // DAIL selection is two-staged: masked-question
                        // similarity shortlists intent-relevant candidates,
                        // then skeleton similarity to the preliminary
                        // prediction re-ranks within the shortlist. A wrong
                        // preliminary can therefore reorder but never
                        // replace question-relevant demonstrations.
                        //
                        // The shortlist already carries the stage-one
                        // masked-cosine scores, so stage two never rescores
                        // a question — it only computes `pool_k` skeleton
                        // similarities.
                        let pool_k = (4 * k).max(16).min(self.pool.len());
                        let by_q =
                            self.retrieve(&self.masked, &self.masked_ann, &f.masked, pool_k, trace);
                        if obskit::enabled() {
                            // The skeleton re-ranking stage scores each
                            // shortlisted candidate once more.
                            obskit::current()
                                .add_counter("promptkit.candidates_scored", by_q.len() as u64);
                        }
                        let mut shortlist: Vec<(f64, f32, u32)> = by_q
                            .into_iter()
                            .map(|(q_sim, idx)| {
                                (self.skeletons[idx as usize].similarity(&sk), q_sim, idx)
                            })
                            .collect();
                        // Skeleton similarity first, stage-one score as the
                        // tie-break, pool index last — exactly the order the
                        // old chained stable sorts produced.
                        shortlist.sort_unstable_by(|a, b| {
                            b.0.partial_cmp(&a.0)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then(b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal))
                                .then(a.2.cmp(&b.2))
                        });
                        shortlist
                            .into_iter()
                            .take(k)
                            .map(|(_, _, i)| &self.pool[i as usize])
                            .collect()
                    }
                    None => self.take(self.retrieve(
                        &self.masked,
                        &self.masked_ann,
                        &f.masked,
                        k,
                        trace,
                    )),
                }
            }
        }
    }

    /// Resolve ranked `(score, pool_index)` pairs to pool items.
    fn take<S>(&self, ranked: Vec<(S, u32)>) -> Vec<&'a ExampleItem> {
        ranked
            .into_iter()
            .map(|(_, i)| &self.pool[i as usize])
            .collect()
    }

    /// Persist the selector's derived state — both embedding matrices and
    /// every gold skeleton — to a [`retrievekit::snapshot`] file. The aux
    /// blob catalogs the pool (`u32` question length + UTF-8 bytes, `u16`
    /// token count + `u16` [`sqlkit::SkelTok`] codes per row) so a later
    /// load can prove the snapshot belongs to the benchmark it is asked to
    /// serve.
    ///
    /// Under an IVF retrieval mode the trained indexes ride along as
    /// `IVFIDX01` sections (payload: one role byte — 0 raw, 1 masked —
    /// then [`IvfIndex::to_bytes`]) so warm starts skip k-means. In exact
    /// mode no sections are written and the file is byte-identical to
    /// pre-IVF builds.
    pub fn save_snapshot(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        let mut aux = Vec::new();
        for (ex, sk) in self.pool.iter().zip(&self.skeletons) {
            let q = ex.question.as_bytes();
            aux.extend_from_slice(&(q.len() as u32).to_le_bytes());
            aux.extend_from_slice(q);
            let n = u16::try_from(sk.0.len()).map_err(|_| {
                SnapshotError::Corrupt(format!("skeleton of {} tokens exceeds u16", sk.0.len()))
            })?;
            aux.extend_from_slice(&n.to_le_bytes());
            for t in &sk.0 {
                aux.extend_from_slice(&t.to_code().to_le_bytes());
            }
        }
        let mut sections = Vec::new();
        for (role, ann) in [(0u8, &self.raw_ann), (1u8, &self.masked_ann)] {
            if let Some(a) = ann {
                let mut payload = vec![role];
                payload.extend_from_slice(&a.index.to_bytes());
                sections.push(SnapshotSection {
                    tag: SECTION_IVF,
                    payload,
                });
            }
        }
        retrievekit::save_snapshot_with_sections(path, &[&self.raw, &self.masked], &aux, &sections)
    }

    /// Rebuild a selector from a snapshot written by
    /// [`ExampleSelector::save_snapshot`] — the warm-start path. No
    /// masking, embedding, or AST walk runs: matrices come back
    /// bit-identical from disk and skeletons decode from their token
    /// codes, so every subsequent selection matches the cold-built
    /// selector exactly.
    ///
    /// The snapshot is validated against `bench`: matrix shape, row
    /// count, and every stored question must match the training pool, so
    /// a snapshot from a different (or regenerated) benchmark is rejected
    /// rather than silently served. `verify_data` additionally checksums
    /// the f32 blocks (slower; meant for integrity audits, not the warm
    /// path).
    pub fn load_snapshot(
        bench: &'a Benchmark,
        path: &std::path::Path,
        verify_data: bool,
    ) -> Result<Self, SnapshotError> {
        Self::load_snapshot_with_retrieval(bench, path, verify_data, RetrievalMode::Exact)
    }

    /// [`ExampleSelector::load_snapshot`] with an explicit retrieval mode.
    ///
    /// Under an IVF mode, persisted `IVFIDX01` sections whose shape
    /// matches the pool are adopted; a snapshot without a usable index
    /// (e.g. one written by an exact-mode run) falls back to retraining —
    /// and since training is deterministic, the retrained index (and every
    /// selection) is identical to what a cold build produces.
    pub fn load_snapshot_with_retrieval(
        bench: &'a Benchmark,
        path: &std::path::Path,
        verify_data: bool,
        mode: RetrievalMode,
    ) -> Result<Self, SnapshotError> {
        let corrupt = |m: String| SnapshotError::Corrupt(m);
        let snap = retrievekit::load_snapshot(path, verify_data)?;
        if snap.matrices.len() != 2 {
            return Err(corrupt(format!(
                "expected 2 matrices (raw, masked), found {}",
                snap.matrices.len()
            )));
        }
        let mut mats = snap.matrices.into_iter();
        let raw = mats.next().expect("checked len");
        let masked = mats.next().expect("checked len");
        let n = bench.train.len();
        if raw.dim() != DIM || raw.len() != n || masked.dim() != DIM || masked.len() != n {
            return Err(corrupt(format!(
                "snapshot shape {}x{} + {}x{} does not fit pool of {n} rows at dim {DIM}",
                raw.len(),
                raw.dim(),
                masked.len(),
                masked.dim()
            )));
        }

        let aux = &snap.aux;
        let mut off = 0usize;
        let mut skeletons = Vec::with_capacity(n);
        for (i, ex) in bench.train.iter().enumerate() {
            let need = |off: usize, len: usize| -> Result<(), SnapshotError> {
                if off + len > aux.len() {
                    Err(SnapshotError::Corrupt(format!(
                        "pool catalog truncated at row {i}"
                    )))
                } else {
                    Ok(())
                }
            };
            need(off, 4)?;
            let qlen = u32::from_le_bytes(aux[off..off + 4].try_into().expect("4 bytes")) as usize;
            off += 4;
            need(off, qlen)?;
            if &aux[off..off + qlen] != ex.question.as_bytes() {
                return Err(corrupt(format!(
                    "snapshot question at row {i} does not match the benchmark pool"
                )));
            }
            off += qlen;
            need(off, 2)?;
            let n_toks =
                u16::from_le_bytes(aux[off..off + 2].try_into().expect("2 bytes")) as usize;
            off += 2;
            need(off, n_toks * 2)?;
            let mut toks = Vec::with_capacity(n_toks);
            for t in 0..n_toks {
                let code =
                    u16::from_le_bytes(aux[off + t * 2..off + t * 2 + 2].try_into().expect("2"));
                toks.push(sqlkit::SkelTok::from_code(code).ok_or_else(|| {
                    SnapshotError::Corrupt(format!(
                        "unknown skeleton token code {code:#06x} at row {i}"
                    ))
                })?);
            }
            off += n_toks * 2;
            skeletons.push(Skeleton(toks));
        }
        if off != aux.len() {
            return Err(corrupt(format!(
                "{} trailing bytes after the pool catalog",
                aux.len() - off
            )));
        }

        // Recover persisted IVF indexes by role byte. A malformed section
        // payload is a hard error (the section checksum already passed, so
        // this is a format skew, not bit rot); a merely *missing* or
        // wrong-shape index falls back to retraining below.
        let mut stored: [Option<IvfIndex>; 2] = [None, None];
        for s in &snap.sections {
            if s.tag != SECTION_IVF {
                continue;
            }
            let Some((&role, body)) = s.payload.split_first() else {
                return Err(corrupt("empty IVFIDX01 section payload".into()));
            };
            if role > 1 {
                return Err(corrupt(format!("unknown IVFIDX01 role byte {role}")));
            }
            let idx = IvfIndex::from_bytes(body).map_err(&corrupt)?;
            if idx.rows() == n && idx.dim() == DIM {
                stored[role as usize] = Some(idx);
            }
        }
        let [stored_raw, stored_masked] = stored;
        let raw_ann = AnnState::build(mode, &raw, stored_raw);
        let masked_ann = AnnState::build(mode, &masked, stored_masked);

        Ok(ExampleSelector {
            pool: &bench.train,
            raw,
            masked,
            skeletons,
            features: FeatureCache::new(FEATURE_CACHE_CAPACITY),
            masked_targets: FeatureCache::new(FEATURE_CACHE_CAPACITY),
            raw_ann,
            masked_ann,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_gen::{Benchmark, BenchmarkConfig};

    fn bench() -> Benchmark {
        Benchmark::generate(BenchmarkConfig::tiny())
    }

    #[test]
    fn selects_k_examples() {
        let b = bench();
        let sel = ExampleSelector::new(&b);
        for strat in SelectionStrategy::ALL {
            let picked = sel.select(
                strat,
                "how many things are there",
                "how many <mask> are there",
                None,
                5,
                1,
            );
            assert_eq!(picked.len(), 5, "{strat:?}");
        }
    }

    #[test]
    fn k_zero_returns_empty() {
        let b = bench();
        let sel = ExampleSelector::new(&b);
        assert!(sel
            .select(SelectionStrategy::Random, "q", "q", None, 0, 1)
            .is_empty());
    }

    #[test]
    fn random_is_seed_deterministic() {
        let b = bench();
        let sel = ExampleSelector::new(&b);
        let a: Vec<usize> = sel
            .select(SelectionStrategy::Random, "q", "q", None, 5, 42)
            .iter()
            .map(|e| e.id)
            .collect();
        let c: Vec<usize> = sel
            .select(SelectionStrategy::Random, "q", "q", None, 5, 42)
            .iter()
            .map(|e| e.id)
            .collect();
        assert_eq!(a, c);
        let d: Vec<usize> = sel
            .select(SelectionStrategy::Random, "q", "q", None, 5, 43)
            .iter()
            .map(|e| e.id)
            .collect();
        assert_ne!(a, d);
    }

    #[test]
    fn question_similarity_finds_count_questions() {
        let b = bench();
        let sel = ExampleSelector::new(&b);
        let picked = sel.select(
            SelectionStrategy::QuestionSimilarity,
            "How many gadgets are there?",
            "how many <mask> are there",
            None,
            5,
            1,
        );
        // At least one selected example should itself be a counting question.
        let any_count = picked
            .iter()
            .any(|e| e.gold_sql.to_lowercase().contains("count"));
        assert!(
            any_count,
            "picked: {:?}",
            picked.iter().map(|e| &e.question).collect::<Vec<_>>()
        );
    }

    #[test]
    fn query_similarity_uses_preliminary_skeleton() {
        let b = bench();
        let sel = ExampleSelector::new(&b);
        let draft = sqlkit::parse_query("SELECT count(*) FROM t").unwrap();
        let sk = Skeleton::of(&draft);
        let mean_sim = |picked: &[&spider_gen::ExampleItem]| {
            picked
                .iter()
                .map(|e| Skeleton::of(&e.gold).similarity(&sk))
                .sum::<f64>()
                / picked.len() as f64
        };
        let qrs = sel.select(
            SelectionStrategy::QuerySimilarity,
            "irrelevant words entirely",
            "irrelevant words entirely",
            Some(&draft),
            5,
            1,
        );
        let random = sel.select(
            SelectionStrategy::Random,
            "irrelevant words entirely",
            "irrelevant words entirely",
            None,
            5,
            1,
        );
        assert!(
            mean_sim(&qrs) > mean_sim(&random) + 0.1,
            "qrs {:.3} vs random {:.3}",
            mean_sim(&qrs),
            mean_sim(&random)
        );
        assert!(
            mean_sim(&qrs) > 0.8,
            "qrs picks should be near-skeleton-identical"
        );
    }

    #[test]
    fn dail_skeleton_refinement_never_hurts_skeleton_match() {
        let b = bench();
        let sel = ExampleSelector::new(&b);
        let draft = sqlkit::parse_query("SELECT count(*) FROM t").unwrap();
        let sk = Skeleton::of(&draft);
        let count_hits = |picked: &[&spider_gen::ExampleItem]| {
            picked
                .iter()
                .map(|e| Skeleton::of(&e.gold).similarity(&sk))
                .sum::<f64>()
        };
        let dail = sel.select(
            SelectionStrategy::Dail,
            "How many widgets are there?",
            "how many <mask> are there",
            Some(&draft),
            5,
            1,
        );
        let mqs = sel.select(
            SelectionStrategy::MaskedQuestionSimilarity,
            "How many widgets are there?",
            "how many <mask> are there",
            None,
            5,
            1,
        );
        // The skeleton term can only pull the selection toward the draft's
        // shape relative to pure masked-question similarity.
        assert!(
            count_hits(&dail) >= count_hits(&mqs) - 1e-9,
            "dail {} vs mqs {}",
            count_hits(&dail),
            count_hits(&mqs)
        );
    }

    /// The pre-optimization selector, kept verbatim as the specification:
    /// per-example `Embedding` vectors, `f64` cosine, full stable sorts.
    mod reference {
        use super::*;
        use textkit::{embed, Embedding};

        pub struct RefSelector<'a> {
            pool: &'a [ExampleItem],
            index: Vec<(Embedding, Embedding, Skeleton)>,
        }

        impl<'a> RefSelector<'a> {
            pub fn new(bench: &'a Benchmark) -> Self {
                let index = bench
                    .train
                    .iter()
                    .map(|ex| {
                        let spec = &bench.specs[&ex.db_id];
                        let masker = DomainMasker::new(spec.domain_terms());
                        (
                            embed(&ex.question),
                            embed(&strip_masks(&masker.mask(&ex.question))),
                            Skeleton::of(&ex.gold),
                        )
                    })
                    .collect();
                RefSelector {
                    pool: &bench.train,
                    index,
                }
            }

            pub fn select(
                &self,
                strategy: SelectionStrategy,
                target_question: &str,
                masked_target: &str,
                preliminary: Option<&Query>,
                k: usize,
                seed: u64,
            ) -> Vec<&'a ExampleItem> {
                if k == 0 || self.pool.is_empty() {
                    return Vec::new();
                }
                let k = k.min(self.pool.len());
                match strategy {
                    SelectionStrategy::Random => {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let mut ids: Vec<usize> = (0..self.pool.len()).collect();
                        ids.shuffle(&mut rng);
                        ids.truncate(k);
                        ids.into_iter().map(|i| &self.pool[i]).collect()
                    }
                    SelectionStrategy::QuestionSimilarity => {
                        let e = embed(target_question);
                        self.top_by(k, |ex| ex.0.cosine(&e))
                    }
                    SelectionStrategy::MaskedQuestionSimilarity => {
                        let e = embed(&strip_masks(masked_target));
                        self.top_by(k, |ex| ex.1.cosine(&e))
                    }
                    SelectionStrategy::QuerySimilarity => {
                        let Some(pq) = preliminary else {
                            return self.select(
                                SelectionStrategy::QuestionSimilarity,
                                target_question,
                                masked_target,
                                None,
                                k,
                                seed,
                            );
                        };
                        let sk = Skeleton::of(pq);
                        self.top_by(k, |ex| ex.2.similarity(&sk))
                    }
                    SelectionStrategy::Dail => {
                        let e = embed(&strip_masks(masked_target));
                        match preliminary {
                            Some(pq) => {
                                let sk = Skeleton::of(pq);
                                let pool_k = (4 * k).max(16).min(self.index.len());
                                let mut by_q: Vec<(f64, usize)> = self
                                    .index
                                    .iter()
                                    .enumerate()
                                    .map(|(idx, ex)| (ex.1.cosine(&e), idx))
                                    .collect();
                                by_q.sort_by(|a, b| {
                                    b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal)
                                });
                                let mut shortlist: Vec<(f64, f64, usize)> = by_q
                                    .into_iter()
                                    .take(pool_k)
                                    .map(|(q_sim, idx)| {
                                        (self.index[idx].2.similarity(&sk), q_sim, idx)
                                    })
                                    .collect();
                                shortlist.sort_by(|a, b| {
                                    b.0.partial_cmp(&a.0)
                                        .unwrap_or(std::cmp::Ordering::Equal)
                                        .then(
                                            b.1.partial_cmp(&a.1)
                                                .unwrap_or(std::cmp::Ordering::Equal),
                                        )
                                });
                                shortlist
                                    .into_iter()
                                    .take(k)
                                    .map(|(_, _, i)| &self.pool[i])
                                    .collect()
                            }
                            None => self.top_by(k, |ex| ex.1.cosine(&e)),
                        }
                    }
                }
            }

            fn top_by(
                &self,
                k: usize,
                score: impl Fn(&(Embedding, Embedding, Skeleton)) -> f64,
            ) -> Vec<&'a ExampleItem> {
                let mut scored: Vec<(f64, usize)> = self
                    .index
                    .iter()
                    .enumerate()
                    .map(|(idx, ex)| (score(ex), idx))
                    .collect();
                scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
                scored
                    .into_iter()
                    .take(k)
                    .map(|(_, i)| &self.pool[i])
                    .collect()
            }
        }
    }

    #[test]
    fn matches_reference_selector() {
        let b = bench();
        let fast = ExampleSelector::new(&b);
        let slow = reference::RefSelector::new(&b);
        let draft = sqlkit::parse_query("SELECT count(*) FROM t").unwrap();
        let draft2 =
            sqlkit::parse_query("SELECT name FROM t WHERE size > 3 ORDER BY name").unwrap();
        let targets = [
            ("how many things are there", "how many <mask> are there"),
            ("How many gadgets are there?", "how many <mask> are there"),
            (
                "list the names of all items",
                "list the <mask> of all <mask>",
            ),
            ("irrelevant words entirely", "irrelevant words entirely"),
            ("", ""),
        ];
        for strat in SelectionStrategy::ALL {
            for (q, m) in targets {
                for prelim in [None, Some(&draft), Some(&draft2)] {
                    for k in [1usize, 4, 16, 1000] {
                        let got: Vec<usize> = fast
                            .select(strat, q, m, prelim, k, 7)
                            .iter()
                            .map(|e| e.id)
                            .collect();
                        let want: Vec<usize> = slow
                            .select(strat, q, m, prelim, k, 7)
                            .iter()
                            .map(|e| e.id)
                            .collect();
                        assert_eq!(
                            got,
                            want,
                            "{strat:?} q={q:?} prelim={} k={k}",
                            prelim.is_some()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn warm_start_matches_cold_selector_exactly() {
        let b = bench();
        let cold = ExampleSelector::new(&b);
        let path = std::env::temp_dir().join(format!("dail_sel_{}_warm.emb", std::process::id()));
        cold.save_snapshot(&path).unwrap();
        let warm = ExampleSelector::load_snapshot(&b, &path, true).unwrap();

        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(cold.raw.data()), bits(warm.raw.data()));
        assert_eq!(bits(cold.raw.norms()), bits(warm.raw.norms()));
        assert_eq!(bits(cold.masked.data()), bits(warm.masked.data()));
        assert_eq!(bits(cold.masked.norms()), bits(warm.masked.norms()));
        assert_eq!(cold.skeletons, warm.skeletons);

        let draft = sqlkit::parse_query("SELECT count(*) FROM t").unwrap();
        for strat in SelectionStrategy::ALL {
            for prelim in [None, Some(&draft)] {
                let a: Vec<usize> = cold
                    .select(
                        strat,
                        "How many gadgets are there?",
                        "how many <mask> are there",
                        prelim,
                        5,
                        7,
                    )
                    .iter()
                    .map(|e| e.id)
                    .collect();
                let c: Vec<usize> = warm
                    .select(
                        strat,
                        "How many gadgets are there?",
                        "how many <mask> are there",
                        prelim,
                        5,
                        7,
                    )
                    .iter()
                    .map(|e| e.id)
                    .collect();
                assert_eq!(a, c, "{strat:?} prelim={}", prelim.is_some());
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ivf_modes_select_k_and_find_exact_duplicates() {
        let b = bench();
        for mode in [RetrievalMode::Ivf, RetrievalMode::IvfInt8] {
            let sel = ExampleSelector::with_retrieval(&b, mode);
            // Query a pool question verbatim: its embedding is an exact
            // duplicate of a pool row, the probe lands in that row's own
            // cluster, so top-1 must share the question text.
            let target = &b.train[b.train.len() / 2];
            let picked = sel.select(
                SelectionStrategy::QuestionSimilarity,
                &target.question,
                &target.question,
                None,
                5,
                1,
            );
            assert_eq!(picked.len(), 5, "{mode:?}");
            assert_eq!(picked[0].question, target.question, "{mode:?}");
            for strat in SelectionStrategy::ALL {
                let got = sel.select(
                    strat,
                    "how many things are there",
                    "how many <mask> are there",
                    None,
                    4,
                    9,
                );
                assert_eq!(got.len(), 4, "{mode:?} {strat:?}");
            }
        }
    }

    #[test]
    fn ivf_warm_start_and_retrain_fallback_match_cold_selections() {
        let b = bench();
        let mode = RetrievalMode::IvfInt8;
        let cold = ExampleSelector::with_retrieval(&b, mode);
        let dir = std::env::temp_dir();
        let with_index = dir.join(format!("dail_sel_{}_ivf.emb", std::process::id()));
        let without_index = dir.join(format!("dail_sel_{}_noivf.emb", std::process::id()));
        cold.save_snapshot(&with_index).unwrap();
        // An exact-mode selector writes the section-free version-1 format —
        // the "old snapshot" a later IVF run must fall back from.
        ExampleSelector::with_retrieval(&b, RetrievalMode::Exact)
            .save_snapshot(&without_index)
            .unwrap();
        let warm =
            ExampleSelector::load_snapshot_with_retrieval(&b, &with_index, true, mode).unwrap();
        let retrained =
            ExampleSelector::load_snapshot_with_retrieval(&b, &without_index, true, mode).unwrap();
        assert!(warm.raw_ann.is_some() && retrained.raw_ann.is_some());
        let draft = sqlkit::parse_query("SELECT count(*) FROM t").unwrap();
        for strat in SelectionStrategy::ALL {
            for prelim in [None, Some(&draft)] {
                let pick = |sel: &ExampleSelector| -> Vec<usize> {
                    sel.select(
                        strat,
                        "How many gadgets are there?",
                        "how many <mask> are there",
                        prelim,
                        5,
                        7,
                    )
                    .iter()
                    .map(|e| e.id)
                    .collect()
                };
                let want = pick(&cold);
                // Warm start adopts the persisted index; the fallback
                // retrains — both must reproduce the cold selector exactly
                // because training is deterministic.
                assert_eq!(pick(&warm), want, "warm {strat:?}");
                assert_eq!(pick(&retrained), want, "retrained {strat:?}");
            }
        }
        let _ = std::fs::remove_file(&with_index);
        let _ = std::fs::remove_file(&without_index);
    }

    #[test]
    fn snapshot_for_a_different_pool_is_rejected() {
        let b = bench();
        let sel = ExampleSelector::new(&b);
        let path = std::env::temp_dir().join(format!("dail_sel_{}_reject.emb", std::process::id()));
        sel.save_snapshot(&path).unwrap();
        // Same shapes, different questions: a regenerated benchmark with
        // another seed must not accept this snapshot.
        let mut cfg = spider_gen::BenchmarkConfig::tiny();
        cfg.seed ^= 0xdead_beef;
        let other = Benchmark::generate(cfg);
        match ExampleSelector::load_snapshot(&other, &path, false) {
            Err(SnapshotError::Corrupt(_)) => {}
            Err(e) => panic!("expected Corrupt, got {e}"),
            Ok(_) => panic!("snapshot for a different pool was accepted"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn f32_kernel_divergence_is_bounded() {
        let b = bench();
        let sel = ExampleSelector::new(&b);
        let f = sel.target_features("how many things are there", "how many <mask> are there");
        for i in 0..sel.raw.len() {
            let fast = sel.raw.cosine(i, &f.raw) as f64;
            let slow = textkit::Embedding(sel.raw.row(i).to_vec())
                .cosine(&textkit::Embedding(f.raw.clone()));
            assert!(
                (fast - slow).abs() < 1e-5,
                "row {i}: f32 {fast} vs f64 {slow}"
            );
        }
    }
}
