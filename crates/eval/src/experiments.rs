//! The paper's experiment suite: one function per table/figure.
//!
//! | id  | paper artifact                                         |
//! |-----|--------------------------------------------------------|
//! | e1  | zero-shot question representations on Spider (EM & EX) |
//! | e2  | zero-shot on Spider-Realistic                          |
//! | e3  | effect of foreign-key information                      |
//! | e4  | effect of rule implication ("with no explanation")     |
//! | e5  | example selection strategies                           |
//! | e6  | example organization strategies                        |
//! | e7  | token efficiency (EX vs prompt tokens vs cost)         |
//! | e8  | Spider leaderboard comparison                          |
//! | e9  | open-source LLMs, zero- and few-shot                   |
//! | e10 | open-source SFT (representations, ICL degradation)     |

use crate::harness::{evaluate, RunResult};
use crate::report::{f1, pct, usd, Table};
use dail_core::{C3Style, DailSql, DinSqlStyle, FewShot, Predictor, ZeroShot};
use promptkit::{
    ExampleSelector, OrganizationStrategy, PromptConfig, QuestionRepr, ReprOptions,
    SelectionStrategy,
};
use simllm::{profile, PromptStyle, SimLlm};
use spider_gen::Benchmark;
use sqlkit::Hardness;

/// How much of the grid to run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Max dev items per run.
    pub dev_cap: usize,
    /// Run the full model grid (false = the two flagship models only).
    pub full_grid: bool,
}

impl Scale {
    /// Fast scale for tests.
    pub fn quick() -> Scale {
        Scale {
            dev_cap: 24,
            full_grid: false,
        }
    }

    /// The full paper-scale run.
    pub fn full() -> Scale {
        Scale {
            dev_cap: usize::MAX,
            full_grid: true,
        }
    }
}

/// Runs experiments against one generated benchmark.
pub struct ExperimentRunner<'a> {
    bench: &'a Benchmark,
    selector: ExampleSelector<'a>,
    scale: Scale,
    seed: u64,
}

/// Best-effort `git describe` of the working tree, for run manifests.
/// Returns `"unknown"` when git is unavailable (e.g. outside a checkout).
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Map a question representation to the prompt style tag used by SFT.
fn style_of(repr: QuestionRepr) -> PromptStyle {
    match repr {
        QuestionRepr::CodeRepr => PromptStyle::Ddl,
        QuestionRepr::OpenAiDemo => PromptStyle::Pound,
        QuestionRepr::BasicPrompt => PromptStyle::TableList,
        QuestionRepr::TextRepr => PromptStyle::ColonList,
        QuestionRepr::AlpacaSft => PromptStyle::Alpaca,
    }
}

impl<'a> ExperimentRunner<'a> {
    /// Create a runner. Experiments run under an enabled obskit sink
    /// ([`obskit::Recorder::enter`]) emit a span, a run manifest
    /// ([`obskit::Event::Meta`]) and the harness's per-item trace into it.
    pub fn new(bench: &'a Benchmark, scale: Scale, seed: u64) -> Self {
        ExperimentRunner {
            bench,
            selector: ExampleSelector::new(bench),
            scale,
            seed,
        }
    }

    fn items(&self) -> &[spider_gen::ExampleItem] {
        let n = self.scale.dev_cap.min(self.bench.dev.len());
        &self.bench.dev[..n]
    }

    fn run(&self, p: &(dyn Predictor + Sync), realistic: bool) -> RunResult {
        evaluate(
            self.bench,
            &self.selector,
            p,
            self.items(),
            self.seed,
            realistic,
        )
    }

    fn main_models(&self) -> Vec<&'static str> {
        if self.scale.full_grid {
            simllm::MAIN_STUDY.to_vec()
        } else {
            vec!["gpt-4", "gpt-3.5-turbo"]
        }
    }

    /// Dispatch by experiment id ("e1".."e10").
    pub fn run_experiment(&self, id: &str) -> Vec<Table> {
        let rec = obskit::current();
        let span = rec.span(&format!("experiment.{id}"));
        let started = std::time::Instant::now();
        let tables = self.dispatch(id);
        if rec.is_enabled() {
            // Run manifest: enough to re-run and to attribute cost later.
            rec.meta(
                &format!("experiment.{id}"),
                &[
                    ("seed", self.seed.to_string()),
                    ("dev_cap", self.scale.dev_cap.to_string()),
                    ("full_grid", self.scale.full_grid.to_string()),
                    ("git", git_describe()),
                    ("tables", tables.len().to_string()),
                    ("duration_ms", started.elapsed().as_millis().to_string()),
                ],
            );
            rec.add_counter("experiments.runs", 1);
        }
        drop(span);
        tables
    }

    fn dispatch(&self, id: &str) -> Vec<Table> {
        match id {
            "e1" => self.e1(),
            "e2" => self.e2(),
            "e3" => self.e3(),
            "e4" => self.e4(),
            "e5" => self.e5(),
            "e6" => self.e6(),
            "e7" => self.e7(),
            "e8" => self.e8(),
            "e9" => self.e9(),
            "e10" => self.e10(),
            "a1" => self.a1_shot_sweep(),
            "a2" => self.a2_self_consistency(),
            "a3" => self.a3_pool_size(),
            "a4" => self.a4_token_budget(),
            "a5" => self.a5_table_content(),
            "a6" => self.a6_error_analysis(),
            other => panic!("unknown experiment id {other:?}"),
        }
    }

    /// All paper-artifact experiment ids.
    pub const ALL_IDS: [&'static str; 10] =
        ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"];

    /// Ablation study ids (the design choices called out in DESIGN.md §5).
    pub const ABLATION_IDS: [&'static str; 6] = ["a1", "a2", "a3", "a4", "a5", "a6"];

    // ---- E1 / E2: zero-shot representations ----

    fn zero_shot_grid(&self, id: &str, title: &str, realistic: bool) -> Vec<Table> {
        let mut t = Table::new(
            id,
            title,
            &["representation", "model", "valid%", "EM%", "EX%"],
        );
        for repr in QuestionRepr::ALL {
            for model in self.main_models() {
                let p = ZeroShot::new(SimLlm::new(model).unwrap(), repr);
                let r = self.run(&p, realistic);
                t.push_row(vec![
                    repr.as_str().to_string(),
                    model.to_string(),
                    f1(r.valid_pct()),
                    f1(r.em_pct()),
                    f1(r.ex_pct()),
                ]);
            }
        }
        vec![t]
    }

    fn e1(&self) -> Vec<Table> {
        self.zero_shot_grid(
            "E1",
            "Zero-shot question representations on Spider (cf. paper Fig. 3)",
            false,
        )
    }

    fn e2(&self) -> Vec<Table> {
        self.zero_shot_grid(
            "E2",
            "Zero-shot question representations on Spider-Realistic (cf. paper Fig. 4)",
            true,
        )
    }

    // ---- E3 / E4: representation ablations ----

    fn toggle_grid(
        &self,
        id: &str,
        title: &str,
        set: impl Fn(bool) -> ReprOptions,
        label: (&str, &str),
    ) -> Vec<Table> {
        let mut t = Table::new(
            id,
            title,
            &["representation", "model", label.0, label.1, "Δ"],
        );
        for repr in QuestionRepr::ALL {
            for model in self.main_models() {
                let on = ZeroShot {
                    model: SimLlm::new(model).unwrap(),
                    repr,
                    opts: set(true),
                };
                let off = ZeroShot {
                    model: SimLlm::new(model).unwrap(),
                    repr,
                    opts: set(false),
                };
                let r_on = self.run(&on, false);
                let r_off = self.run(&off, false);
                t.push_row(vec![
                    repr.as_str().to_string(),
                    model.to_string(),
                    f1(r_on.ex_pct()),
                    f1(r_off.ex_pct()),
                    f1(r_on.ex_pct() - r_off.ex_pct()),
                ]);
            }
        }
        vec![t]
    }

    fn e3(&self) -> Vec<Table> {
        self.toggle_grid(
            "E3",
            "Effect of foreign-key information, zero-shot EX (cf. paper Fig. 5)",
            |fk| ReprOptions {
                foreign_keys: fk,
                ..ReprOptions::default()
            },
            ("EX% with FK", "EX% without FK"),
        )
    }

    fn e4(&self) -> Vec<Table> {
        self.toggle_grid(
            "E4",
            "Effect of rule implication (\"with no explanation\"), zero-shot EX (cf. paper Fig. 6)",
            |rule| ReprOptions {
                rule_implication: rule,
                ..ReprOptions::default()
            },
            ("EX% with RI", "EX% without RI"),
        )
    }

    // ---- E5: example selection ----

    fn e5(&self) -> Vec<Table> {
        let shots = 5;
        let mut t = Table::new(
            "E5",
            "Example selection strategies, 5-shot EX (cf. paper Table on selection)",
            &["strategy", "model", "EX%", "EM%", "skeleton-sim"],
        );
        for strategy in SelectionStrategy::ALL {
            for model in self.main_models() {
                let cfg = PromptConfig {
                    repr: QuestionRepr::CodeRepr,
                    opts: ReprOptions::default(),
                    selection: strategy,
                    organization: OrganizationStrategy::DailPairs,
                    shots,
                    max_tokens: 8192,
                };
                let p = FewShot::new(SimLlm::new(model).unwrap(), cfg);
                let r = self.run(&p, false);
                let sk = self.selection_skeleton_similarity(strategy, shots);
                t.push_row(vec![
                    strategy.as_str().to_string(),
                    model.to_string(),
                    f1(r.ex_pct()),
                    f1(r.em_pct()),
                    format!("{sk:.3}"),
                ]);
            }
        }
        vec![t]
    }

    /// Mean (over dev items and selected examples) of the skeleton
    /// similarity between the selected examples' gold queries and the
    /// target's gold query — the paper's diagnostic for why skeleton-aware
    /// selection works.
    fn selection_skeleton_similarity(&self, strategy: SelectionStrategy, k: usize) -> f64 {
        use sqlkit::Skeleton;
        use textkit::DomainMasker;
        let items = self.items();
        if items.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for item in items {
            let masked = self.selector.mask_target(&item.db_id, &item.question, || {
                let spec = self.bench.spec(item);
                DomainMasker::new(spec.domain_terms()).mask(&item.question)
            });
            // Oracle preliminary (upper bound, as in the paper's analysis).
            let picked = self.selector.select(
                strategy,
                &item.question,
                &masked,
                Some(&item.gold),
                k,
                self.seed ^ item.id as u64,
            );
            let target = Skeleton::of(&item.gold);
            let sims: Vec<f64> = picked
                .iter()
                .map(|e| Skeleton::of(&e.gold).similarity(&target))
                .collect();
            if !sims.is_empty() {
                total += sims.iter().sum::<f64>() / sims.len() as f64;
            }
        }
        total / items.len() as f64
    }

    // ---- E6: example organization ----

    fn e6(&self) -> Vec<Table> {
        let mut t = Table::new(
            "E6",
            "Example organization strategies, k-shot EX (cf. paper Table on organization)",
            &["organization", "model", "shots", "EX%", "avg prompt tokens"],
        );
        let shot_grid: &[usize] = if self.scale.full_grid {
            &[1, 3, 5]
        } else {
            &[1, 5]
        };
        let models = if self.scale.full_grid {
            vec!["gpt-4", "gpt-3.5-turbo", "vicuna-33b"]
        } else {
            vec!["gpt-4"]
        };
        for org in OrganizationStrategy::ALL {
            for model in &models {
                for &shots in shot_grid {
                    let cfg = PromptConfig {
                        repr: QuestionRepr::CodeRepr,
                        opts: ReprOptions::default(),
                        selection: SelectionStrategy::MaskedQuestionSimilarity,
                        organization: org,
                        shots,
                        max_tokens: 8192,
                    };
                    let p = FewShot::new(SimLlm::new(model).unwrap(), cfg);
                    let r = self.run(&p, false);
                    t.push_row(vec![
                        org.as_str().to_string(),
                        model.to_string(),
                        shots.to_string(),
                        f1(r.ex_pct()),
                        f1(r.cost.avg_prompt_tokens()),
                    ]);
                }
            }
        }
        vec![t]
    }

    // ---- E7: token efficiency ----

    fn e7(&self) -> Vec<Table> {
        let mut t = Table::new(
            "E7",
            "Token efficiency: EX vs prompt tokens vs cost (cf. paper token-efficiency figure)",
            &[
                "strategy",
                "shots",
                "EX%",
                "avg prompt tokens",
                "USD/query",
                "EX per 1k tokens",
            ],
        );
        let mut points: Vec<(f64, f64, char)> = Vec::new();
        let model = "gpt-4";
        let prof = profile(model).unwrap();
        let grid: Vec<(OrganizationStrategy, usize)> = if self.scale.full_grid {
            OrganizationStrategy::ALL
                .into_iter()
                .flat_map(|o| [1usize, 3, 5].into_iter().map(move |k| (o, k)))
                .collect()
        } else {
            vec![
                (OrganizationStrategy::Full, 3),
                (OrganizationStrategy::SqlOnly, 3),
                (OrganizationStrategy::DailPairs, 3),
            ]
        };
        for (org, shots) in grid {
            let cfg = PromptConfig {
                repr: QuestionRepr::CodeRepr,
                opts: ReprOptions::default(),
                selection: SelectionStrategy::MaskedQuestionSimilarity,
                organization: org,
                shots,
                max_tokens: 8192,
            };
            let p = FewShot::new(SimLlm::new(model).unwrap(), cfg);
            let r = self.run(&p, false);
            let tokens = r.cost.avg_prompt_tokens();
            let eff = if tokens > 0.0 {
                r.ex_pct() / (tokens / 1000.0)
            } else {
                0.0
            };
            points.push((
                tokens,
                r.ex_pct(),
                match org {
                    OrganizationStrategy::Full => 'F',
                    OrganizationStrategy::SqlOnly => 'S',
                    OrganizationStrategy::DailPairs => 'D',
                },
            ));
            t.push_row(vec![
                org.as_str().to_string(),
                shots.to_string(),
                f1(r.ex_pct()),
                f1(tokens),
                usd(r.cost.usd_per_item(prof)),
                f1(eff),
            ]);
        }
        // The paper presents this as a figure; emit an ASCII rendition as a
        // one-column table so it flows through the same report pipeline.
        let mut fig = Table::new(
            "E7fig",
            "Token-efficiency scatter (F=FULL, S=SQLONLY, D=DAIL pairs)",
            &["figure"],
        );
        let plot = crate::report::ascii_scatter(
            "EX vs avg prompt tokens (gpt-4)",
            "avg prompt tokens",
            "EX%",
            &points,
            60,
            16,
        );
        fig.push_row(vec![format!("<pre>{plot}</pre>")]);
        vec![t, fig]
    }

    // ---- E8: leaderboard ----

    fn e8(&self) -> Vec<Table> {
        let mut t = Table::new(
            "E8",
            "Spider leaderboard comparison, EX overall and per hardness (cf. paper leaderboard table)",
            &["solution", "EX% [95% CI]", "easy", "medium", "hard", "extra", "avg calls/query"],
        );
        let mut entries: Vec<Box<dyn Predictor + Sync>> = vec![
            Box::new(DailSql::with_self_consistency(
                SimLlm::new("gpt-4").unwrap(),
                5,
            )),
            Box::new(DailSql::new(SimLlm::new("gpt-4").unwrap())),
            Box::new(DinSqlStyle::new(SimLlm::new("gpt-4").unwrap())),
            Box::new(C3Style::new(SimLlm::new("gpt-3.5-turbo").unwrap())),
            Box::new(ZeroShot::new(
                SimLlm::new("gpt-4").unwrap(),
                QuestionRepr::CodeRepr,
            )),
        ];
        if !self.scale.full_grid {
            entries.truncate(3);
        }
        for p in &entries {
            let r = self.run(p.as_ref(), false);
            let per = |h: Hardness| {
                r.ex_by_hardness
                    .get(&h)
                    .map(|&(c, n)| pct(c, n))
                    .unwrap_or_else(|| "-".to_string())
            };
            t.push_row(vec![
                r.name.clone(),
                r.ex_ci95(self.seed).render(),
                per(Hardness::Easy),
                per(Hardness::Medium),
                per(Hardness::Hard),
                per(Hardness::Extra),
                f1(r.cost.avg_api_calls()),
            ]);
        }
        vec![t]
    }

    // ---- E9: open-source LLMs in context ----

    fn e9(&self) -> Vec<Table> {
        let mut t = Table::new(
            "E9",
            "Open-source LLMs: zero-shot per representation and 5-shot DAIL (cf. paper open-source table)",
            &["model", "representation", "shots", "valid%", "EX%"],
        );
        let models: Vec<&str> = if self.scale.full_grid {
            simllm::OPEN_SOURCE_STUDY.to_vec()
        } else {
            vec!["llama-7b", "llama-33b", "vicuna-33b"]
        };
        let reprs: Vec<QuestionRepr> = if self.scale.full_grid {
            QuestionRepr::ALL.to_vec()
        } else {
            vec![QuestionRepr::CodeRepr, QuestionRepr::TextRepr]
        };
        for model in &models {
            for repr in &reprs {
                let p = ZeroShot::new(SimLlm::new(model).unwrap(), *repr);
                let r = self.run(&p, false);
                t.push_row(vec![
                    model.to_string(),
                    repr.as_str().to_string(),
                    "0".to_string(),
                    f1(r.valid_pct()),
                    f1(r.ex_pct()),
                ]);
            }
            // 5-shot DAIL prompts on the best representation.
            let p = FewShot::new(SimLlm::new(model).unwrap(), PromptConfig::dail_sql(5));
            let r = self.run(&p, false);
            t.push_row(vec![
                model.to_string(),
                "CR_P".to_string(),
                "5".to_string(),
                f1(r.valid_pct()),
                f1(r.ex_pct()),
            ]);
        }
        vec![t]
    }

    // ---- E10: open-source SFT ----

    fn e10(&self) -> Vec<Table> {
        let corpus = self.bench.train.len();
        let mut t = Table::new(
            "E10a",
            "SFT of open-source LLMs per representation, zero-shot EX (cf. paper SFT table)",
            &["model", "representation", "EX% base", "EX% after SFT", "Δ"],
        );
        let models: Vec<&str> = if self.scale.full_grid {
            vec!["llama-7b", "llama-13b"]
        } else {
            vec!["llama-7b"]
        };
        let reprs: Vec<QuestionRepr> = if self.scale.full_grid {
            QuestionRepr::ALL.to_vec()
        } else {
            vec![
                QuestionRepr::AlpacaSft,
                QuestionRepr::CodeRepr,
                QuestionRepr::BasicPrompt,
            ]
        };
        for model in &models {
            for repr in &reprs {
                let base = SimLlm::new(model).unwrap();
                let tuned = base.finetune(style_of(*repr), corpus);
                let pb = ZeroShot::new(base, *repr);
                let pt = ZeroShot::new(tuned, *repr);
                let rb = self.run(&pb, false);
                let rt = self.run(&pt, false);
                t.push_row(vec![
                    model.to_string(),
                    repr.as_str().to_string(),
                    f1(rb.ex_pct()),
                    f1(rt.ex_pct()),
                    f1(rt.ex_pct() - rb.ex_pct()),
                ]);
            }
        }

        // ICL degradation after SFT: few-shot gain before vs after tuning.
        let mut t2 = Table::new(
            "E10b",
            "In-context learning before and after SFT (cf. paper SFT few-shot finding)",
            &[
                "model",
                "variant",
                "0-shot EX%",
                "5-shot EX%",
                "few-shot gain",
            ],
        );
        let model = "llama-13b";
        let base = SimLlm::new(model).unwrap();
        let tuned = base.finetune(PromptStyle::Ddl, corpus);
        for (variant, m) in [("base", base), ("SFT(CR_P)", tuned)] {
            let zero = ZeroShot::new(m.clone(), QuestionRepr::CodeRepr);
            let few = FewShot::new(m.clone(), PromptConfig::dail_sql(5));
            let r0 = self.run(&zero, false);
            let r5 = self.run(&few, false);
            t2.push_row(vec![
                model.to_string(),
                variant.to_string(),
                f1(r0.ex_pct()),
                f1(r5.ex_pct()),
                f1(r5.ex_pct() - r0.ex_pct()),
            ]);
        }

        // Cross-representation serving after SFT (representation lock-in).
        let mut t3 = Table::new(
            "E10c",
            "Serving a representation different from the SFT representation",
            &["model", "trained on", "served with", "EX%"],
        );
        let tuned = SimLlm::new("llama-13b")
            .unwrap()
            .finetune(PromptStyle::Ddl, corpus);
        for serve in [
            QuestionRepr::CodeRepr,
            QuestionRepr::TextRepr,
            QuestionRepr::AlpacaSft,
        ] {
            let p = ZeroShot::new(tuned.clone(), serve);
            let r = self.run(&p, false);
            t3.push_row(vec![
                "llama-13b".to_string(),
                "CR_P".to_string(),
                serve.as_str().to_string(),
                f1(r.ex_pct()),
            ]);
        }
        vec![t, t2, t3]
    }
}

impl ExperimentRunner<'_> {
    // ---- A1: shot-count sweep ----

    fn a1_shot_sweep(&self) -> Vec<Table> {
        let mut t = Table::new(
            "A1",
            "Ablation: DAIL-SQL shot count sweep (EX and prompt tokens per k)",
            &["model", "shots", "EX%", "avg prompt tokens"],
        );
        let mut points: Vec<(f64, f64, char)> = Vec::new();
        let shots: &[usize] = if self.scale.full_grid {
            &[0, 1, 2, 3, 5, 8]
        } else {
            &[0, 1, 5]
        };
        for model in self.main_models() {
            for &k in shots {
                let p = if k == 0 {
                    // 0-shot DAIL-SQL degenerates to zero-shot CR_P.
                    let z = ZeroShot::new(SimLlm::new(model).unwrap(), QuestionRepr::CodeRepr);
                    self.run(&z, false)
                } else {
                    let mut cfg = PromptConfig::dail_sql(k);
                    cfg.shots = k;
                    let f = FewShot::new(SimLlm::new(model).unwrap(), cfg);
                    self.run(&f, false)
                };
                points.push((
                    k as f64,
                    p.ex_pct(),
                    model.chars().next().unwrap_or('?').to_ascii_uppercase(),
                ));
                t.push_row(vec![
                    model.to_string(),
                    k.to_string(),
                    f1(p.ex_pct()),
                    f1(p.cost.avg_prompt_tokens()),
                ]);
            }
        }
        // The shots sweet-spot as a figure (glyph = model initial).
        let mut fig = Table::new(
            "A1fig",
            "Shot-count sweep (G=gpt-4, T=text-davinci-003, V=vicuna-33b; gpt-3.5 shares G's initial region)",
            &["figure"],
        );
        let plot =
            crate::report::ascii_scatter("EX vs shots (DAIL-SQL)", "shots", "EX%", &points, 48, 14);
        fig.push_row(vec![format!("<pre>{plot}</pre>")]);
        vec![t, fig]
    }

    // ---- A2: self-consistency sample count ----

    fn a2_self_consistency(&self) -> Vec<Table> {
        let mut t = Table::new(
            "A2",
            "Ablation: self-consistency sample count for DAIL-SQL (gpt-4)",
            &["samples k", "EX%", "avg calls/query"],
        );
        let ks: &[usize] = if self.scale.full_grid {
            &[1, 3, 5, 10]
        } else {
            &[1, 3]
        };
        for &k in ks {
            let p = dail_core::DailSql::with_self_consistency(SimLlm::new("gpt-4").unwrap(), k);
            let r = self.run(&p, false);
            t.push_row(vec![
                k.to_string(),
                f1(r.ex_pct()),
                f1(r.cost.avg_api_calls()),
            ]);
        }
        vec![t]
    }

    // ---- A3: example-pool size ----

    fn a3_pool_size(&self) -> Vec<Table> {
        let mut t = Table::new(
            "A3",
            "Ablation: training-pool size available to DAIL selection (gpt-4, 5-shot)",
            &["pool size", "EX%", "mean skeleton-sim of picks"],
        );
        let full = self.bench.train.len();
        let sizes: Vec<usize> = if self.scale.full_grid {
            vec![25, 100, 400, full]
        } else {
            vec![25, full]
        };
        for size in sizes {
            let mut truncated = self.bench.clone();
            truncated.train.truncate(size);
            let selector = ExampleSelector::new(&truncated);
            let p = FewShot::new(SimLlm::new("gpt-4").unwrap(), PromptConfig::dail_sql(5));
            let items = &truncated.dev[..self.scale.dev_cap.min(truncated.dev.len())];
            let r = evaluate(&truncated, &selector, &p, items, self.seed, false);
            // Selection-quality diagnostic on the truncated pool.
            let sub_runner = ExperimentRunner {
                bench: &truncated,
                selector: ExampleSelector::new(&truncated),
                scale: self.scale,
                seed: self.seed,
            };
            let sk = sub_runner.selection_skeleton_similarity(SelectionStrategy::Dail, 5);
            t.push_row(vec![size.to_string(), f1(r.ex_pct()), format!("{sk:.3}")]);
        }
        vec![t]
    }

    // ---- A5: table content rows ----

    fn a5_table_content(&self) -> Vec<Table> {
        let mut t = Table::new(
            "A5",
            "Ablation: sampled table content in the prompt (paper's content toggle)",
            &["model", "content rows", "EX%", "avg prompt tokens"],
        );
        for model in self.main_models() {
            for rows in [0usize, 3] {
                let p = ZeroShot {
                    model: SimLlm::new(model).unwrap(),
                    repr: QuestionRepr::CodeRepr,
                    opts: ReprOptions {
                        content_rows: rows,
                        ..ReprOptions::default()
                    },
                };
                let r = self.run(&p, false);
                t.push_row(vec![
                    model.to_string(),
                    rows.to_string(),
                    f1(r.ex_pct()),
                    f1(r.cost.avg_prompt_tokens()),
                ]);
            }
        }
        vec![t]
    }

    // ---- A6: error analysis ----

    fn a6_error_analysis(&self) -> Vec<Table> {
        use crate::errors::{analyze_errors, ErrorClass};
        let mut t = Table::new(
            "A6",
            "Error analysis: failure classes for zero-shot vs DAIL-SQL (gpt-4)",
            &["error class", "zero-shot %", "DAIL-SQL 5-shot %"],
        );
        let items = self.items();
        let zero = ZeroShot::new(SimLlm::new("gpt-4").unwrap(), QuestionRepr::CodeRepr);
        let dail = dail_core::DailSql::new(SimLlm::new("gpt-4").unwrap());
        let bz = analyze_errors(self.bench, &self.selector, &zero, items, self.seed);
        let bd = analyze_errors(self.bench, &self.selector, &dail, items, self.seed);
        for class in [
            ErrorClass::Correct,
            ErrorClass::InvalidSql,
            ErrorClass::ExecutionError,
            ErrorClass::WrongSkeleton,
            ErrorClass::WrongSchemaLinking,
            ErrorClass::WrongValue,
            ErrorClass::NearMiss,
        ] {
            t.push_row(vec![
                class.as_str().to_string(),
                f1(bz.pct(class)),
                f1(bd.pct(class)),
            ]);
        }
        vec![t]
    }

    // ---- A4: prompt token budget ----

    fn a4_token_budget(&self) -> Vec<Table> {
        let mut t = Table::new(
            "A4",
            "Ablation: prompt token budget with FULL organization (gpt-4, 8 shots requested)",
            &[
                "max tokens",
                "EX%",
                "avg prompt tokens",
                "avg examples kept",
            ],
        );
        let budgets: &[usize] = if self.scale.full_grid {
            &[300, 600, 1200, 8192]
        } else {
            &[300, 8192]
        };
        for &budget in budgets {
            let cfg = PromptConfig {
                repr: QuestionRepr::CodeRepr,
                opts: ReprOptions::default(),
                selection: SelectionStrategy::MaskedQuestionSimilarity,
                organization: OrganizationStrategy::Full,
                shots: 8,
                max_tokens: budget,
            };
            let p = FewShot::new(SimLlm::new("gpt-4").unwrap(), cfg);
            let r = self.run(&p, false);
            // Estimate examples kept from token usage (a FULL CR_P example
            // costs ~165 tokens on this benchmark), capped at the request.
            let kept = ((r.cost.avg_prompt_tokens() - 160.0) / 165.0).clamp(0.0, 8.0);
            t.push_row(vec![
                budget.to_string(),
                f1(r.ex_pct()),
                f1(r.cost.avg_prompt_tokens()),
                f1(kept),
            ]);
        }
        vec![t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_gen::BenchmarkConfig;

    fn runner(bench: &Benchmark) -> ExperimentRunner<'_> {
        ExperimentRunner::new(
            bench,
            Scale {
                dev_cap: 12,
                full_grid: false,
            },
            11,
        )
    }

    #[test]
    fn ablations_produce_tables() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let r = runner(&bench);
        for id in ExperimentRunner::ABLATION_IDS {
            let tables = r.run_experiment(id);
            assert!(!tables.is_empty(), "{id}");
            assert!(tables.iter().all(|t| !t.rows.is_empty()), "{id}");
        }
    }

    #[test]
    fn all_experiments_produce_tables() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let r = runner(&bench);
        for id in ExperimentRunner::ALL_IDS {
            let tables = r.run_experiment(id);
            assert!(!tables.is_empty(), "{id}");
            for t in &tables {
                assert!(!t.rows.is_empty(), "{id}/{}", t.id);
                for row in &t.rows {
                    assert_eq!(row.len(), t.headers.len());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        runner(&bench).run_experiment("e99");
    }

    #[test]
    fn traced_experiment_emits_span_and_manifest() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let rec = obskit::Recorder::enabled();
        let _sink = rec.enter();
        runner(&bench).run_experiment("a2");
        let events = rec.events();
        assert!(events
            .iter()
            .any(|e| matches!(e, obskit::Event::SpanEnd { name, .. } if name == "experiment.a2")));
        let manifest = events
            .iter()
            .find_map(|e| match e {
                obskit::Event::Meta { name, fields } if name == "experiment.a2" => Some(fields),
                _ => None,
            })
            .expect("manifest meta event");
        let keys: Vec<&str> = manifest.iter().map(|(k, _)| k.as_str()).collect();
        for key in [
            "seed",
            "dev_cap",
            "full_grid",
            "git",
            "tables",
            "duration_ms",
        ] {
            assert!(keys.contains(&key), "missing {key} in {keys:?}");
        }
        // The harness ran under this experiment: cost counters are present.
        assert!(rec.metrics().counters["eval.items"] > 0);
    }
}
