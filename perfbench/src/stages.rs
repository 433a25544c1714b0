//! The analysis pipeline split at the public entry point of each crate, so a
//! traced run can time every stage from outside the program.
//!
//! [`decompose`] performs the same steps as `tnt_infer::analyze_source`
//! (front end, Hoare verification, solve, validation, summaries), calling
//! each layer's public function in turn and reading the per-thread work
//! counters around the calls. [`reference`] is the untraced call it must
//! reproduce byte for byte.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use tnt_infer::solve::{SolveOptions, SolveStats};
use tnt_infer::summary::{CaseStatus, SummaryCase};
use tnt_infer::{AnalysisResult, InferOptions, ProgramKey};

/// Seconds spent in each stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    /// `tnt_lang::frontend`: parse, type-check, desugar, normalise.
    pub frontend: f64,
    /// `tnt_infer::ProgramKey::of`: canonical program text and its hash.
    pub key: f64,
    /// `tnt_verify::hoare::verify_program`.
    pub hoare: f64,
    /// `tnt_infer::solve::solve`.
    pub solve: f64,
    /// `tnt_infer::solve::validate_with_budget`.
    pub validate: f64,
    /// `tnt_infer::summary::summaries`, labelling and rendering.
    pub summary: f64,
}

impl StageTimes {
    /// The analysis proper: everything after the front end and the key.
    pub fn analysis(&self) -> f64 {
        self.hoare + self.solve + self.validate + self.summary
    }

    /// Every stage.
    pub fn total(&self) -> f64 {
        self.frontend + self.key + self.analysis()
    }

    /// Adds `other` stage by stage.
    pub fn add(&mut self, other: &StageTimes) {
        self.frontend += other.frontend;
        self.key += other.key;
        self.hoare += other.hoare;
        self.solve += other.solve;
        self.validate += other.validate;
        self.summary += other.summary;
    }
}

/// Per-thread counter deltas over one decomposed analysis.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// `tnt_solver::simplex::pivot_work`.
    pub pivots: u64,
    /// `tnt_logic::dnf::cube_work`.
    pub cubes: u64,
    /// `tnt_solver::rational::overflow_work`.
    pub overflows: u64,
}

/// One program taken through the stages.
#[derive(Clone, Debug)]
pub struct Decomposed {
    /// Time per stage.
    pub times: StageTimes,
    /// Counter deltas over all stages.
    pub counters: Counters,
    /// The solver's statistics.
    pub stats: SolveStats,
    /// Rendered summaries by label, as `analyze_program` labels them.
    pub rendered: BTreeMap<String, String>,
}

/// The solver options `InferOptions` stands for.
pub fn solve_options(options: &InferOptions) -> SolveOptions {
    SolveOptions {
        max_iterations: options.max_iterations,
        enable_base_case: options.enable_base_case,
        enable_case_split: options.enable_case_split,
        lexicographic: options.lexicographic,
        max_lex_components: options.max_lex_components,
        multiphase: options.multiphase,
        max_phases: options.max_phases,
        recurrent: options.recurrent,
        orbit_enrichment: options.orbit_enrichment,
        work_budget: options.work_budget,
        max_total_cases: options.max_total_cases,
        max_splits_per_family: options.max_splits_per_family,
    }
}

fn counters_now() -> Counters {
    Counters {
        pivots: tnt_solver::simplex::pivot_work(),
        cubes: tnt_logic::dnf::cube_work(),
        overflows: tnt_solver::rational::overflow_work(),
    }
}

/// Renders an analysis result's summaries by label.
pub fn render(result: &AnalysisResult) -> BTreeMap<String, String> {
    result
        .summaries
        .iter()
        .map(|(label, summary)| (label.clone(), summary.render()))
        .collect()
}

/// Takes `source` through the stages on the calling thread.
pub fn decompose(source: &str, options: &InferOptions) -> Result<Decomposed, String> {
    let mut times = StageTimes::default();
    let before = counters_now();

    let start = Instant::now();
    let program = tnt_lang::frontend(source)?;
    times.frontend = start.elapsed().as_secs_f64();

    let start = Instant::now();
    black_box(ProgramKey::of(black_box(&program), options));
    times.key = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let analysis = tnt_verify::hoare::verify_program(&program).map_err(|e| e.to_string())?;
    times.hoare = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let (theta, stats) = tnt_infer::solve::solve(&analysis, &solve_options(options));
    times.solve = start.elapsed().as_secs_f64();

    let start = Instant::now();
    if options.validate {
        black_box(tnt_infer::solve::validate_with_budget(
            &analysis,
            &theta,
            options.work_budget,
        ));
    }
    times.validate = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut labelled = BTreeMap::new();
    for summary in tnt_infer::summary::summaries(&analysis, &theta) {
        let scenario_label = format!("{}#{}", summary.method, summary.scenario_index);
        let label = if labelled.contains_key(&summary.method)
            || analysis.methods.contains_key(&scenario_label)
        {
            scenario_label
        } else {
            summary.method.clone()
        };
        labelled.insert(label, summary);
    }
    // A saturated rational operation anywhere since verification began
    // degrades every summary to the inconclusive outcome, as the analyzer does.
    let poisoned = tnt_solver::rational::overflow_work() != before.overflows;
    let rendered = labelled
        .into_iter()
        .map(|(label, mut summary)| {
            if poisoned {
                summary.cases = vec![SummaryCase {
                    guard: tnt_logic::Formula::True,
                    status: CaseStatus::MayLoop,
                }];
                summary.precondition = None;
            }
            (label, summary.render())
        })
        .collect();
    times.summary = start.elapsed().as_secs_f64();

    let after = counters_now();
    Ok(Decomposed {
        times,
        counters: Counters {
            pivots: after.pivots.wrapping_sub(before.pivots),
            cubes: after.cubes.wrapping_sub(before.cubes),
            overflows: after.overflows.wrapping_sub(before.overflows),
        },
        stats,
        rendered,
    })
}

/// The untraced analysis [`decompose`] must reproduce: one
/// `tnt_infer::analyze_source` call.
pub fn reference(source: &str, options: &InferOptions) -> Result<AnalysisResult, String> {
    tnt_infer::analyze_source(source, options).map_err(|e| e.to_string())
}
