//! Ablation study over the design choices of the inference engine:
//! abductive case splitting, semantic base-case inference, lexicographic measures,
//! the multiphase/max ranking domain, closed recurrent-set synthesis, and
//! orbit-harvested recurrent-set enrichment (whose row shows the drift-family
//! `U → N` conversions: sum-boundary recurrent sets no other source finds).
//!
//! With `--json` the table is emitted as JSON only (the CI smoke test contract).

use tnt_baselines::{Analyzer, HipTntPlus};
use tnt_bench::Table;
use tnt_infer::{AnalysisSession, InferOptions};

fn main() {
    let suites = vec![tnt_suite::crafted(), tnt_suite::crafted_lit()];
    // One session per option profile: each profile reuses summaries across
    // the template-duplicated corpora under its own options.
    let profile = HipTntPlus::with_options;
    let full = profile(InferOptions::default());
    let no_split = profile(InferOptions {
        enable_case_split: false,
        ..InferOptions::default()
    });
    let no_base = profile(InferOptions {
        enable_base_case: false,
        ..InferOptions::default()
    });
    let no_lex = profile(InferOptions {
        lexicographic: false,
        ..InferOptions::default()
    });
    let no_multiphase = profile(InferOptions {
        multiphase: false,
        ..InferOptions::default()
    });
    let no_recurrent = profile(InferOptions {
        recurrent: false,
        ..InferOptions::default()
    });
    let no_orbit = profile(InferOptions {
        orbit_enrichment: false,
        ..InferOptions::default()
    });
    struct Named<'a>(&'static str, &'a HipTntPlus);
    impl Analyzer for Named<'_> {
        fn name(&self) -> &'static str {
            self.0
        }
        fn run(&self, source: &str) -> tnt_baselines::ToolRun {
            self.1.run(source)
        }
        fn session(&self) -> &AnalysisSession {
            self.1.session()
        }
    }
    let full = Named("full", &full);
    let no_split = Named("no case-split", &no_split);
    let no_base = Named("no base-case", &no_base);
    let no_lex = Named("no lexicographic", &no_lex);
    let no_multiphase = Named("no multiphase/max", &no_multiphase);
    let no_recurrent = Named("no recurrent-set", &no_recurrent);
    let no_orbit = Named("no orbit-enrichment", &no_orbit);
    let tools: Vec<&dyn Analyzer> = vec![
        &full,
        &no_split,
        &no_base,
        &no_lex,
        &no_multiphase,
        &no_recurrent,
        &no_orbit,
    ];
    let table = Table::build(&tools, &suites);
    if std::env::args().any(|a| a == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&table).expect("serialisable")
        );
    } else {
        println!(
            "{}",
            table.render("Ablation: feature switches of the inference engine")
        );
        println!("{}", tnt_bench::session_line(&tools));
    }
}
