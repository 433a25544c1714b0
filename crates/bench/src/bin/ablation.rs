//! Ablation study over the design choices of the inference engine:
//! abductive case splitting, semantic base-case inference, lexicographic measures,
//! the multiphase/max ranking domain, closed recurrent-set synthesis, and
//! orbit-harvested recurrent-set enrichment (whose row shows the drift-family
//! `U → N` conversions: sum-boundary recurrent sets no other source finds).
//!
//! With `--json` the table is emitted as JSON only (the CI smoke test contract).

use tnt_baselines::{Analyzer, HipTntPlus};
use tnt_bench::Table;
use tnt_infer::InferOptions;

fn main() {
    let suites = vec![tnt_suite::crafted(), tnt_suite::crafted_lit()];
    // One session per option profile: each profile reuses summaries across
    // the template-duplicated corpora under its own options.
    let profile = |name, switch_off: fn(&mut InferOptions)| {
        let mut options = InferOptions::default();
        switch_off(&mut options);
        HipTntPlus::with_options(name, options)
    };
    let profiles = [
        profile("full", |_| {}),
        profile("no case-split", |o| o.enable_case_split = false),
        profile("no base-case", |o| o.enable_base_case = false),
        profile("no lexicographic", |o| o.lexicographic = false),
        profile("no multiphase/max", |o| o.multiphase = false),
        profile("no recurrent-set", |o| o.recurrent = false),
        profile("no orbit-enrichment", |o| o.orbit_enrichment = false),
    ];
    let tools: Vec<&dyn Analyzer> = profiles.iter().map(|p| p as &dyn Analyzer).collect();
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
