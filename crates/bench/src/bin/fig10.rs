//! Regenerates Figure 10: termination outcomes on the SV-COMP'15-like benchmark
//! suites for the AProVE/ULTIMATE capability profiles and HIPTNT+.

use tnt_baselines::{Alternation, Analyzer, HipTntPlus, TermOnly};
use tnt_bench::Table;

fn main() {
    let suites = tnt_suite::svcomp_suites();
    // Each capability profile owns a session built for its own options, so
    // template duplicates are solved once per profile.
    let aprove = TermOnly::default();
    let ultimate = Alternation::default();
    let hiptnt = HipTntPlus::default();
    let tools: Vec<&dyn Analyzer> = vec![&aprove, &ultimate, &hiptnt];
    let table = Table::build(&tools, &suites);
    // `--json` emits JSON only (the CI smoke test pipes the output through a
    // JSON parser); without it the paper's table format is printed.
    if std::env::args().any(|a| a == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&table).expect("serialisable")
        );
    } else {
        println!(
            "{}",
            table.render("Figure 10: Termination outcomes on SV-COMP'15-like benchmarks")
        );
        println!("{}", tnt_bench::session_line(&tools));
    }
}
