//! Regenerates Figure 11: the comparison with the T2 capability profile on
//! loop-based integer programs.

use tnt_baselines::{Analyzer, HipTntPlus, IntegerLoopOnly};
use tnt_bench::Table;

fn main() {
    let suites = vec![tnt_suite::integer_loops()];
    // Each profile owns its own session (see fig10.rs).
    let t2 = IntegerLoopOnly::default();
    let hiptnt = HipTntPlus::default();
    let tools: Vec<&dyn Analyzer> = vec![&t2, &hiptnt];
    let table = Table::build(&tools, &suites);
    // `--json` emits JSON only (the CI smoke test pipes the output through a
    // JSON parser); without it the paper's table format is printed.
    if std::env::args().any(|a| a == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&table).expect("serialisable")
        );
    } else {
        println!("{}", table.render("Figure 11: Loop-based integer programs"));
        println!("{}", tnt_bench::session_line(&tools));
    }
}
