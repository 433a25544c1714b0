//! Conditional termination at scale: run the full analyzer and the baseline capability
//! profiles over a few representative benchmark programs and compare their answers.
//!
//! Run with `cargo run --example conditional_termination`.

use hiptnt::baselines::{Alternation, Analyzer, HipTntPlus, IntegerLoopOnly, TermOnly};

fn main() {
    let programs = [
        (
            "conditional foo (diverges iff x >= 0 and y >= 0)",
            "void foo(int x, int y) { if (x < 0) { return; } else { foo(x + y, y); } }\n\
             void main(int x, int y) { foo(x, y); }",
        ),
        (
            "bounded count-up (terminates)",
            "void main(int n) { int i = 0; while (i < n) { i = i + 1; } }",
        ),
        (
            "runaway counter (diverges for x >= 0)",
            "void main(int x) { while (x >= 0) { x = x + 1; } }",
        ),
    ];
    let hiptnt = HipTntPlus::default();
    let aprove = TermOnly::default();
    let ultimate = Alternation::default();
    let t2 = IntegerLoopOnly::default();
    let tools: Vec<&dyn Analyzer> = vec![&hiptnt, &aprove, &ultimate, &t2];

    let sources = programs.map(|(_, source)| source);
    let runs: Vec<_> = tools.iter().map(|tool| tool.run(&sources)).collect();
    for (i, (title, _)) in programs.iter().enumerate() {
        println!("{title}");
        for (tool, runs) in tools.iter().zip(&runs) {
            let run = runs[i];
            println!(
                "  {:<18} {:>4}   ({:.3}s)",
                tool.name(),
                run.answer.to_string(),
                run.elapsed
            );
        }
        println!();
    }
}
