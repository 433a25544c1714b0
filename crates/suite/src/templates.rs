//! Program templates with ground-truth verdicts.
//!
//! Each template is a function from a few integer parameters to a self-contained
//! program in the core language plus the ground truth of the SV-COMP termination
//! property ("do all executions of `main` terminate?"). The corpora of
//! [`crate::corpora`] instantiate these templates with varying parameters.

use std::fmt;
use tnt_infer::Outcome;

/// Ground truth of a benchmark program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expected {
    /// Every execution terminates.
    Terminating,
    /// Some execution does not terminate.
    NonTerminating,
}

impl fmt::Display for Expected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expected::Terminating => write!(f, "terminating"),
            Expected::NonTerminating => write!(f, "non-terminating"),
        }
    }
}

impl Expected {
    /// `true` when `outcome` contradicts this ground truth: `Y` on a
    /// non-terminating program or `N` on a terminating one, the soundness
    /// violation the paper's re-verification rules out.
    pub fn contradicts(self, outcome: Outcome) -> bool {
        matches!(
            (outcome, self),
            (Outcome::Yes, Expected::NonTerminating) | (Outcome::No, Expected::Terminating)
        )
    }

    /// `true` when `outcome` is the definite answer matching this ground truth.
    pub fn confirms(self, outcome: Outcome) -> bool {
        matches!(
            (outcome, self),
            (Outcome::Yes, Expected::Terminating) | (Outcome::No, Expected::NonTerminating)
        )
    }
}

/// One benchmark program.
#[derive(Clone, Debug)]
pub struct BenchProgram {
    /// Unique name within its suite.
    pub name: String,
    /// Source text in the core language.
    pub source: String,
    /// Ground truth.
    pub expected: Expected,
    /// Whether the program uses the heap (pointers/allocation).
    pub uses_heap: bool,
    /// Whether the program uses recursion (before loop desugaring).
    pub uses_recursion: bool,
}

impl BenchProgram {
    fn new(
        name: impl Into<String>,
        source: impl Into<String>,
        expected: Expected,
        uses_heap: bool,
        uses_recursion: bool,
    ) -> BenchProgram {
        BenchProgram {
            name: name.into(),
            source: source.into(),
            expected,
            uses_heap,
            uses_recursion,
        }
    }
}

// ---------------------------------------------------------------- terminating loops

/// `while (x > 0) x = x - step;` — terminates for every input when `step ≥ 1`.
pub fn countdown(name: &str, step: i128) -> BenchProgram {
    let source = format!("void main(int x) {{ while (x > 0) {{ x = x - {step}; }} }}");
    BenchProgram::new(name, source, Expected::Terminating, false, false)
}

/// `for (i = lo; i < n; i += step)` — terminates when `step ≥ 1`.
pub fn count_up(name: &str, lo: i128, step: i128) -> BenchProgram {
    let source =
        format!("void main(int n) {{ int i = {lo}; while (i < n) {{ i = i + {step}; }} }}");
    BenchProgram::new(name, source, Expected::Terminating, false, false)
}

/// Two sequential loops over independent counters.
pub fn two_phase(name: &str, step: i128) -> BenchProgram {
    let source = format!(
        "void main(int n, int m)\n\
         {{ int i = 0;\n   while (i < n) {{ i = i + {step}; }}\n   int j = m;\n   while (j > 0) {{ j = j - {step}; }}\n }}"
    );
    BenchProgram::new(name, source, Expected::Terminating, false, false)
}

/// Nested loops: the classic `O(n·m)` double loop.
pub fn nested_loops(name: &str, step: i128) -> BenchProgram {
    let source = format!(
        "void main(int n, int m)\n\
         {{ int i = 0;\n   while (i < n) {{\n     int j = 0;\n     while (j < m) {{ j = j + {step}; }}\n     i = i + {step};\n   }}\n }}"
    );
    BenchProgram::new(name, source, Expected::Terminating, false, false)
}

/// Recursive countdown `down(n) = if n <= bound return else down(n - step)`.
pub fn recursive_countdown(name: &str, bound: i128, step: i128) -> BenchProgram {
    let source = format!(
        "void down(int n) {{ if (n <= {bound}) {{ return; }} else {{ down(n - {step}); }} }}\n\
         void main(int n) {{ down(n); }}"
    );
    BenchProgram::new(name, source, Expected::Terminating, false, true)
}

/// Mutual recursion between two decreasing methods.
pub fn mutual_recursion(name: &str, step: i128) -> BenchProgram {
    let source = format!(
        "void even(int n) {{ if (n <= 0) {{ return; }} else {{ odd(n - {step}); }} }}\n\
         void odd(int n) {{ if (n <= 0) {{ return; }} else {{ even(n - {step}); }} }}\n\
         void main(int n) {{ even(n); }}"
    );
    BenchProgram::new(name, source, Expected::Terminating, false, true)
}

/// A bounded counter driven towards the bound from both sides.
pub fn converge(name: &str, target: i128) -> BenchProgram {
    let source = format!(
        "void main(int x)\n\
         {{ while (x != {target}) {{\n     if (x > {target}) {{ x = x - 1; }} else {{ x = x + 1; }}\n   }}\n }}"
    );
    BenchProgram::new(name, source, Expected::Terminating, false, false)
}

/// The McCarthy 91 function with its functional specification (paper Fig. 3b).
pub fn mccarthy91(name: &str) -> BenchProgram {
    let source = "\
int Mc91(int n)
  requires true ensures n <= 100 && res == 91 || n > 100 && res == n - 10;
{ if (n > 100) { return n - 10; } else { return Mc91(Mc91(n + 11)); } }
void main(int n) { int r = Mc91(n); }";
    BenchProgram::new(name, source, Expected::Terminating, false, true)
}

/// Ackermann-style descent with a functional specification (paper Fig. 3a).
pub fn ackermann(name: &str) -> BenchProgram {
    let source = "\
int Ack(int m, int n)
  requires m >= 0 && n >= 0 ensures res >= n + 1;
{ if (m == 0) { return n + 1; }
  else { if (n == 0) { return Ack(m - 1, 1); }
         else { return Ack(m - 1, Ack(m, n - 1)); } } }
void main(int m, int n) { assume(m >= 0); assume(n >= 0); int r = Ack(m, n); }";
    BenchProgram::new(name, source, Expected::Terminating, false, true)
}

/// A phase-change loop: `x` first rises while `y` falls, then both fall. Terminating,
/// but beyond plain linear ranking over the loop variables alone (ground truth: T,
/// most tools answer unknown).
pub fn phase_change_hard(name: &str, boost: i128) -> BenchProgram {
    let source = format!(
        "void main(int x, int y)\n\
         {{ while (x > 0) {{ x = x + y; y = y - {boost}; }} }}"
    );
    BenchProgram::new(name, source, Expected::Terminating, false, false)
}

/// Subtractive gcd-style loop (terminating for positive inputs; needs a max-based or
/// multi-phase argument, so linear-ranking tools typically answer unknown).
pub fn gcd_like(name: &str) -> BenchProgram {
    let source = "\
void main(int x, int y)
{ assume(x > 0); assume(y > 0);
  while (x != y) {
    if (x > y) { x = x - y; } else { y = y - x; }
  }
}";
    BenchProgram::new(name, source, Expected::Terminating, false, false)
}

/// A gcd-style recursion whose non-positive branches escape into a diverging
/// helper. The entry `assume`s restrict `main` to positive inputs, under which
/// the trap branches are unreachable — provable only by the conditional
/// termination prover's relaxed external-edge rule (the region `x ≥ 1 ∧ y ≥ 1`
/// makes the escaping edges infeasible).
pub fn guarded_gcd_with_trap(name: &str) -> BenchProgram {
    let source = "\
void chaos(int a) { chaos(a + 1); }
void gmix(int x, int y)
{ if (x == y) { return; }
  else { if (x <= 0) { chaos(x); }
         else { if (y <= 0) { chaos(y); }
                else { if (x > y) { gmix(x - y, y); } else { gmix(x, y - x); } } } }
}
void main(int x, int y) { assume(x >= 1); assume(y >= 1); gmix(x, y); }";
    BenchProgram::new(name, source, Expected::Terminating, false, true)
}

/// Conditional termination resolved by an `assume`: the loop only runs on inputs for
/// which it terminates.
pub fn assumed_terminating(name: &str, step: i128) -> BenchProgram {
    let source = format!(
        "void main(int x, int d)\n\
         {{ assume(d >= {step});\n   while (x > 0) {{ x = x - d; }}\n }}"
    );
    BenchProgram::new(name, source, Expected::Terminating, false, false)
}

// ------------------------------------------------------------ non-terminating loops

/// `while (x >= bound) x = x + step;` — diverges for `x ≥ bound` (step ≥ 0).
pub fn diverging_counter(name: &str, bound: i128, step: i128) -> BenchProgram {
    let source = format!("void main(int x) {{ while (x >= {bound}) {{ x = x + {step}; }} }}");
    BenchProgram::new(name, source, Expected::NonTerminating, false, false)
}

/// The paper's running example `foo` (Fig. 1): terminating for `y < 0` or `x < 0`,
/// diverging for `x ≥ 0 ∧ y ≥ 0`.
pub fn paper_foo(name: &str, offset: i128) -> BenchProgram {
    let source = format!(
        "void foo(int x, int y)\n\
         {{ if (x < {offset}) {{ return; }} else {{ foo(x + y, y); }} }}\n\
         void main(int x, int y) {{ foo(x, y); }}"
    );
    BenchProgram::new(name, source, Expected::NonTerminating, false, true)
}

/// An unconditional infinite loop guarded by a tautology.
pub fn infinite_loop(name: &str) -> BenchProgram {
    let source = "void main(int x) { while (0 == 0) { x = x + 1; } }";
    BenchProgram::new(name, source, Expected::NonTerminating, false, false)
}

/// Recursion that grows its argument — diverges whenever the guard is reached.
pub fn diverging_recursion(name: &str, bound: i128) -> BenchProgram {
    let source = format!(
        "void up(int n) {{ if (n < {bound}) {{ return; }} else {{ up(n + 1); }} }}\n\
         void main(int n) {{ up(n); }}"
    );
    BenchProgram::new(name, source, Expected::NonTerminating, false, true)
}

/// A loop whose exit condition is never reachable because the counter skips it.
pub fn skipping_counter(name: &str, step: i128) -> BenchProgram {
    let source = format!(
        "void main(int x)\n\
         {{ assume(x >= 1);\n   while (x != 0) {{ x = x + {step}; }}\n }}"
    );
    BenchProgram::new(name, source, Expected::NonTerminating, false, false)
}

/// The aperiodic nimkar pattern: the outer counter climbs while an inner loop
/// drains a second variable, so no lasso-shaped (periodic) witness exists.
/// Modular summarization of the inner loop reduces the outer loop to an
/// inductively closed region, yielding a definite `N` with the inferred
/// non-termination precondition `k >= 0`.
pub fn nimkar_aperiodic(name: &str) -> BenchProgram {
    let source = "\
void main(int j, int k)
{ while (k >= 0) {
    k = k + 1;
    j = k;
    while (j >= 1) { j = j - 1; }
  }
}";
    BenchProgram::new(name, source, Expected::NonTerminating, false, false)
}

/// Additive drift with compounding satellites: `x` moves by `y + z` while both
/// satellites double every iteration, so the loop diverges exactly on the
/// non-affine-reachable boundary `y + z ≥ 0` (with `x ≥ bound`). No single
/// variable's sign decides divergence and the abductive splitter's
/// weakest-precondition slabs never coincide with the sum boundary, so the
/// recurrent set is only found by orbit-harvested sum atoms — the headline
/// `U → N` conversion of the `no orbit-enrichment` ablation row.
pub fn drift_additive(name: &str, bound: i128) -> BenchProgram {
    let source = format!(
        "void main(int x, int y, int z)\n\
         {{ while (x >= {bound}) {{ x = x + y + z; y = y + y; z = z + z; }} }}"
    );
    BenchProgram::new(name, source, Expected::NonTerminating, false, false)
}

/// Conserved-sum drift: `x` moves by `y + z` while a transfer of `transfer`
/// per step keeps `y + z` exactly invariant. Divergence is again decided by
/// the conserved sum (`y + z ≥ 0` keeps `x` from ever sinking), which only the
/// orbit harvest's fitted affine combinations recover; certifying the fitted
/// region is the most expensive enrichment in the corpus (a few hundred
/// thousand work units), which the default work budget is sized to cover.
pub fn drift_coupled(name: &str, transfer: i128) -> BenchProgram {
    let source = format!(
        "void main(int x, int y, int z)\n\
         {{ while (x >= 0) {{ x = x + y + z; y = y - {transfer}; z = z + {transfer}; }} }}"
    );
    BenchProgram::new(name, source, Expected::NonTerminating, false, false)
}

/// Lagged drift: `x` is *replaced* by `y + z` each iteration while `y` climbs,
/// so after one step the guard is decided by the previous sum. The very first
/// abductive split already lands the divergence region, making this the
/// control member of the drift family: a definite `N` with or without orbit
/// enrichment.
pub fn drift_lagged(name: &str, step: i128) -> BenchProgram {
    let source = format!(
        "void main(int x, int y, int z)\n\
         {{ while (x >= 0) {{ x = y + z; y = y + {step}; }} }}"
    );
    BenchProgram::new(name, source, Expected::NonTerminating, false, false)
}

/// A non-deterministically controlled loop: some execution runs forever.
pub fn nondet_loop(name: &str) -> BenchProgram {
    let source = "void main(int x) { while (nondet() > 0) { x = x + 1; } }";
    BenchProgram::new(name, source, Expected::NonTerminating, false, false)
}

// --------------------------------------------------------------------- heap programs

const LIST_PRELUDE: &str = "\
data node { node next; }
pred lseg(root, q, n) == root = q & n = 0
   or root -> node(p) * lseg(p, q, n - 1);
pred cll(root, n) == root -> node(p) * lseg(p, root, n - 1);
lemma lseg(a, b, m) * b -> node(a) == cll(a, m + 1);
";

/// Traversal of a null-terminated list segment (terminating).
pub fn list_traversal(name: &str) -> BenchProgram {
    let source = format!(
        "{LIST_PRELUDE}\
void walk(node x)
  requires lseg(x, null, n) ensures true;
{{ if (x == null) {{ return; }} else {{ node t = x.next; walk(t); }} }}
void main(node x)
  requires lseg(x, null, n) ensures true;
{{ walk(x); }}"
    );
    BenchProgram::new(name, source, Expected::Terminating, true, true)
}

/// The paper's `append` on a null-terminated segment (terminating, Fig. 4 scenario 1).
pub fn list_append(name: &str) -> BenchProgram {
    let source = format!(
        "{LIST_PRELUDE}\
void append(node x, node y)
  requires lseg(x, null, n) & x != null ensures true;
{{ if (x.next == null) {{ x.next = y; }} else {{ append(x.next, y); }} }}
void main(node x, node y)
  requires lseg(x, null, n) & x != null ensures true;
{{ append(x, y); }}"
    );
    BenchProgram::new(name, source, Expected::Terminating, true, true)
}

/// The paper's `append` on a circular list (non-terminating, Fig. 4 scenario 2).
pub fn circular_append(name: &str) -> BenchProgram {
    let source = format!(
        "{LIST_PRELUDE}\
void append(node x, node y)
  requires cll(x, n) ensures true;
{{ if (x.next == null) {{ x.next = y; }} else {{ append(x.next, y); }} }}
void main(node x, node y)
  requires cll(x, n) ensures true;
{{ append(x, y); }}"
    );
    BenchProgram::new(name, source, Expected::NonTerminating, true, true)
}

/// Allocation of a list of `n` cells followed by a bounded countdown (terminating).
pub fn alloc_then_count(name: &str, step: i128) -> BenchProgram {
    let source = format!(
        "data node {{ node next; }}\n\
         void main(int n)\n\
         {{ node head = null;\n   int i = n;\n   while (i > 0) {{ node c = new node(head); head = c; i = i - {step}; }}\n }}"
    );
    BenchProgram::new(name, source, Expected::Terminating, true, false)
}

/// Allocation loop whose counter never decreases (non-terminating).
pub fn alloc_diverging(name: &str) -> BenchProgram {
    let source = "\
data node { node next; }
void main(int n)
{ node head = null;
  while (n >= 0) { node c = new node(head); head = c; n = n + 1; }
}";
    BenchProgram::new(name, source, Expected::NonTerminating, true, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_frontend(p: &BenchProgram) {
        tnt_lang::frontend(&p.source)
            .unwrap_or_else(|e| panic!("{} does not compile: {e}", p.name));
    }

    #[test]
    fn all_templates_compile_through_the_frontend() {
        let programs = vec![
            countdown("t1", 1),
            count_up("t2", 0, 2),
            two_phase("t3", 1),
            nested_loops("t4", 1),
            recursive_countdown("t5", 0, 1),
            mutual_recursion("t6", 1),
            converge("t7", 5),
            mccarthy91("t8"),
            ackermann("t9"),
            phase_change_hard("t10", 1),
            gcd_like("t11"),
            assumed_terminating("t12", 1),
            guarded_gcd_with_trap("t13"),
            diverging_counter("n1", 0, 1),
            paper_foo("n2", 0),
            infinite_loop("n3"),
            diverging_recursion("n4", 0),
            skipping_counter("n5", 1),
            nondet_loop("n6"),
            nimkar_aperiodic("n7"),
            drift_additive("n8", 0),
            drift_coupled("n9", 1),
            drift_lagged("n10", 1),
            list_traversal("h1"),
            list_append("h2"),
            circular_append("h3"),
            alloc_then_count("h4", 1),
            alloc_diverging("h5"),
        ];
        for p in &programs {
            check_frontend(p);
        }
    }

    #[test]
    fn ground_truth_labels_are_consistent() {
        assert_eq!(countdown("x", 1).expected, Expected::Terminating);
        assert_eq!(
            diverging_counter("x", 0, 1).expected,
            Expected::NonTerminating
        );
        assert_eq!(circular_append("x").expected, Expected::NonTerminating);
        assert!(list_append("x").uses_heap);
        assert!(recursive_countdown("x", 0, 1).uses_recursion);
        assert!(!countdown("x", 1).uses_recursion);
        assert_eq!(nimkar_aperiodic("x").expected, Expected::NonTerminating);
        for drift in [
            drift_additive("x", 0),
            drift_coupled("x", 1),
            drift_lagged("x", 1),
        ] {
            assert_eq!(drift.expected, Expected::NonTerminating);
            assert!(!drift.uses_heap);
            assert!(!drift.uses_recursion);
        }
        assert_eq!(
            guarded_gcd_with_trap("x").expected,
            Expected::Terminating,
            "only main's entry region is restricted; the trap branches are dead"
        );
        assert!(guarded_gcd_with_trap("x").uses_recursion);
    }
}
