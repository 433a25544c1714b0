//! User-facing summaries: the paper's case-structured termination/non-termination
//! specifications, plus the benchmark verdict derived from them.

use crate::theta::{CaseState, Theta};
use std::fmt;
use tnt_logic::Formula;
use tnt_solver::MeasureItem;
use tnt_verify::hoare::ProgramAnalysis;

/// The resolved status of one summary case.
#[derive(Clone, Debug, PartialEq)]
pub enum CaseStatus {
    /// Definite termination with the given lexicographic measure (components may
    /// be affine, `max(f, g)` or multiphase items).
    Term(Vec<MeasureItem>),
    /// Definite non-termination (the postcondition is strengthened to `false`).
    Loop,
    /// Unknown outcome.
    MayLoop,
}

impl fmt::Display for CaseStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseStatus::Term(m) if m.is_empty() => write!(f, "Term"),
            CaseStatus::Term(m) => {
                let parts: Vec<String> = m.iter().map(|x| x.to_string()).collect();
                write!(f, "Term[{}]", parts.join(", "))
            }
            CaseStatus::Loop => write!(f, "Loop"),
            CaseStatus::MayLoop => write!(f, "MayLoop"),
        }
    }
}

impl From<&CaseState> for CaseStatus {
    /// The status a case state is reported as; a still-unknown case is `MayLoop`.
    fn from(state: &CaseState) -> CaseStatus {
        match state {
            CaseState::Term(m) => CaseStatus::Term(m.clone()),
            CaseState::Loop => CaseStatus::Loop,
            CaseState::MayLoop | CaseState::Unknown { .. } => CaseStatus::MayLoop,
        }
    }
}

impl From<&CaseStatus> for CaseState {
    fn from(status: &CaseStatus) -> CaseState {
        match status {
            CaseStatus::Term(m) => CaseState::Term(m.clone()),
            CaseStatus::Loop => CaseState::Loop,
            CaseStatus::MayLoop => CaseState::MayLoop,
        }
    }
}

/// One case of a method summary.
#[derive(Clone, Debug)]
pub struct SummaryCase {
    /// The case guard over the scenario's measure variables.
    pub guard: Formula,
    /// The inferred temporal status.
    pub status: CaseStatus,
}

impl SummaryCase {
    /// Whether the method's exit is reachable under this case (`ensures true` vs
    /// `ensures false` in the rendered specification).
    pub fn post_reachable(&self) -> bool {
        !matches!(self.status, CaseStatus::Loop)
    }
}

/// Which behaviour an inferred precondition region guarantees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PreconditionKind {
    /// Every input inside the region terminates.
    Terminating,
    /// Every input inside the region diverges.
    NonTerminating,
}

impl fmt::Display for PreconditionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreconditionKind::Terminating => write!(f, "terminating"),
            PreconditionKind::NonTerminating => write!(f, "non-terminating"),
        }
    }
}

/// An inferred input precondition: a region of the formal-parameter space on
/// which the scenario's temporal behaviour is definite, carried alongside the
/// Y/N/U verdict.
///
/// Only summaries whose verdict is *not* already definite-everywhere carry one
/// (see [`crate::precondition::precondition_of`]): a non-termination
/// precondition under verdict `N`, or a termination precondition under
/// verdict `U` when some cases are proven terminating.
#[derive(Clone, Debug, PartialEq)]
pub struct Precondition {
    /// What the region guarantees.
    pub kind: PreconditionKind,
    /// The region, a formula over the scenario's measure variables.
    pub region: Formula,
}

/// The whole-program verdict in SV-COMP terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Termination proven for every input (SV-COMP "Yes").
    Terminating,
    /// A definitely non-terminating input scenario exists (SV-COMP "No").
    NonTerminating,
    /// Neither could be established.
    Unknown,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Terminating => write!(f, "Y"),
            Verdict::NonTerminating => write!(f, "N"),
            Verdict::Unknown => write!(f, "U"),
        }
    }
}

/// The scored answer on one program, one cell of the paper's Fig. 10/11: a
/// [`Verdict`], or `T/O` when the analyzer gave up on its work budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Termination proven ("Y").
    Yes,
    /// Non-termination proven ("N").
    No,
    /// Inconclusive ("U").
    Unknown,
    /// The work budget was exhausted ("T/O").
    Timeout,
}

impl From<Verdict> for Outcome {
    fn from(verdict: Verdict) -> Outcome {
        match verdict {
            Verdict::Terminating => Outcome::Yes,
            Verdict::NonTerminating => Outcome::No,
            Verdict::Unknown => Outcome::Unknown,
        }
    }
}

impl Outcome {
    /// The paper's column label: `Y`, `N`, `U` or `T/O`.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Yes => "Y",
            Outcome::No => "N",
            Outcome::Unknown => "U",
            Outcome::Timeout => "T/O",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The inferred summary of one method scenario.
#[derive(Clone, Debug)]
pub struct MethodSummary {
    /// Method name.
    pub method: String,
    /// Scenario index within the method's specification.
    pub scenario_index: usize,
    /// The measure variables.
    pub vars: Vec<String>,
    /// The inferred cases (guards are feasible, exclusive and exhaustive).
    pub cases: Vec<SummaryCase>,
    /// The inferred input precondition, when the case structure pins down a
    /// definite region beyond the plain verdict (`None` otherwise).
    pub precondition: Option<Precondition>,
}

impl MethodSummary {
    /// The verdict of this summary alone.
    pub fn verdict(&self) -> Verdict {
        if self
            .cases
            .iter()
            .all(|c| matches!(c.status, CaseStatus::Term(_)))
        {
            Verdict::Terminating
        } else if self
            .cases
            .iter()
            .any(|c| matches!(c.status, CaseStatus::Loop))
        {
            Verdict::NonTerminating
        } else {
            Verdict::Unknown
        }
    }

    /// Renders the summary in the paper's `case { ... }` specification syntax.
    pub fn render(&self) -> String {
        let mut out = String::from("case {\n");
        for case in &self.cases {
            let ensures = if case.post_reachable() {
                "true"
            } else {
                "false"
            };
            out.push_str(&format!(
                "  {} -> requires {} ensures {};\n",
                case.guard, case.status, ensures
            ));
        }
        out.push('}');
        if let Some(pre) = &self.precondition {
            out.push_str(&format!("\nprecondition {}: {}", pre.kind, pre.region));
        }
        out
    }
}

impl fmt::Display for MethodSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (scenario {}):\n{}",
            self.method,
            self.scenario_index,
            self.render()
        )
    }
}

/// Extracts per-scenario summaries from a finalized store.
pub fn summaries(analysis: &ProgramAnalysis, theta: &Theta) -> Vec<MethodSummary> {
    let mut out = Vec::new();
    for (label, method) in &analysis.methods {
        let Some(def) = theta.definition(&method.upr_name) else {
            continue;
        };
        let cases = def
            .cases
            .iter()
            .map(|c| SummaryCase {
                guard: c.guard.clone(),
                status: CaseStatus::from(&c.state),
            })
            .collect();
        let _ = label;
        let mut summary = MethodSummary {
            method: method.method.clone(),
            scenario_index: method.scenario_index,
            vars: method.vars.clone(),
            cases,
            precondition: None,
        };
        summary.precondition = crate::precondition::precondition_of(&summary);
        out.push(summary);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_logic::{num, var, Constraint};

    fn summary(cases: Vec<SummaryCase>) -> MethodSummary {
        MethodSummary {
            method: "m".to_string(),
            scenario_index: 0,
            vars: vec!["x".to_string()],
            cases,
            precondition: None,
        }
    }

    #[test]
    fn verdict_rules() {
        let term = SummaryCase {
            guard: Constraint::lt(var("x"), num(0)).into(),
            status: CaseStatus::Term(vec![]),
        };
        let looping = SummaryCase {
            guard: Constraint::ge(var("x"), num(0)).into(),
            status: CaseStatus::Loop,
        };
        let unknown = SummaryCase {
            guard: Constraint::ge(var("x"), num(0)).into(),
            status: CaseStatus::MayLoop,
        };
        assert_eq!(summary(vec![term.clone()]).verdict(), Verdict::Terminating);
        assert_eq!(
            summary(vec![term.clone(), looping]).verdict(),
            Verdict::NonTerminating
        );
        assert_eq!(summary(vec![term, unknown]).verdict(), Verdict::Unknown);
    }

    #[test]
    fn rendering_follows_paper_shape() {
        let s = summary(vec![
            SummaryCase {
                guard: Constraint::lt(var("x"), num(0)).into(),
                status: CaseStatus::Term(vec![]),
            },
            SummaryCase {
                guard: Constraint::ge(var("x"), num(0)).into(),
                status: CaseStatus::Term(vec![MeasureItem::Affine(var("x"))]),
            },
        ]);
        let text = s.render();
        assert!(text.starts_with("case {"));
        assert!(text.contains("requires Term ensures true"));
        assert!(text.contains("Term[x]"));
        assert_eq!(s.verdict(), Verdict::Terminating);
        assert_eq!(Verdict::Terminating.to_string(), "Y");
    }
}
