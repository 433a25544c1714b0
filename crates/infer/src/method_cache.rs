//! Method-granular incremental reuse: composite per-SCC cache keys and the
//! solve-replay records stored under them.
//!
//! The program-level summary cache (see [`crate::session`]) is all-or-nothing:
//! touch one method and the whole program recomputes. This module re-keys reuse
//! at **method granularity, salsa-style**. A method's [`MethodKey`] is the
//! 128-bit hash of its own canonical body joined with the *keys* of each callee
//! SCC (not the callee bodies), computed bottom-up over
//! [`CallGraph::sccs`](tnt_verify::CallGraph::sccs) so a mutually recursive SCC
//! shares one composite key and any edit inside a method's call cone changes the
//! key of every method above it — the invalidation argument is exactly the
//! key-composition order.
//!
//! What is stored under a key is **not** an assembled summary: the solver's
//! per-SCC proofs consume caller context (entry edges, iteration-global
//! obligation expansion), so a method summary is not a pure function of the
//! method cone in general. Instead a [`MethodRecord`] captures the slice of the
//! solve trajectory that *is* cone-pure — the post-base-case partition of each
//! root ([`RootRecord`]) and every reachability-SCC resolution that happened in
//! the canonical iteration-0 window via a context-free proof path
//! ([`EventRecord`]) — together with its deterministic work/pivot cost. On a
//! later program that reproduces the same key, `solve` *replays* those events:
//! the recorded resolutions are injected in place of re-running the provers,
//! with the recorded work charged to [`SolveStats::work`] so the reported
//! statistics stay byte-identical to a cold run while the session's actual
//! spending (the thread-measured delta) shrinks. Any mismatch — a base
//! partition that differs, a member set that moved, a budget horizon the cold
//! run would have tripped mid-proof — simply deactivates the event and the
//! solver computes that SCC fresh, so a stale or colliding record degrades to
//! lost savings, never to a divergent result.

use crate::session::{canonical_method, canonical_program, ProgramKey};
use crate::summary::CaseStatus;
use crate::theta::Theta;
use std::collections::{BTreeMap, BTreeSet};
use tnt_logic::Formula;
use tnt_verify::hoare::ProgramAnalysis;
use tnt_verify::CallGraph;

use crate::solve::SolveStats;

/// A method-tier cache key: the 128-bit content hash (same dual-FNV pair as
/// [`ProgramKey`]) of one call-graph SCC's canonical member bodies, the shared
/// declaration preamble, the options fingerprint, and the [`MethodKey`]s of
/// every callee SCC. Because callee *keys* (not bodies) are hashed in, the key
/// of a method transitively covers its whole call cone: editing any method in
/// the cone changes this key, and editing anything outside it does not.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MethodKey(ProgramKey);

impl MethodKey {
    /// Streams both FNV variants over the SCC's joined keyed text.
    pub(crate) fn of_keyed_text(keyed: &str) -> MethodKey {
        MethodKey(ProgramKey::of_keyed_text(keyed))
    }

    /// The FNV-1a half of the hash (exposed for diagnostics).
    pub fn hash_value(&self) -> u64 {
        self.0.hash_value()
    }

    /// The key as 16 little-endian bytes (FNV-1a half first) — the on-disk
    /// form used by persistent summary stores.
    pub fn to_bytes(&self) -> [u8; 16] {
        self.0.to_bytes()
    }

    /// Rebuilds a key from its [`MethodKey::to_bytes`] form.
    pub fn from_bytes(bytes: [u8; 16]) -> MethodKey {
        MethodKey(ProgramKey::from_bytes(bytes))
    }
}

/// One case of a root's post-base-case partition: the guard formula and
/// whether base-case inference already forced it to `Term []`.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseSnapshot {
    /// The case guard at the canonical iteration-0 state.
    pub guard: Formula,
    /// `true` when base-case inference resolved the case outright.
    pub base: bool,
}

/// The post-base-case partition of one root predicate (`Upr_method#scenario`).
/// Base-case inference is method-local, so this partition is a pure function of
/// the method cone; replay validates it structurally (guard-for-guard) before
/// letting any event touch the root.
#[derive(Clone, Debug, PartialEq)]
pub struct RootRecord {
    /// The root pre-predicate name.
    pub root: String,
    /// The partition, in case order.
    pub cases: Vec<CaseSnapshot>,
}

/// One replayable SCC resolution from the iteration-0 window: which cases the
/// reachability SCC spanned, what each resolved to, and the deterministic cost
/// the proof paid (work units, plus the prover-attempt counters), so replay
/// can charge the cold run's exact statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// The member cases, as sorted `(root, case index)` coordinates.
    pub members: Vec<(String, usize)>,
    /// The resolution applied to each member: only what a context-free
    /// iteration-0 proof can produce (`Term` with its measure, or `Loop`).
    /// `MayLoop` never appears — it arises from exhaustion, which
    /// disqualifies the whole record.
    pub outcomes: Vec<(String, usize, CaseStatus)>,
    /// Work units (pivots + search nodes, see [`tnt_solver::work::units`]) the
    /// original processing spent.
    pub work: u64,
    /// Ranking-synthesis attempts the original processing counted.
    pub ranking_attempts: usize,
    /// Non-termination-proof attempts the original processing counted.
    pub nonterm_attempts: usize,
}

/// The record stored under one [`MethodKey`]: the SCC's member method names
/// (an identity cross-check at probe time), the post-base-case partitions of
/// every member root, and the replayable events that resolved them.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodRecord {
    /// The call-graph SCC's member method names, sorted.
    pub methods: Vec<String>,
    /// Post-base-case partitions of the member methods' roots.
    pub roots: Vec<RootRecord>,
    /// The iteration-0 events that resolved those roots' open cases.
    pub events: Vec<EventRecord>,
}

/// The merged replay input for one solve: every root partition and event from
/// the method records that hit, across all hit SCCs of the program.
#[derive(Clone, Debug, Default)]
pub(crate) struct ReplayPlan {
    /// Root partitions to validate against the fresh base-case state.
    pub roots: Vec<RootRecord>,
    /// Candidate events (activated per-root after validation).
    pub events: Vec<EventRecord>,
}

impl ReplayPlan {
    /// Whether the plan carries anything to replay.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty() && self.events.is_empty()
    }

    /// Folds one hit record into the plan.
    pub fn merge(&mut self, record: &MethodRecord) {
        self.roots.extend(record.roots.iter().cloned());
        self.events.extend(record.events.iter().cloned());
    }
}

/// What a traced solve captured: the post-base-case snapshot of every root and
/// every replay-eligible event (freshly proven *or* replayed — both count
/// towards the coverage certificate of the SCCs above them).
#[derive(Clone, Debug, Default)]
pub(crate) struct SolveTrace {
    /// Snapshot of every definition right after base-case inference.
    pub base: Vec<RootRecord>,
    /// Replay-eligible events, in sweep order.
    pub events: Vec<EventRecord>,
}

/// One call-graph SCC's method-tier identity inside a batch job.
#[derive(Clone, Debug)]
pub(crate) struct SccKeys {
    /// The composite key.
    pub key: MethodKey,
    /// The full keyed text behind the key (the collision-verification guard).
    pub keyed: String,
    /// Member method names, sorted.
    pub methods: Vec<String>,
    /// Indices (into the bottom-up SCC list) of the callee SCCs.
    pub callee_sccs: Vec<usize>,
    /// `true` when the method tier served a record for this SCC.
    pub hit: bool,
}

/// The per-job method-tier context: the merged replay plan from every hit SCC
/// plus the full bottom-up SCC list (hits and misses) for harvesting.
#[derive(Clone, Debug)]
pub(crate) struct MethodScope {
    /// The merged replay input.
    pub plan: ReplayPlan,
    /// Every call-graph SCC, bottom-up, with hit marks.
    pub sccs: Vec<SccKeys>,
}

impl MethodScope {
    /// Whether any SCC missed — i.e. whether the solve should trace for harvest.
    pub fn wants_trace(&self) -> bool {
        self.sccs.iter().any(|s| !s.hit)
    }
}

/// Computes the composite method-tier keys of every call-graph SCC, bottom-up.
///
/// The keyed text of an SCC is the injective `'\x1f'` join of: a format marker,
/// the options fingerprint, the program's declaration preamble (data/pred/lemma
/// declarations — the program with its methods removed), the canonical bodies
/// of the SCC's members in sorted order, and the hex-rendered keys of every
/// callee SCC. Tarjan emits callees first, so each callee key is already
/// computed when its caller's text is assembled.
pub(crate) fn scc_keys(
    program: &tnt_lang::ast::Program,
    graph: &CallGraph,
    fingerprint: &str,
) -> Vec<SccKeys> {
    let preamble = {
        let mut stripped = program.clone();
        stripped.methods.clear();
        canonical_program(&stripped)
    };
    let body_of: BTreeMap<tnt_lang::Symbol, String> = program
        .methods
        .iter()
        .map(|m| (m.name, canonical_method(m)))
        .collect();
    let mut out: Vec<SccKeys> = Vec::with_capacity(graph.sccs().len());
    for scc in graph.sccs() {
        let own = out.len();
        let mut callee_sccs: BTreeSet<usize> = BTreeSet::new();
        for &member in scc {
            for callee in graph.callees(member) {
                match graph.scc_index(callee) {
                    // Bottom-up order guarantees callee SCCs precede their
                    // callers; the `< own` filter drops only the self edge.
                    Some(index) if index < own => {
                        callee_sccs.insert(index);
                    }
                    _ => {}
                }
            }
        }
        let mut keyed = String::from("tnt-mr1");
        keyed.push('\x1f');
        keyed.push_str(fingerprint);
        keyed.push('\x1f');
        keyed.push_str(&preamble);
        for &member in scc {
            keyed.push('\x1f');
            keyed.push_str(body_of.get(&member).map(String::as_str).unwrap_or(""));
        }
        for &callee in &callee_sccs {
            keyed.push('\x1f');
            for byte in out[callee].key.to_bytes() {
                keyed.push_str(&format!("{byte:02x}"));
            }
        }
        out.push(SccKeys {
            key: MethodKey::of_keyed_text(&keyed),
            keyed,
            methods: scc.iter().map(|s| s.to_string()).collect(),
            callee_sccs: callee_sccs.into_iter().collect(),
            hit: false,
        });
    }
    out
}

/// What one analysis harvests for the method tier: each covered SCC's key,
/// its keyed text (the collision guard the session verifies once and drops),
/// and the replayable record itself.
pub(crate) type HarvestedRecords = Vec<(MethodKey, String, MethodRecord)>;

/// Builds the method records a completed (traced) solve is entitled to publish.
///
/// The coverage certificate, per SCC: every case of every member root is either
/// base-forced or resolved by a traced event (so the final case count equals
/// the snapshot count — no post-base split touched the root), and every callee
/// SCC is itself covered. On top of that, the whole run must have finished
/// clean: within budget, unpoisoned. Under those conditions each recorded event
/// is a pure function of its method cone at the canonical iteration-0 state,
/// which is what makes replaying it on a key-matched later program sound.
pub(crate) fn harvest_records(
    analysis: &ProgramAnalysis,
    scope: &MethodScope,
    trace: &SolveTrace,
    theta: &Theta,
    stats: &SolveStats,
    poisoned: bool,
    work_budget: u64,
) -> HarvestedRecords {
    if poisoned || stats.budget_exhausted || stats.work > work_budget {
        return Vec::new();
    }
    let mut method_of_root: BTreeMap<&str, &str> = BTreeMap::new();
    let mut roots_of_method: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for m in analysis.methods.values() {
        method_of_root.insert(&m.upr_name, &m.method);
        roots_of_method
            .entry(m.method.as_str())
            .or_default()
            .push(&m.upr_name);
    }
    let snapshot: BTreeMap<&str, &RootRecord> =
        trace.base.iter().map(|r| (r.root.as_str(), r)).collect();
    let mut covered: BTreeSet<(&str, usize)> = BTreeSet::new();
    for event in &trace.events {
        for (root, index) in &event.members {
            covered.insert((root.as_str(), *index));
        }
    }
    let root_ok = |root: &str| -> bool {
        let (Some(snap), Some(def)) = (snapshot.get(root), theta.definition(root)) else {
            return false;
        };
        def.cases.len() == snap.cases.len()
            && (0..def.cases.len()).all(|i| snap.cases[i].base || covered.contains(&(root, i)))
    };
    let method_ok = |method: &str| -> bool {
        roots_of_method
            .get(method)
            .is_none_or(|roots| roots.iter().all(|r| root_ok(r)))
    };
    let mut eligible = vec![false; scope.sccs.len()];
    for (index, scc) in scope.sccs.iter().enumerate() {
        eligible[index] = scc.methods.iter().all(|m| method_ok(m))
            && scc.callee_sccs.iter().all(|&c| eligible[c]);
    }
    let scc_of_method: BTreeMap<&str, usize> = scope
        .sccs
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.methods.iter().map(move |m| (m.as_str(), i)))
        .collect();
    let mut events_of_scc: BTreeMap<usize, Vec<EventRecord>> = BTreeMap::new();
    for event in &trace.events {
        let Some((root, _)) = event.members.first() else {
            continue;
        };
        // A reachability SCC never spans call-graph SCCs (a cross-SCC cycle
        // would be mutual recursion, i.e. one call-graph SCC), so the first
        // member's method locates the whole event.
        let Some(&scc) = method_of_root
            .get(root.as_str())
            .and_then(|m| scc_of_method.get(m))
        else {
            continue;
        };
        events_of_scc.entry(scc).or_default().push(event.clone());
    }
    let mut out = Vec::new();
    for (index, scc) in scope.sccs.iter().enumerate() {
        if !eligible[index] || scc.hit {
            continue;
        }
        let roots: Vec<RootRecord> = scc
            .methods
            .iter()
            .flat_map(|m| roots_of_method.get(m.as_str()).into_iter().flatten())
            .filter_map(|root| snapshot.get(*root).map(|r| (*r).clone()))
            .collect();
        if roots.is_empty() {
            // Nothing to replay for an SCC with no unknown scenarios.
            continue;
        }
        out.push((
            scc.key,
            scc.keyed.clone(),
            MethodRecord {
                methods: scc.methods.clone(),
                roots,
                events: events_of_scc.remove(&index).unwrap_or_default(),
            },
        ));
    }
    out
}
