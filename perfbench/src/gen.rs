//! Seeded input generators for the three workloads.
//!
//! Everything here is a pure function of the seed: the same seed gives the
//! same corpus order, the same serve-edit request stream and the same
//! serve-restart sample and mix, byte for byte.

use tnt_suite::Expected;

/// SplitMix64: a tiny, fully specified generator, so a stream depends on
/// nothing but its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`; `salt` separates independent streams
    /// drawn from one seed.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform value in `lo..=hi`.
    pub fn range(&mut self, lo: i128, hi: i128) -> i128 {
        lo + self.below((hi - lo + 1) as usize) as i128
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One corpus program with its ground truth.
#[derive(Clone, Debug)]
pub struct CorpusProgram {
    /// The program's name in its suite.
    pub name: String,
    /// Source text.
    pub source: String,
    /// Ground-truth label.
    pub expected: Expected,
}

/// The five corpora (559 programs) in suite order: the four SV-COMP-like
/// suites of Fig. 10, then the integer loops of Fig. 11.
pub fn corpus() -> Vec<CorpusProgram> {
    tnt_suite::svcomp_suites()
        .into_iter()
        .chain([tnt_suite::integer_loops()])
        .flat_map(|suite| suite.programs)
        .map(|p| CorpusProgram {
            name: p.name,
            source: p.source,
            expected: p.expected,
        })
        .collect()
}

/// The corpus in a seeded submission order. The seed never changes which
/// programs run, only their order.
///
/// The heavy families go first, each part in seeded order, as a
/// longest-first scheduler would place them. On two workers a random order
/// decides which analyses run side by side: a light program's time rose by
/// a third next to a heavy one, and the pass time and peak memory moved by
/// up to a fifth with the order.
pub fn corpus_order(seed: u64, pass: u64) -> Vec<usize> {
    let corpus = corpus();
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    Rng::new(seed, 0xC0 + pass).shuffle(&mut order);
    order.sort_by_key(|&i| !is_heavy(&corpus[i]));
    order
}

/// Whether a corpus program belongs to a heavy family.
fn is_heavy(program: &CorpusProgram) -> bool {
    HEAVY_FAMILIES.iter().any(|f| program.name.contains(f))
}

// ------------------------------------------------------------------ serve-edit

/// A method shape of the serve-edit programs, after one of the corpus
/// templates of `tnt_suite::templates`. Each shape has one editable constant
/// (`edit`), placed so that changing it changes exactly one method of the
/// desugared program; `fixed` is a second constant chosen per program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `countdown`: `while (x > 0) x = x - edit;`.
    Countdown,
    /// `count_up`: `i = fixed; while (i < n) i = i + edit;`.
    CountUp,
    /// `two_phase`: a rising loop by `edit`, then a falling loop by `fixed`.
    TwoPhase,
    /// `converge`: `x` is driven towards `edit` from both sides.
    Converge,
    /// `phase_change_hard`: `x = x + y; y = y - edit;`.
    PhaseChange,
    /// `recursive_countdown`: `down(n - edit)` below the bound `fixed`.
    RecursiveCountdown,
    /// `diverging_counter`: `while (x >= edit) x = x + fixed;`.
    DivergingCounter,
    /// `paper_foo`: the running example `foo` with offset `edit`.
    PaperFoo,
    /// `drift_lagged`: `x = y + z; y = y + edit;`.
    DriftLagged,
}

impl Shape {
    /// Every shape. Each takes a few milliseconds of cold analysis.
    pub const ALL: [Shape; 9] = [
        Shape::Countdown,
        Shape::CountUp,
        Shape::TwoPhase,
        Shape::Converge,
        Shape::PhaseChange,
        Shape::RecursiveCountdown,
        Shape::DivergingCounter,
        Shape::PaperFoo,
        Shape::DriftLagged,
    ];

    /// The template's ground truth.
    pub fn expected(self) -> Expected {
        match self {
            Shape::DivergingCounter | Shape::PaperFoo | Shape::DriftLagged => {
                Expected::NonTerminating
            }
            _ => Expected::Terminating,
        }
    }

    /// The range the editable constant is drawn from (every value keeps the
    /// ground truth).
    fn edit_range(self) -> (i128, i128) {
        match self {
            Shape::Converge | Shape::DivergingCounter => (-9, 9),
            Shape::PaperFoo => (-3, 3),
            _ => (1, 6),
        }
    }

    /// The range of the second constant.
    fn fixed_range(self) -> (i128, i128) {
        match self {
            Shape::CountUp | Shape::RecursiveCountdown => (-3, 3),
            Shape::DivergingCounter => (0, 2),
            _ => (1, 3),
        }
    }

    /// The method's source text.
    pub fn render(self, name: &str, edit: i128, fixed: i128) -> String {
        match self {
            Shape::Countdown => {
                format!("void {name}(int x) {{ while (x > 0) {{ x = x - {edit}; }} }}")
            }
            Shape::CountUp => format!(
                "void {name}(int n) {{ int i = {fixed}; while (i < n) {{ i = i + {edit}; }} }}"
            ),
            Shape::TwoPhase => format!(
                "void {name}(int n, int m) {{ int i = 0; while (i < n) {{ i = i + {edit}; }} \
                 int j = m; while (j > 0) {{ j = j - {fixed}; }} }}"
            ),
            Shape::Converge => format!(
                "void {name}(int x) {{ while (x != {edit}) {{ \
                 if (x > {edit}) {{ x = x - 1; }} else {{ x = x + 1; }} }} }}"
            ),
            Shape::PhaseChange => format!(
                "void {name}(int x, int y) {{ while (x > 0) {{ x = x + y; y = y - {edit}; }} }}"
            ),
            Shape::RecursiveCountdown => format!(
                "void {name}(int n) {{ if (n <= {fixed}) {{ return; }} else {{ {name}(n - {edit}); }} }}"
            ),
            Shape::DivergingCounter => format!(
                "void {name}(int x) {{ while (x >= {edit}) {{ x = x + {fixed}; }} }}"
            ),
            Shape::PaperFoo => format!(
                "void {name}(int x, int y) {{ if (x < {edit}) {{ return; }} else {{ {name}(x + y, y); }} }}"
            ),
            Shape::DriftLagged => format!(
                "void {name}(int x, int y, int z) {{ while (x >= 0) {{ x = y + z; y = y + {edit}; }} }}"
            ),
        }
    }
}

/// One method of a serve-edit program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MethodSpec {
    /// Method name, unique within its program.
    pub name: String,
    /// The template shape.
    pub shape: Shape,
    /// The editable constant.
    pub edit: i128,
    /// The second constant.
    pub fixed: i128,
}

impl MethodSpec {
    /// The method's source text.
    pub fn render(&self) -> String {
        self.shape.render(&self.name, self.edit, self.fixed)
    }
}

/// Renders a program from its methods, one per line.
pub fn render_program(methods: &[MethodSpec]) -> String {
    methods
        .iter()
        .map(MethodSpec::render)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Why a request is in the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// First submission of a program.
    Cold,
    /// The program with one method's constant changed.
    Edit,
    /// An exact re-send of an earlier version.
    Resend,
}

/// One request of a serve stream.
#[derive(Clone, Debug)]
pub struct Request {
    /// Why the request is sent.
    pub kind: RequestKind,
    /// Program text.
    pub source: String,
    /// Ground truth of each source method, by name.
    pub labels: Vec<(String, Expected)>,
    /// For an edit, the index of the edited method.
    pub edited: Option<usize>,
}

/// Programs in one serve-edit stream.
pub const EDIT_PROGRAMS: usize = 12;
/// Methods per serve-edit program.
pub const EDIT_METHODS: usize = 3;
/// Edits per program (a multiple of [`EDIT_METHODS`], so every method slot
/// is edited equally often).
pub const EDITS_PER_PROGRAM: usize = 9;
/// Exact re-sends in one stream.
pub const EDIT_RESENDS: usize = 12;

/// The shapes of serve-edit program `p`: [`Shape::ALL`] in turn.
pub fn edit_shapes(p: usize) -> [Shape; EDIT_METHODS] {
    std::array::from_fn(|m| Shape::ALL[(EDIT_METHODS * p + m) % Shape::ALL.len()])
}

/// The serve-edit request stream of a seed.
///
/// The stream cold-submits [`EDIT_PROGRAMS`] programs of [`EDIT_METHODS`]
/// methods each (shapes from [`edit_shapes`]), then interleaves
/// [`EDITS_PER_PROGRAM`] single-method constant edits per program with
/// [`EDIT_RESENDS`] exact re-sends of earlier requests. Every method slot is
/// edited equally often and an edit never restores a value the slot had
/// before, so the seed changes constants, edit values and order but not the
/// mix of work.
pub fn edit_stream(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 0xED17);
    let mut programs: Vec<Vec<MethodSpec>> = (0..EDIT_PROGRAMS)
        .map(|p| {
            edit_shapes(p)
                .iter()
                .enumerate()
                .map(|(m, &shape)| {
                    let (lo, hi) = shape.edit_range();
                    let (flo, fhi) = shape.fixed_range();
                    MethodSpec {
                        name: format!("p{p}m{m}"),
                        shape,
                        edit: rng.range(lo, hi),
                        fixed: rng.range(flo, fhi),
                    }
                })
                .collect()
        })
        .collect();
    let mut used: Vec<Vec<Vec<i128>>> = programs
        .iter()
        .map(|methods| methods.iter().map(|m| vec![m.edit]).collect())
        .collect();
    let request = |methods: &[MethodSpec], kind, edited| Request {
        kind,
        source: render_program(methods),
        labels: methods
            .iter()
            .map(|m| (m.name.clone(), m.shape.expected()))
            .collect(),
        edited,
    };
    let mut stream: Vec<Request> = programs
        .iter()
        .map(|methods| request(methods, RequestKind::Cold, None))
        .collect();

    // The follow-up traffic: each program's edits in a seeded slot order,
    // interleaved across programs, with re-sends mixed in.
    let mut follow_ups: Vec<Option<usize>> = (0..EDIT_PROGRAMS)
        .flat_map(|p| std::iter::repeat_n(Some(p), EDITS_PER_PROGRAM))
        .chain(std::iter::repeat_n(None, EDIT_RESENDS))
        .collect();
    rng.shuffle(&mut follow_ups);
    let mut slot_orders: Vec<Vec<usize>> = (0..EDIT_PROGRAMS)
        .map(|_| {
            let mut order: Vec<usize> = (0..EDITS_PER_PROGRAM).map(|i| i % EDIT_METHODS).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    for follow_up in follow_ups {
        match follow_up {
            Some(p) => {
                let slot = slot_orders[p].pop().expect("one slot per edit");
                let method = &mut programs[p][slot];
                let (lo, hi) = method.shape.edit_range();
                let fresh: Vec<i128> = (lo..=hi).filter(|v| !used[p][slot].contains(v)).collect();
                method.edit = fresh[rng.below(fresh.len())];
                used[p][slot].push(method.edit);
                stream.push(request(&programs[p], RequestKind::Edit, Some(slot)));
            }
            None => {
                let earlier = &stream[rng.below(stream.len())];
                stream.push(Request {
                    kind: RequestKind::Resend,
                    edited: None,
                    ..earlier.clone()
                });
            }
        }
    }
    stream
}

// --------------------------------------------------------------- serve-restart

/// Corpus families whose cold analysis takes from 0.05 s to over 2 s. The
/// corpus order submits them first; the serve-restart store leaves them out,
/// since they would make its pre-fill (part of set-up) long while the
/// restart path never re-runs the analysis whatever it cost.
const HEAVY_FAMILIES: [&str; 9] = [
    "_walk_",
    "_append_",
    "_drift_coupled",
    "_drift_additive",
    "_assumed",
    "_gcd",
    "_nested_",
    "_ackermann",
    "_skip_",
];

/// The serve-restart store contents of a seed: every distinct corpus
/// program (by source text) outside the heavy families, in a seeded order.
/// Taking all of them rather than a subset keeps the restart numbers and the
/// decided share independent of which programs a seed would draw.
pub fn restart_sample(seed: u64) -> Vec<CorpusProgram> {
    let mut sample: Vec<CorpusProgram> = Vec::new();
    for program in corpus() {
        if !is_heavy(&program) && !sample.iter().any(|c| c.source == program.source) {
            sample.push(program);
        }
    }
    Rng::new(seed, 0x5A3).shuffle(&mut sample);
    sample
}

/// The request mix replayed after each restart: every stored program twice
/// (the first request is served from the store, the second from memory), in
/// a seeded order. Returns indices into the sample.
pub fn restart_mix(seed: u64, sample_len: usize) -> Vec<usize> {
    let mut mix: Vec<usize> = (0..sample_len).chain(0..sample_len).collect();
    Rng::new(seed, 0x313).shuffle(&mut mix);
    mix
}
