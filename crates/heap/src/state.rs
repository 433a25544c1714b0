//! Symbolic heaps.

use std::fmt;
use tnt_logic::Lin;

/// An atomic heap assertion.
#[derive(Clone, Debug, PartialEq)]
pub enum HeapAtom {
    /// A points-to fact `root ↦ data(f₁, …, fₙ)`; field values are affine expressions
    /// (pointer values are abstracted to integers, `null` = 0).
    PointsTo {
        /// The root pointer expression (usually a single variable).
        root: Lin,
        /// The data type.
        data: String,
        /// Field values in declaration order.
        fields: Vec<Lin>,
    },
    /// An instance of an inductive predicate `name(a₁, …, aₙ)`.
    Pred {
        /// Predicate name.
        name: String,
        /// Arguments (the first is conventionally the root pointer).
        args: Vec<Lin>,
    },
}

impl HeapAtom {
    /// Convenience constructor for a predicate instance.
    pub fn pred(name: &str, args: Vec<Lin>) -> HeapAtom {
        HeapAtom::Pred {
            name: name.to_string(),
            args,
        }
    }

    /// Convenience constructor for a points-to fact.
    pub fn points_to(root: Lin, data: &str, fields: Vec<Lin>) -> HeapAtom {
        HeapAtom::PointsTo {
            root,
            data: data.to_string(),
            fields,
        }
    }

    /// The root expression of the atom (zero for a malformed nullary predicate).
    pub fn root(&self) -> Lin {
        match self {
            HeapAtom::PointsTo { root, .. } => root.clone(),
            HeapAtom::Pred { args, .. } => args.first().cloned().unwrap_or_else(Lin::zero),
        }
    }

    /// Substitutes a variable by an affine expression in every argument.
    pub fn substitute(&self, var: &str, by: &Lin) -> HeapAtom {
        match self {
            HeapAtom::PointsTo { root, data, fields } => HeapAtom::PointsTo {
                root: root.substitute(var, by),
                data: data.clone(),
                fields: fields.iter().map(|f| f.substitute(var, by)).collect(),
            },
            HeapAtom::Pred { name, args } => HeapAtom::Pred {
                name: name.clone(),
                args: args.iter().map(|a| a.substitute(var, by)).collect(),
            },
        }
    }

    /// The variables mentioned by the atom.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut push_all = |lin: &Lin| {
            for v in lin.vars() {
                if !out.contains(&v.to_string()) {
                    out.push(v.to_string());
                }
            }
        };
        match self {
            HeapAtom::PointsTo { root, fields, .. } => {
                push_all(root);
                for f in fields {
                    push_all(f);
                }
            }
            HeapAtom::Pred { args, .. } => {
                for a in args {
                    push_all(a);
                }
            }
        }
        out
    }
}

impl fmt::Display for HeapAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapAtom::PointsTo { root, data, fields } => {
                let fields: Vec<String> = fields.iter().map(|x| x.to_string()).collect();
                write!(f, "{root} -> {data}({})", fields.join(", "))
            }
            HeapAtom::Pred { name, args } => {
                let args: Vec<String> = args.iter().map(|x| x.to_string()).collect();
                write!(f, "{name}({})", args.join(", "))
            }
        }
    }
}

/// A symbolic heap: the separating conjunction of its atoms (plus `emp` when empty).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct HeapState {
    /// The atoms of the separating conjunction.
    pub atoms: Vec<HeapAtom>,
}

impl HeapState {
    /// The empty heap.
    pub fn emp() -> HeapState {
        HeapState::default()
    }

    /// A heap consisting of the given atoms.
    pub fn new(atoms: Vec<HeapAtom>) -> HeapState {
        HeapState { atoms }
    }

    /// Returns `true` if the heap is empty.
    pub fn is_emp(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Separating conjunction with another heap.
    pub fn star(&self, other: &HeapState) -> HeapState {
        let mut atoms = self.atoms.clone();
        atoms.extend(other.atoms.iter().cloned());
        HeapState { atoms }
    }

    /// Adds an atom.
    pub fn push(&mut self, atom: HeapAtom) {
        self.atoms.push(atom);
    }

    /// Substitutes a variable by an affine expression in every atom.
    pub fn substitute(&self, var: &str, by: &Lin) -> HeapState {
        HeapState {
            atoms: self.atoms.iter().map(|a| a.substitute(var, by)).collect(),
        }
    }

    /// Removes and returns the atom at the given index.
    pub fn take(&mut self, index: usize) -> HeapAtom {
        self.atoms.remove(index)
    }

    /// All variables mentioned in the heap.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        for a in &self.atoms {
            for v in a.vars() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }
}

impl fmt::Display for HeapState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "emp");
        }
        let parts: Vec<String> = self.atoms.iter().map(|a| a.to_string()).collect();
        write!(f, "{}", parts.join(" * "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_logic::{num, var};

    #[test]
    fn atom_roots() {
        let pt = HeapAtom::points_to(var("x"), "node", vec![var("p")]);
        assert_eq!(pt.root(), var("x"));
        let pred = HeapAtom::pred("lseg", vec![var("p"), num(0), var("n")]);
        assert_eq!(pred.root(), var("p"));
    }

    #[test]
    fn substitution_applies_to_all_args() {
        let pred = HeapAtom::pred("lseg", vec![var("p"), var("q"), var("n")]);
        let substituted = pred.substitute("n", &var("m").add_const(tnt_logic::Rational::from(-1)));
        match substituted {
            HeapAtom::Pred { args, .. } => {
                assert_eq!(args[2].coeff("m"), tnt_logic::Rational::one());
                assert_eq!(args[2].constant_term(), tnt_logic::Rational::from(-1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn state_operations() {
        let mut state = HeapState::emp();
        assert!(state.is_emp());
        state.push(HeapAtom::points_to(var("x"), "node", vec![num(0)]));
        state.push(HeapAtom::pred("lseg", vec![var("y"), num(0), var("n")]));
        assert_eq!(state.atoms.len(), 2);
        assert_eq!(
            state.vars(),
            vec!["x".to_string(), "y".to_string(), "n".to_string()]
        );
        let star = state.star(&HeapState::new(vec![HeapAtom::pred(
            "cll",
            vec![var("z"), var("m")],
        )]));
        assert_eq!(star.atoms.len(), 3);
        assert_eq!(star.to_string(), "x -> node(0) * lseg(y, 0, n) * cll(z, m)");
    }
}
