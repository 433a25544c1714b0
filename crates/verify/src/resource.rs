//! Resource-capacity semantics of the temporal predicates (paper Sec. 3).
//!
//! `Term [e]`, `Loop` and `MayLoop` are interpreted as resource capacities
//! `RC⟨L, U⟩` over the naturals extended with `∞`:
//!
//! * `Term [e] = RC⟨0, f([e])⟩` — execution length bounded above by a finite bound,
//! * `Loop     = RC⟨∞, ∞⟩`      — execution length is infinite,
//! * `MayLoop  = RC⟨0, ∞⟩`      — anything.
//!
//! The module implements the extended-naturals arithmetic (`−L`, `−U`), the subsumption
//! relation `⇒r` and the consumption entailment `⊢t` exactly as formalised in the
//! paper, so that the inference layer's choices ("MayLoop is the strongest
//! pre-predicate", "Loop and Term are incomparable") are grounded in the semantics and
//! covered by tests.

use std::cmp::Ordering;
use std::fmt;

/// A natural number extended with `∞`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExtNat {
    /// A finite value.
    Fin(u64),
    /// Infinity.
    Inf,
}

impl ExtNat {
    /// Zero.
    pub fn zero() -> ExtNat {
        ExtNat::Fin(0)
    }

    /// The lower-bound subtraction `−L`: `min { r ∈ ℕ∞ | r + rhs ≥ self }`.
    ///
    /// In particular `∞ −L ∞ = 0`.
    pub fn sub_lower(self, rhs: ExtNat) -> ExtNat {
        match (self, rhs) {
            (_, ExtNat::Inf) => ExtNat::Fin(0),
            (ExtNat::Inf, ExtNat::Fin(_)) => ExtNat::Inf,
            (ExtNat::Fin(a), ExtNat::Fin(b)) => ExtNat::Fin(a.saturating_sub(b)),
        }
    }

    /// The upper-bound subtraction `−U`: `max { r ∈ ℕ∞ | r + rhs ≤ self }`, defined
    /// only when `self ≥ rhs`. In particular `∞ −U ∞ = ∞`.
    pub fn sub_upper(self, rhs: ExtNat) -> Option<ExtNat> {
        match (self, rhs) {
            (ExtNat::Inf, _) => Some(ExtNat::Inf),
            (ExtNat::Fin(_), ExtNat::Inf) => None,
            (ExtNat::Fin(a), ExtNat::Fin(b)) => {
                if a >= b {
                    Some(ExtNat::Fin(a - b))
                } else {
                    None
                }
            }
        }
    }
}

impl PartialOrd for ExtNat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ExtNat {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (ExtNat::Inf, ExtNat::Inf) => Ordering::Equal,
            (ExtNat::Inf, _) => Ordering::Greater,
            (_, ExtNat::Inf) => Ordering::Less,
            (ExtNat::Fin(a), ExtNat::Fin(b)) => a.cmp(b),
        }
    }
}

impl fmt::Display for ExtNat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtNat::Fin(v) => write!(f, "{v}"),
            ExtNat::Inf => write!(f, "inf"),
        }
    }
}

/// A resource capacity `RC⟨L, U⟩` with a lower bound `L` and an upper bound `U` on the
/// execution length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capacity {
    /// Lower bound.
    pub lower: ExtNat,
    /// Upper bound.
    pub upper: ExtNat,
}

impl Capacity {
    /// `RC⟨L, U⟩`
    pub fn new(lower: ExtNat, upper: ExtNat) -> Capacity {
        Capacity { lower, upper }
    }

    /// The capacity of `Term [e]` with finite bound `bound` (`f([e])` in the paper).
    pub fn term(bound: u64) -> Capacity {
        Capacity::new(ExtNat::Fin(0), ExtNat::Fin(bound))
    }

    /// The capacity of `Loop`.
    pub fn looping() -> Capacity {
        Capacity::new(ExtNat::Inf, ExtNat::Inf)
    }

    /// The capacity of `MayLoop`.
    pub fn may_loop() -> Capacity {
        Capacity::new(ExtNat::Fin(0), ExtNat::Inf)
    }

    /// Returns `true` if the capacity is well-formed (`L ≤ U`).
    pub fn is_valid(&self) -> bool {
        self.lower <= self.upper
    }

    /// The resource subsumption `self ⇒r other`: `other.lower ≤ self.lower… ` — as in the
    /// paper, `RC⟨L1,U1⟩ ⇒r RC⟨L2,U2⟩` iff `L1 ≤ L2` and `U2 ≤ U1`.
    pub fn subsumes(&self, other: &Capacity) -> bool {
        self.lower <= other.lower && other.upper <= self.upper
    }

    /// The consumption entailment `⊢t`: checks that the consumed capacity fits within
    /// this one and returns the residue `RC⟨La −L Lc, Ua −U Uc⟩`.
    ///
    /// Returns `None` when `Uc ≤ Ua` fails or the residue is not a valid capacity.
    pub fn consume(&self, consumed: &Capacity) -> Option<Capacity> {
        if consumed.upper > self.upper {
            return None;
        }
        let lower = self.lower.sub_lower(consumed.lower);
        let upper = self.upper.sub_upper(consumed.upper)?;
        let residue = Capacity::new(lower, upper);
        if residue.is_valid() {
            Some(residue)
        } else {
            None
        }
    }
}

impl fmt::Display for Capacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RC<{}, {}>", self.lower, self.upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn subtraction_operators_match_paper() {
        assert_eq!(ExtNat::Inf.sub_lower(ExtNat::Inf), ExtNat::Fin(0));
        assert_eq!(ExtNat::Inf.sub_upper(ExtNat::Inf), Some(ExtNat::Inf));
        assert_eq!(ExtNat::Fin(5).sub_lower(ExtNat::Fin(7)), ExtNat::Fin(0));
        assert_eq!(
            ExtNat::Fin(7).sub_upper(ExtNat::Fin(5)),
            Some(ExtNat::Fin(2))
        );
        assert_eq!(ExtNat::Fin(5).sub_upper(ExtNat::Fin(7)), None);
        assert_eq!(ExtNat::Inf.sub_lower(ExtNat::Fin(3)), ExtNat::Inf);
        assert_eq!(ExtNat::Fin(3).sub_lower(ExtNat::Inf), ExtNat::Fin(0));
        assert_eq!(ExtNat::Fin(3).sub_upper(ExtNat::Inf), None);
    }

    #[test]
    fn mayloop_is_strongest_pre_predicate() {
        // MayLoop subsumes both Loop and any Term capacity (the paper's hierarchy
        // MayLoop ⇒r Loop, MayLoop ⇒r Term [e]).
        assert!(Capacity::may_loop().subsumes(&Capacity::looping()));
        assert!(Capacity::may_loop().subsumes(&Capacity::term(42)));
        assert!(Capacity::may_loop().subsumes(&Capacity::may_loop()));
    }

    #[test]
    fn loop_and_term_are_incomparable() {
        assert!(!Capacity::looping().subsumes(&Capacity::term(5)));
        assert!(!Capacity::term(5).subsumes(&Capacity::looping()));
    }

    #[test]
    fn consumption_entailment_examples() {
        // A Term budget can pay for a smaller Term.
        let residue = Capacity::term(10).consume(&Capacity::term(4)).unwrap();
        assert_eq!(residue, Capacity::new(ExtNat::Fin(0), ExtNat::Fin(6)));
        // It cannot pay for a larger Term or for Loop/MayLoop.
        assert!(Capacity::term(3).consume(&Capacity::term(4)).is_none());
        assert!(Capacity::term(3).consume(&Capacity::looping()).is_none());
        assert!(Capacity::term(3).consume(&Capacity::may_loop()).is_none());
        // Loop can pay for Loop, with residue MayLoop-like RC<0, inf>.
        let residue = Capacity::looping().consume(&Capacity::looping()).unwrap();
        assert_eq!(residue, Capacity::new(ExtNat::Fin(0), ExtNat::Inf));
        // MayLoop can pay for anything.
        assert!(Capacity::may_loop().consume(&Capacity::term(7)).is_some());
        assert!(Capacity::may_loop().consume(&Capacity::looping()).is_some());
    }

    #[test]
    fn subsumption_implies_consumability() {
        // (θa ⇒r θc) ⇒ ∃θr · θa ⊢t θc ⊳ θr  (the paper's weak relation between ⇒r and ⊢t)
        let capacities = [
            Capacity::term(0),
            Capacity::term(3),
            Capacity::looping(),
            Capacity::may_loop(),
        ];
        for a in capacities {
            for c in capacities {
                if a.subsumes(&c) {
                    assert!(a.consume(&c).is_some(), "{a} should consume {c}");
                }
            }
        }
    }

    #[test]
    fn prop_residue_is_valid_capacity() {
        let mut rng = SmallRng::seed_from_u64(0x2E501);
        for _ in 0..512 {
            let a = rng.gen_range(0u64..50);
            let b = rng.gen_range(0u64..50);
            let big = Capacity::term(a.max(b));
            let small = Capacity::term(a.min(b));
            let residue = big.consume(&small).unwrap();
            assert!(residue.is_valid());
            assert_eq!(residue.upper, ExtNat::Fin(a.max(b) - a.min(b)));
        }
    }

    #[test]
    fn prop_subsumption_is_reflexive_and_widening_absorbs() {
        let mut rng = SmallRng::seed_from_u64(0x2E502);
        for _ in 0..512 {
            let l = rng.gen_range(0u64..20);
            let u = rng.gen_range(0u64..20);
            if l > u {
                continue;
            }
            let c = Capacity::new(ExtNat::Fin(l), ExtNat::Fin(u));
            assert!(c.subsumes(&c));
            let widened = Capacity::new(ExtNat::Fin(0), ExtNat::Inf);
            assert!(widened.subsumes(&c));
        }
    }
}
