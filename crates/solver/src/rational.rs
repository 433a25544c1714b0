//! Exact rational arithmetic over `i128`.
//!
//! The simplex pivoting and Farkas encodings require exact arithmetic; floating point
//! would make the (non-)termination verdicts unsound. Benchmarks in this reproduction
//! keep coefficients small, so `i128` numerators/denominators with eager normalisation
//! are more than sufficient.
//!
//! # Two tiers
//!
//! Addition and multiplication (and so subtraction and division, which go
//! through them) run on one of two tiers:
//!
//! - **Machine words.** When all four fields of the two operands satisfy
//!   `|x| ≤ i64::MAX`, the operation runs on 64-bit halves: binary `u64`
//!   gcds, hardware 64-bit division, and products widened to `i128`. A sum
//!   is Knuth's gcd-reduced one (TAOCP vol. 2, §4.5.1): with `g = gcd(b, d)`,
//!   `a/b + c/d` is `(a·d + c·b)/(b·d)` in lowest terms when `g = 1`, and
//!   otherwise `(t/g₂)/((b/g)·(d/g₂))` with `t = a·(d/g) + c·(b/g)` and
//!   `g₂ = gcd(t mod g, g)`. A product cancels the cross factors
//!   `gcd(|a|, d)` and `gcd(|c|, b)`. A gcd with an operand of 1 is skipped.
//!   `i64::MIN` stays out of the tier, so a negation never leaves it.
//! - **General.** Everything else runs on `i128` with checked operations
//!   and saturates on overflow (below). Integer operands of any size take a
//!   single checked `i128` operation first.
//!
//! Canonical form is unique, so both tiers give bit-identical values. A
//! product of two 64-bit halves cannot overflow `i128`, so no operation on
//! the machine-word tier could have saturated on the general one, and the
//! overflow accounting is the same whichever tier runs.
//!
//! # Overflow
//!
//! Arithmetic that would overflow `i128` does **not** panic (a single adversarial
//! large-coefficient program must not abort a whole analysis run). Instead the
//! operation *saturates* to a sign-correct sentinel and bumps the per-thread
//! [`overflow_work`] counter of [`crate::work`]. Saturated values are
//! numerically wrong, so every consumer that could turn them into a verdict must
//! check the counter: the analyzer snapshots it around each program and degrades
//! the whole result to the inconclusive budget-exhausted outcome (`MayLoop` /
//! T-O) when it moved — sound, deterministic, and no worse than the paper's own
//! T/O column.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::work::record_overflow;

/// Saturated (overflowed) rational operations on this thread (see
/// [`crate::work`]). Callers that must not trust results computed through
/// saturation snapshot it before a unit of work and compare afterwards.
pub use crate::work::overflows as overflow_work;

/// Saturation sentinel: large enough to dominate ordinary coefficients, small
/// enough that sums and modest scalings of sentinels do not immediately re-overflow.
const SATURATED: i128 = 1 << 96;

fn saturated(negative: bool) -> Rational {
    record_overflow();
    Rational {
        num: if negative { -SATURATED } else { SATURATED },
        den: 1,
    }
}

/// Full 128×128→256-bit unsigned product as `(hi, lo)` limbs, via 64-bit halves.
fn wide_mul(a: u128, b: u128) -> (u128, u128) {
    const MASK: u128 = (1u128 << 64) - 1;
    let (a_hi, a_lo) = (a >> 64, a & MASK);
    let (b_hi, b_lo) = (b >> 64, b & MASK);
    let ll = a_lo * b_lo;
    let lh = a_lo * b_hi;
    let hl = a_hi * b_lo;
    let hh = a_hi * b_hi;
    let mid = (ll >> 64) + (lh & MASK) + (hl & MASK);
    let lo = (mid << 64) | (ll & MASK);
    let hi = hh + (lh >> 64) + (hl >> 64) + (mid >> 64);
    (hi, lo)
}

/// The exact signed 256-bit product `x * y`, represented as a sign
/// (`Less`/`Equal`/`Greater` versus zero) and an unsigned magnitude.
fn signed_product(x: i128, y: i128) -> (Ordering, (u128, u128)) {
    let sign = if x == 0 || y == 0 {
        Ordering::Equal
    } else if (x < 0) != (y < 0) {
        Ordering::Less
    } else {
        Ordering::Greater
    };
    (sign, wide_mul(x.unsigned_abs(), y.unsigned_abs()))
}

/// Orders two signed 256-bit values in the `(sign, magnitude)` representation.
fn cmp_signed(lhs: (Ordering, (u128, u128)), rhs: (Ordering, (u128, u128))) -> Ordering {
    match lhs.0.cmp(&rhs.0) {
        Ordering::Equal => match lhs.0 {
            Ordering::Equal => Ordering::Equal,
            Ordering::Greater => lhs.1.cmp(&rhs.1),
            Ordering::Less => rhs.1.cmp(&lhs.1),
        },
        by_sign => by_sign,
    }
}

/// The exact sign of the sum of two signed 256-bit values.
fn sum_sign(lhs: (Ordering, (u128, u128)), rhs: (Ordering, (u128, u128))) -> Ordering {
    match (lhs.0, rhs.0) {
        (Ordering::Equal, s) | (s, Ordering::Equal) => s,
        (a, b) if a == b => a,
        // Opposite signs: the larger magnitude wins.
        (a, b) => match lhs.1.cmp(&rhs.1) {
            Ordering::Greater => a,
            Ordering::Less => b,
            Ordering::Equal => Ordering::Equal,
        },
    }
}

/// An exact rational number `num / den` with `den > 0` and `gcd(num, den) = 1`.
///
/// # Examples
///
/// ```
/// use tnt_solver::Rational;
/// let a = Rational::new(1, 3);
/// let b = Rational::new(1, 6);
/// assert_eq!(a + b, Rational::new(1, 2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

/// Correctly rounded `n / d` (round-to-nearest, ties-to-even) for `u128`
/// operands with `d` in `1..=i128::MAX as u128`, by binary long division: the
/// 54 leading quotient bits plus a sticky flag decide the rounding, however
/// large the operands are. Backs [`Rational::to_f64`].
fn div_to_f64(n: u128, d: u128) -> f64 {
    if n == 0 {
        return 0.0;
    }
    // Exponent of the quotient's leading bit: the unique `e` with
    // `2^e <= n/d < 2^(e+1)`. The shifts below cannot overflow: `d << e` has
    // bit length `nbits <= 128`, and `n << -e` has bit length `dbits <= 127`
    // (plus one after the decrement, still within 128).
    let nbits = (128 - n.leading_zeros()) as i32;
    let dbits = (128 - d.leading_zeros()) as i32;
    let mut e = nbits - dbits;
    let leading_ge = if e >= 0 { n >= d << e } else { n << -e >= d };
    if !leading_ge {
        e -= 1;
    }
    // Restoring division, most significant bit first: 53 mantissa bits plus
    // one rounding bit. Integer positions subtract `d << pos`; fractional
    // positions double the remainder instead (the remainder stays `< d`, and
    // `d < 2^127`, so the doubling cannot overflow either).
    let mut q: u64 = 0;
    let mut r = n;
    if e < 0 {
        // All 54 bits are fractional; pre-scale so the first loop iteration's
        // doubling lands on position `e` (safe: `n/d < 2^(e+1)` bounds the
        // shifted remainder below `d`).
        r <<= -e - 1;
    }
    for pos in ((e - 53)..=e).rev() {
        q <<= 1;
        if pos >= 0 {
            let dd = d << pos;
            if r >= dd {
                r -= dd;
                q |= 1;
            }
        } else {
            r <<= 1;
            if r >= d {
                r -= d;
                q |= 1;
            }
        }
    }
    let sticky = r != 0;
    let mut mantissa = q >> 1;
    let round_bit = q & 1 == 1;
    if round_bit && (sticky || mantissa & 1 == 1) {
        mantissa += 1;
        if mantissa == 1 << 53 {
            mantissa >>= 1;
            e += 1;
        }
    }
    // `mantissa * 2^(e - 52)`, with the power of two built exactly. The
    // quotient magnitude lies in `[2^-128, 2^127]`, far inside normal range.
    let scale = f64::from_bits(((1023 + e - 52) as u64) << 52);
    mantissa as f64 * scale
}

/// Greatest common divisor of the magnitudes: a binary (Stein) gcd on `u64`
/// when both fit, Euclid on `u128` otherwise. `gcd(0, 0)` is 0.
pub fn gcd(a: i128, b: i128) -> i128 {
    let (a, b) = (a.unsigned_abs(), b.unsigned_abs());
    match (u64::try_from(a), u64::try_from(b)) {
        (Ok(a), Ok(b)) => binary_gcd(a, b) as i128,
        _ => euclid_gcd(a, b) as i128,
    }
}

fn binary_gcd(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

fn euclid_gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `x` as a machine word when `|x| ≤ i64::MAX` (so `i64::MIN` is left out).
fn word(x: i128) -> Option<i64> {
    i64::try_from(x).ok().filter(|&w| w != i64::MIN)
}

/// `gcd(a, b)` of two machine-word magnitudes, skipped when either is 1.
fn word_gcd(a: u64, b: u64) -> u64 {
    if a == 1 || b == 1 {
        1
    } else {
        binary_gcd(a, b)
    }
}

/// `x / d` for a divisor `d ≥ 1` that divides `x`: hardware 64-bit division
/// when `x` fits a word, and no division at all when `d` is 1.
fn div_exact(x: i128, d: u64) -> i128 {
    if d == 1 {
        return x;
    }
    match i64::try_from(x) {
        Ok(x) => (x / d as i64) as i128,
        Err(_) => x / d as i128,
    }
}

/// `|x| mod d` for `d ≥ 1`, with hardware 64-bit division when `x` fits.
fn rem_magnitude(x: i128, d: u64) -> u64 {
    let x = x.unsigned_abs();
    match u64::try_from(x) {
        Ok(x) => x % d,
        Err(_) => (x % d as u128) as u64,
    }
}

/// `a/b + c/d` on the machine-word tier (`b, d ≥ 1`, all magnitudes at
/// most `i64::MAX`), by Knuth's gcd-reduced method; see the module docs.
fn add_words(a: i64, b: i64, c: i64, d: i64) -> Rational {
    let (a, c) = (a as i128, c as i128);
    let (b, d) = (b as u64, d as u64);
    let g = word_gcd(b, d);
    if g == 1 {
        // Coprime denominators: the sum is already in lowest terms.
        return Rational {
            num: a * d as i128 + c * b as i128,
            den: b as i128 * d as i128,
        };
    }
    let (b_g, d_g) = (b / g, d / g);
    let t = a * d_g as i128 + c * b_g as i128;
    let g2 = binary_gcd(rem_magnitude(t, g), g);
    Rational {
        num: div_exact(t, g2),
        den: b_g as i128 * (d / g2) as i128,
    }
}

/// `a/b · c/d` on the machine-word tier: cancels the cross factors, so the
/// canonical operands give a canonical product.
fn mul_words(a: i64, b: i64, c: i64, d: i64) -> Rational {
    let g1 = word_gcd(a.unsigned_abs(), d as u64);
    let g2 = word_gcd(c.unsigned_abs(), b as u64);
    Rational {
        num: div_exact(a as i128, g1) * div_exact(c as i128, g2),
        den: div_exact(b as i128, g2) * div_exact(d as i128, g1),
    }
}

impl Rational {
    /// Creates a rational `num / den`, normalising the sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        if den == 1 {
            return Rational { num, den };
        }
        let mut num = num;
        let mut den = den;
        if den < 0 {
            num = -num;
            den = -den;
        }
        let g = gcd(num, den);
        if g > 1 {
            num /= g;
            den /= g;
        }
        Rational { num, den }
    }

    /// The rational zero.
    pub fn zero() -> Self {
        Rational { num: 0, den: 1 }
    }

    /// The rational one.
    pub fn one() -> Self {
        Rational { num: 1, den: 1 }
    }

    /// Numerator (after normalisation; carries the sign).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Returns `true` if the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` if the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Returns `true` if the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Self {
        assert!(self.num != 0, "reciprocal of zero");
        // `num / den` is already coprime: only the sign moves.
        if self.num < 0 {
            Rational {
                num: -self.den,
                den: -self.num,
            }
        } else {
            Rational {
                num: self.den,
                den: self.num,
            }
        }
    }

    /// Floor of the rational as an integer (exact for every value: the
    /// quotient of a positive denominator cannot overflow).
    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Ceiling of the rational as an integer.
    pub fn ceil(&self) -> i128 {
        // `floor + 1` cannot overflow: a non-integer has `den ≥ 2`.
        self.floor() + i128::from(self.num.rem_euclid(self.den) != 0)
    }

    /// Rounds towards the nearest integer (ties towards +∞).
    pub fn round(&self) -> i128 {
        (*self + Rational::new(1, 2)).floor()
    }

    /// Converts to `f64` (for reporting only — never used in decisions).
    ///
    /// The result is correctly rounded (round-to-nearest, ties-to-even). The
    /// obvious `num as f64 / den as f64` is not: it rounds each 127-bit
    /// operand to 53 bits *before* dividing, and that double rounding can land
    /// on the wrong side of a rounding boundary for near-`i128` operands
    /// (e.g. `(2^126 + 2^73) / (2^127 - 1)` collapses to exactly `0.5`
    /// instead of the next float up). Small operands take the exact one-step
    /// hardware division; large ones go through widened-integer long division.
    pub fn to_f64(&self) -> f64 {
        const EXACT: i128 = 1 << 53;
        if self.num.abs() < EXACT && self.den < EXACT {
            // Both operands are exactly representable: a single correctly
            // rounded hardware division.
            return self.num as f64 / self.den as f64;
        }
        let magnitude = div_to_f64(self.num.unsigned_abs(), self.den as u128);
        if self.num < 0 {
            -magnitude
        } else {
            magnitude
        }
    }

    /// The four fields `(a, b, c, d)` of `a/b` and `c/d` when all of them
    /// lie on the machine-word tier.
    fn words(&self, other: &Self) -> Option<(i64, i64, i64, i64)> {
        Some((
            word(self.num)?,
            word(self.den)?,
            word(other.num)?,
            word(other.den)?,
        ))
    }

    fn checked_add(&self, other: &Self) -> Self {
        // Integer fast path. On overflow fall through: the general path below
        // overflows on the same operands and saturates.
        if self.den == 1 && other.den == 1 {
            if let Some(num) = self.num.checked_add(other.num) {
                return Rational { num, den: 1 };
            }
        }
        if let Some((a, b, c, d)) = self.words(other) {
            return add_words(a, b, c, d);
        }
        self.add_general(other)
    }

    /// `self + other` on the general `i128` tier, saturating on overflow.
    fn add_general(&self, other: &Self) -> Self {
        let g = gcd(self.den, other.den);
        let lcm_part = other.den / g;
        let exact = (|| {
            let num = self
                .num
                .checked_mul(lcm_part)?
                .checked_add(other.num.checked_mul(self.den / g)?)?;
            let den = self.den.checked_mul(lcm_part)?;
            Some(Rational::new(num, den))
        })();
        // The sentinel is numerically wrong either way, but its sign must be exact:
        // a/b + c/d has the sign of a*d + c*b (b, d > 0), computed in 256-bit
        // arithmetic. An f64 round-trip would misjudge sums whose operands collapse
        // to the same float (e.g. -1/2^100 + 1/(2^100 + 1)).
        exact.unwrap_or_else(|| {
            let sign = sum_sign(
                signed_product(self.num, other.den),
                signed_product(other.num, self.den),
            );
            saturated(sign == Ordering::Less)
        })
    }

    fn checked_mul(&self, other: &Self) -> Self {
        // Integer fast path, with the same overflow behaviour as `checked_add`.
        if self.den == 1 && other.den == 1 {
            if let Some(num) = self.num.checked_mul(other.num) {
                return Rational { num, den: 1 };
            }
        }
        if let Some((a, b, c, d)) = self.words(other) {
            return mul_words(a, b, c, d);
        }
        self.mul_general(other)
    }

    /// `self · other` on the general `i128` tier, saturating on overflow.
    fn mul_general(&self, other: &Self) -> Self {
        let g1 = gcd(self.num, other.den);
        let g2 = gcd(other.num, self.den);
        let exact = (|| {
            let num = (self.num / g1).checked_mul(other.num / g2)?;
            let den = (self.den / g2).checked_mul(other.den / g1)?;
            // Both operands are coprime and the cross factors are cancelled,
            // so the product is already in lowest terms with `den > 0`.
            Some(Rational { num, den })
        })();
        // Sign of a/b * c/d is the sign of a*c — the operand-sign XOR is already
        // exact on this path (a zero numerator forces den = 1 and cannot
        // overflow), no widened product needed.
        exact.unwrap_or_else(|| saturated((self.num < 0) != (other.num < 0)))
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<i128> for Rational {
    fn from(value: i128) -> Self {
        Rational { num: value, den: 1 }
    }
}

impl From<i64> for Rational {
    fn from(value: i64) -> Self {
        Rational::from(value as i128)
    }
}

impl From<i32> for Rational {
    fn from(value: i32) -> Self {
        Rational::from(value as i128)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        self.checked_add(&rhs)
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self.checked_add(&(-rhs))
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        self.checked_mul(&rhs)
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        self.checked_mul(&rhs.recip())
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare a/b with c/d by comparing a*d with c*b (b, d > 0).
        match (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            (Some(lhs), Some(rhs)) => lhs.cmp(&rhs),
            // Cross-multiplication overflowed i128: widen to exact 256-bit
            // products. The comparison stays exact (no poisoning needed) — only
            // values *computed through* saturation are untrustworthy, not the
            // order of representable ones.
            _ => cmp_signed(
                signed_product(self.num, other.den),
                signed_product(other.num, self.den),
            ),
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn normalisation() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, 5), Rational::zero());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 6);
        assert_eq!(a + b, Rational::new(1, 2));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 18));
        assert_eq!(a / b, Rational::from(2));
        assert_eq!(-a, Rational::new(-1, 3));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::zero());
        assert!(Rational::from(3) > Rational::new(5, 2));
    }

    #[test]
    fn floor_ceil_round() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::new(5, 1).floor(), 5);
        assert_eq!(Rational::new(5, 1).ceil(), 5);
        assert_eq!(Rational::new(7, 2).round(), 4);
        assert_eq!(Rational::new(5, 2).round(), 3);
    }

    #[test]
    fn floor_and_ceil_are_exact_at_the_i128_boundary() {
        // -(2^127 - 1)/2 = -2^126 + 1/2. The old `-num + den - 1` wrapped
        // here and answered +2^126.
        let half_max = Rational::new(-i128::MAX, 2);
        assert_eq!(half_max.floor(), -(1i128 << 126));
        assert_eq!(half_max.ceil(), -(1i128 << 126) + 1);
        assert_eq!((-half_max).floor(), (1i128 << 126) - 1);
        assert_eq!((-half_max).ceil(), 1i128 << 126);
        for extreme in [i128::MIN, i128::MIN + 1, i128::MAX] {
            assert_eq!(Rational::from(extreme).floor(), extreme);
            assert_eq!(Rational::from(extreme).ceil(), extreme);
        }
        // -2^127/3 lies strictly between two integers.
        let third = Rational::new(i128::MIN, 3);
        assert_eq!(third.floor(), i128::MIN / 3 - 1);
        assert_eq!(third.ceil(), i128::MIN / 3);
        assert_eq!(Rational::new(i128::MAX, 3).floor(), i128::MAX / 3);
        assert_eq!(Rational::new(i128::MAX, 3).ceil(), i128::MAX / 3 + 1);
    }

    #[test]
    fn predicates() {
        assert!(Rational::zero().is_zero());
        assert!(Rational::one().is_positive());
        assert!((-Rational::one()).is_negative());
        assert!(Rational::from(4).is_integer());
        assert!(!Rational::new(1, 2).is_integer());
    }

    #[test]
    fn recip() {
        assert_eq!(Rational::new(3, 4).recip(), Rational::new(4, 3));
        assert_eq!(Rational::new(-3, 4).recip(), Rational::new(-4, 3));
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(3, 4).to_string(), "3/4");
        assert_eq!(Rational::from(-7).to_string(), "-7");
    }

    #[test]
    fn to_f64_small_operands_are_exact() {
        assert_eq!(Rational::new(1, 2).to_f64(), 0.5);
        assert_eq!(Rational::new(-7, 4).to_f64(), -1.75);
        assert_eq!(Rational::new(1, 3).to_f64(), 1.0 / 3.0);
        assert_eq!(Rational::zero().to_f64(), 0.0);
        assert_eq!(Rational::from(1i128 << 40).to_f64(), (1u64 << 40) as f64);
    }

    #[test]
    fn to_f64_near_i128_operands_round_correctly() {
        // (2^126 + 2^73) / (2^127 - 1) = 1/2 + 2^-54 + ε with ε > 0, which is
        // just above the tie between 0.5 and the next float: correct rounding
        // gives 0.5 + 2^-53. Rounding the operands to f64 first collapses the
        // numerator to 2^126 (ties-to-even) and the denominator to 2^127, so
        // the naive `num as f64 / den as f64` answers exactly 0.5 — the double
        // rounding this conversion must avoid.
        let tricky = Rational::new((1i128 << 126) + (1i128 << 73), i128::MAX);
        let naive = (((1i128 << 126) + (1i128 << 73)) as f64) / (i128::MAX as f64);
        let expected = 0.5 + (2.0f64).powi(-53);
        assert_eq!(naive, 0.5, "the double-rounding hazard this test pins");
        assert_eq!(tricky.to_f64(), expected);
        assert_eq!((-tricky).to_f64(), -expected);

        // Huge integers still match the (single-rounded, hence correct)
        // direct conversion.
        assert_eq!(Rational::from(i128::MAX).to_f64(), i128::MAX as f64);
        assert_eq!(
            Rational::from(i128::MIN + 1).to_f64(),
            (i128::MIN + 1) as f64
        );
        // Reciprocal of a huge denominator: quotient far below 1.
        let tiny = Rational::new(1, i128::MAX);
        assert_eq!(tiny.to_f64(), 1.0 / (i128::MAX as f64));
        // A half-way quotient with a zero sticky bit must round to even:
        // (2^126 + 2^73) / 2^126 = 1 + 2^-53 exactly → ties-to-even → 1.0.
        let tie = Rational::new((1i128 << 126) + (1i128 << 73), 1i128 << 126);
        assert_eq!(tie.to_f64(), 1.0);
    }

    #[test]
    fn overflow_saturates_and_poisons_instead_of_panicking() {
        let before = overflow_work();
        let huge = Rational::from(i128::MAX - 1);
        assert!((huge + huge).is_positive());
        assert!(((-huge) + (-huge)).is_negative());
        assert!((huge * huge).is_positive());
        assert!((huge * (-huge)).is_negative());
        assert!(
            overflow_work() >= before + 4,
            "every saturated operation must be recorded"
        );
    }

    #[test]
    fn near_i128_coefficients_never_panic() {
        let a = Rational::from(i128::MAX - 1);
        let b = Rational::new(1, 3);
        // The cross-multiplied comparison (MAX - 1) * 3 overflows i128; the widened
        // 256-bit comparison must order the values exactly, without poisoning.
        let before = overflow_work();
        assert_eq!(a.cmp(&b), Ordering::Greater);
        assert_eq!(b.cmp(&a), Ordering::Less);
        assert_eq!(
            overflow_work(),
            before,
            "exact comparisons must not record overflow"
        );
        // All operators stay total on near-i128 inputs.
        let _ = a + b;
        let _ = a - b;
        let _ = a * b;
        let _ = a / b;
        let _ = a.floor();
        let _ = a.ceil();
    }

    /// Regression for the saturated-addition sign at the i128 boundary: the two
    /// operands round to the *same* `f64` magnitude, so the old float round-trip
    /// (`to_f64() + to_f64() < 0.0`) produced `0.0` and chose the positive
    /// sentinel regardless of the true sign. The widened-integer sign is exact.
    #[test]
    fn saturated_add_sign_is_exact_at_the_i128_boundary() {
        let big = 1i128 << 100;
        // -1/2^100 + 1/(2^100 + 1) < 0, but saturates (the common denominator
        // overflows i128): the sentinel must be negative.
        let before = overflow_work();
        let neg = Rational::new(-1, big) + Rational::new(1, big + 1);
        assert!(neg.is_negative(), "got {neg:?}");
        // The mirrored sum must saturate positive.
        let pos = Rational::new(1, big) + Rational::new(-1, big + 1);
        assert!(pos.is_positive(), "got {pos:?}");
        assert!(
            overflow_work() >= before + 2,
            "both saturated additions must be recorded"
        );
        // Near-i128 numerators with opposite signs and a tiny exact difference.
        let a = Rational::new(i128::MAX - 1, 3);
        let b = Rational::new(-(i128::MAX - 4), 3);
        // Exact: (MAX-1)/3 - (MAX-4)/3 = 1 > 0 — no overflow on this path, but the
        // comparison against the saturated mirror must stay sign-correct too.
        assert!((a + b).is_positive());
        assert!((b + (-a)).is_negative());
    }

    #[test]
    fn exact_ordering_at_the_i128_boundary() {
        // a*d and c*b both overflow i128; the exact widened comparison must see
        // that (MAX-1)/(MAX-2) > (MAX-3)/(MAX-2) ... pick values where the f64
        // round-trip collapses both sides to the same float.
        let a = Rational::new(i128::MAX - 1, i128::MAX - 2);
        let b = Rational::new(i128::MAX - 3, i128::MAX - 2);
        assert_eq!(a.cmp(&b), Ordering::Greater);
        assert_eq!(b.cmp(&a), Ordering::Less);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert!(Rational::new(-(i128::MAX - 1), i128::MAX - 2) < b);
    }

    #[test]
    fn wide_mul_matches_u128_for_small_operands() {
        for (a, b) in [
            (0u128, 7u128),
            (1 << 64, 1 << 63),
            (u128::from(u64::MAX), u128::from(u64::MAX)),
            (123_456_789_000, 987_654_321_000),
        ] {
            if let Some(exact) = a.checked_mul(b) {
                assert_eq!(wide_mul(a, b), (0, exact), "{a} * {b}");
            }
        }
        // 2^64 * 2^64 = 2^128: exactly one in the high limb.
        assert_eq!(wide_mul(1 << 64, 1 << 64), (1, 0));
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1.
        assert_eq!(wide_mul(u128::MAX, u128::MAX), (u128::MAX - 1, 1));
    }

    fn small_rational(rng: &mut SmallRng) -> Rational {
        Rational::new(rng.gen_range(-1000i128..1000), rng.gen_range(1i128..100))
    }

    /// Draws from the full `i64` line (including the exact extremes with some
    /// probability) as an integer rational, plus moderate denominators.
    fn extreme_rational(rng: &mut SmallRng) -> Rational {
        let num = match rng.gen_range(0u32..8) {
            0 => i64::MAX,
            1 => i64::MIN,
            2 => i64::MAX - 1,
            3 => i64::MIN + 1,
            _ => rng.gen_range(i64::MIN..=i64::MAX),
        };
        let den = match rng.gen_range(0u32..4) {
            0 => 1,
            _ => rng.gen_range(1i128..1000),
        };
        Rational::new(num as i128, den)
    }

    fn assert_normalised(x: Rational) {
        assert!(x.denom() > 0, "denominator must stay positive: {x:?}");
        assert_eq!(
            super::gcd(x.numer(), x.denom()),
            if x.is_zero() { x.denom() } else { 1 },
            "numerator and denominator must stay coprime: {x:?}"
        );
    }

    #[test]
    fn prop_add_commutative_and_associative() {
        let mut rng = SmallRng::seed_from_u64(0x4A701);
        for _ in 0..512 {
            let (a, b, c) = (
                small_rational(&mut rng),
                small_rational(&mut rng),
                small_rational(&mut rng),
            );
            assert_eq!(a + b, b + a);
            assert_eq!((a + b) + c, a + (b + c));
            assert_normalised(a + b);
        }
    }

    #[test]
    fn prop_mul_commutative_associative_distributive() {
        let mut rng = SmallRng::seed_from_u64(0x4A702);
        for _ in 0..512 {
            let (a, b, c) = (
                small_rational(&mut rng),
                small_rational(&mut rng),
                small_rational(&mut rng),
            );
            assert_eq!(a * b, b * a);
            assert_eq!((a * b) * c, a * (b * c));
            assert_eq!(a * (b + c), a * b + a * c);
            assert_normalised(a * b);
        }
    }

    #[test]
    fn prop_sub_then_add_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(0x4A703);
        for _ in 0..512 {
            let (a, b) = (small_rational(&mut rng), small_rational(&mut rng));
            assert_eq!(a - b + b, a);
        }
    }

    #[test]
    fn prop_floor_le_value_le_ceil() {
        let mut rng = SmallRng::seed_from_u64(0x4A704);
        for _ in 0..512 {
            let a = small_rational(&mut rng);
            assert!(Rational::from(a.floor()) <= a);
            assert!(a <= Rational::from(a.ceil()));
        }
    }

    #[test]
    fn prop_ordering_consistent_with_sub() {
        let mut rng = SmallRng::seed_from_u64(0x4A705);
        for _ in 0..512 {
            let (a, b) = (small_rational(&mut rng), small_rational(&mut rng));
            assert_eq!(a < b, (a - b).is_negative());
        }
    }

    #[test]
    fn prop_recip_involution() {
        let mut rng = SmallRng::seed_from_u64(0x4A706);
        for _ in 0..512 {
            let a = small_rational(&mut rng);
            if !a.is_zero() {
                assert_eq!(a.recip().recip(), a);
            }
        }
    }

    /// Plain Euclid on magnitudes: the reference the kernel's gcd must match.
    fn reference_gcd(a: i128, b: i128) -> i128 {
        let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a as i128
    }

    /// A magnitude near one of the kernel's boundaries: `u64::MAX`,
    /// `i64::MAX`, the `i128` overflow edge, or a small value.
    fn boundary_magnitude(rng: &mut SmallRng) -> i128 {
        let edge = match rng.gen_range(0u32..5) {
            0 => u64::MAX as i128,
            1 => i64::MAX as i128,
            2 => i128::MAX,
            3 => 1 << 64,
            _ => 0,
        };
        let offset = rng.gen_range(0i128..1 << 20);
        if edge == i128::MAX {
            edge - offset
        } else if edge == 0 {
            offset
        } else if rng.gen_range(0u32..2) == 0 {
            edge - offset
        } else {
            edge + offset
        }
    }

    fn boundary_integer(rng: &mut SmallRng) -> i128 {
        let magnitude = boundary_magnitude(rng);
        if rng.gen_range(0u32..2) == 0 {
            -magnitude
        } else {
            magnitude
        }
    }

    fn boundary_rational(rng: &mut SmallRng) -> Rational {
        let num = boundary_integer(rng);
        let den = match rng.gen_range(0u32..3) {
            0 => 1,
            1 => rng.gen_range(1i128..1000),
            _ => boundary_magnitude(rng).max(1),
        };
        Rational::new(num, den)
    }

    /// Whether the exact sum `a + b` fits in `i128`, computed on 64-bit halves.
    fn sum_fits(a: i128, b: i128) -> bool {
        let low = (a as u64 as u128) + (b as u64 as u128);
        let high = (a >> 64) + (b >> 64) + (low >> 64) as i128;
        i64::try_from(high).is_ok()
    }

    /// Whether the exact product `a * b` fits in `i128`, from its 256-bit
    /// magnitude.
    fn product_fits(a: i128, b: i128) -> bool {
        let (hi, lo) = wide_mul(a.unsigned_abs(), b.unsigned_abs());
        let negative = (a < 0) != (b < 0);
        hi == 0 && (lo <= i128::MAX as u128 || (negative && lo == 1 << 127))
    }

    #[test]
    fn prop_gcd_matches_euclid_across_the_u64_boundary() {
        let mut rng = SmallRng::seed_from_u64(0x4A708);
        for _ in 0..2048 {
            let (a, b) = (boundary_integer(&mut rng), boundary_integer(&mut rng));
            let g = rng.gen_range(1i128..1 << 16);
            for (x, y) in [(a, b), (a / g * g, b / g * g), (a, 0), (0, b)] {
                assert_eq!(super::gcd(x, y), reference_gcd(x, y), "gcd({x}, {y})");
            }
        }
    }

    #[test]
    fn prop_results_stay_normalised_at_the_boundaries() {
        let mut rng = SmallRng::seed_from_u64(0x4A709);
        let normalised = |x: Rational| {
            assert!(x.denom() > 0, "denominator must stay positive: {x:?}");
            assert_eq!(
                reference_gcd(x.numer(), x.denom()),
                if x.is_zero() { x.denom() } else { 1 },
                "numerator and denominator must stay coprime: {x:?}"
            );
        };
        for _ in 0..2048 {
            let (a, b) = (boundary_rational(&mut rng), boundary_rational(&mut rng));
            normalised(a);
            normalised(a + b);
            normalised(a - b);
            normalised(a * b);
            if !b.is_zero() {
                normalised(a / b);
                normalised(b.recip());
            }
        }
    }

    #[test]
    fn prop_integer_overflow_is_recorded_exactly_when_the_result_does_not_fit() {
        let mut rng = SmallRng::seed_from_u64(0x4A70A);
        let (mut sums_overflowed, mut products_overflowed) = (0, 0);
        for _ in 0..2048 {
            let (a, b) = (boundary_integer(&mut rng), boundary_integer(&mut rng));
            let (x, y) = (Rational::from(a), Rational::from(b));

            let before = overflow_work();
            let sum = x + y;
            let moved = overflow_work() - before;
            if sum_fits(a, b) {
                assert_eq!(moved, 0, "{a} + {b} fits but was recorded");
                assert_eq!(sum, Rational::from(a + b));
            } else {
                assert_eq!(moved, 1, "{a} + {b} overflows but was not recorded");
                sums_overflowed += 1;
            }

            let before = overflow_work();
            let product = x * y;
            let moved = overflow_work() - before;
            if product_fits(a, b) {
                assert_eq!(moved, 0, "{a} * {b} fits but was recorded");
                assert_eq!(product, Rational::from(a * b));
            } else {
                assert_eq!(moved, 1, "{a} * {b} overflows but was not recorded");
                products_overflowed += 1;
            }
        }
        assert!(sums_overflowed > 0 && products_overflowed > 0);
    }

    #[test]
    fn prop_recip_and_div_of_negative_fractions_swap_the_pair() {
        let mut rng = SmallRng::seed_from_u64(0x4A70B);
        for _ in 0..1024 {
            let num = -rng.gen_range(1i128..1 << 40);
            let den = rng.gen_range(1i128..1 << 40);
            let a = Rational::new(num, den);
            assert!(a.is_negative());
            assert_eq!(a.recip(), Rational::new(a.denom(), a.numer()));
            assert_eq!(a.recip(), Rational::new(den, num));
            let b = Rational::new(rng.gen_range(-1000i128..1000), rng.gen_range(1i128..1000));
            assert_eq!(b / a, b * Rational::new(a.denom(), a.numer()));
        }
    }

    /// A value that straddles the machine-word tier's edge at `±2⁶³`:
    /// `i64::MIN`, `i64::MAX` and their neighbours, `2⁶³` itself, 0, ±1,
    /// small values, or anything on the `i64` line.
    fn straddling_integer(rng: &mut SmallRng) -> i128 {
        let edge = i64::MAX as i128;
        match rng.gen_range(0u32..9) {
            0 => 0,
            1 => 1,
            2 => -1,
            3 => edge - rng.gen_range(0i128..4),
            4 => -edge + rng.gen_range(-2i128..4),
            5 => (edge + 1) * if rng.gen_range(0u32..2) == 0 { 1 } else { -1 },
            6 => rng.gen_range(-1000i128..1000),
            _ => rng.gen_range(i64::MIN..=i64::MAX) as i128,
        }
    }

    /// A rational whose fields straddle the machine-word tier: numerators
    /// from [`straddling_integer`], denominators 1, small, up to and just
    /// past `i64::MAX`.
    fn straddling_rational(rng: &mut SmallRng) -> Rational {
        let num = straddling_integer(rng);
        let den = match rng.gen_range(0u32..6) {
            0 => 1,
            1 => rng.gen_range(2i128..1000),
            2 => i64::MAX as i128 - rng.gen_range(0i128..4),
            3 => i64::MAX as i128 + 1,
            _ => rng.gen_range(1i128..=i64::MAX as i128),
        };
        Rational::new(num, den)
    }

    /// Every operator agrees with the general `i128` tier on operands that
    /// straddle the machine-word tier's edge, and an operation whose four
    /// fields all lie on the tier never records an overflow.
    #[test]
    fn prop_word_tier_agrees_with_the_general_tier() {
        let mut rng = SmallRng::seed_from_u64(0x4A70C);
        let (mut on_tier, mut off_tier) = (0, 0);
        for _ in 0..4096 {
            let (a, b) = (straddling_rational(&mut rng), straddling_rational(&mut rng));
            let tier = a.words(&b).is_some();
            if tier {
                on_tier += 1;
            } else {
                off_tier += 1;
            }
            let before = overflow_work();
            let (sum, difference, product) = (a + b, a - b, a * b);
            let quotient = (!b.is_zero()).then(|| a / b);
            if tier {
                assert_eq!(overflow_work(), before, "{a:?} and {b:?} overflowed");
            }
            assert_eq!(sum, a.add_general(&b), "{a:?} + {b:?}");
            assert_eq!(difference, a.add_general(&-b), "{a:?} - {b:?}");
            assert_eq!(product, a.mul_general(&b), "{a:?} * {b:?}");
            if let Some(quotient) = quotient {
                assert_eq!(quotient, a.mul_general(&b.recip()), "{a:?} / {b:?}");
            }
        }
        assert!(
            on_tier > 1000 && off_tier > 1000,
            "{on_tier} on, {off_tier} off"
        );
    }

    /// The whole `i64` line (including the exact extremes) stays within `i128`
    /// headroom for every arithmetic operator and comparison — no overflow
    /// panics, and the laws still hold exactly.
    #[test]
    fn prop_no_overflow_on_extreme_i64_inputs() {
        let mut rng = SmallRng::seed_from_u64(0x4A707);
        for _ in 0..512 {
            let (a, b) = (extreme_rational(&mut rng), extreme_rational(&mut rng));
            let sum = a + b;
            assert_eq!(sum, b + a);
            assert_eq!(sum - b, a);
            let product = a * b;
            assert_eq!(product, b * a);
            assert_normalised(sum);
            assert_normalised(product);
            assert_eq!(a < b, (a - b).is_negative());
            assert_eq!(-(-a), a);
            assert!(Rational::from(a.floor()) <= a && a <= Rational::from(a.ceil()));
            if !b.is_zero() {
                assert_eq!((a / b) * b, a);
            }
        }
    }
}
