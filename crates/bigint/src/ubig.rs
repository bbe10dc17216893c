//! The [`UBig`] unsigned big integer.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};
use std::str::FromStr;

const BASE_BITS: u32 = 32;

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian base-2³² limbs with no trailing zero limb, so
/// zero is the empty limb vector and derived `Eq`/`Hash` are canonical.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct UBig {
    /// Little-endian limbs; invariant: `limbs.last() != Some(&0)`.
    limbs: Vec<u32>,
}

/// Error returned when parsing a decimal string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseUBigError {
    offending: char,
}

impl fmt::Display for ParseUBigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid digit {:?} in UBig literal", self.offending)
    }
}

impl std::error::Error for ParseUBigError {}

impl UBig {
    /// The value 0.
    pub fn zero() -> Self {
        UBig { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        UBig { limbs: vec![1] }
    }

    /// Returns `true` iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` iff the value is even. Zero is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l % 2 == 0)
    }

    /// Returns `true` iff the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() - 1) * BASE_BITS as usize + (32 - top.leading_zeros() as usize)
            }
        }
    }

    fn trim(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        if self.limbs.len() > 4 {
            return None;
        }
        let mut v: u128 = 0;
        for &l in self.limbs.iter().rev() {
            v = (v << BASE_BITS) | l as u128;
        }
        Some(v)
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        self.to_u128().and_then(|v| u64::try_from(v).ok())
    }

    /// `self + other`.
    pub fn add_ref(&self, other: &UBig) -> UBig {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Vec::with_capacity(long.limbs.len() + 1);
        let mut carry: u64 = 0;
        for i in 0..long.limbs.len() {
            let s = long.limbs[i] as u64 + short.limbs.get(i).copied().unwrap_or(0) as u64 + carry;
            out.push(s as u32);
            carry = s >> BASE_BITS;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        let mut r = UBig { limbs: out };
        r.trim();
        r
    }

    /// `self - other`, or `None` when `other > self`.
    pub fn checked_sub(&self, other: &UBig) -> Option<UBig> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow: i64 = 0;
        for i in 0..self.limbs.len() {
            let d = self.limbs[i] as i64 - other.limbs.get(i).copied().unwrap_or(0) as i64 - borrow;
            if d < 0 {
                out.push((d + (1i64 << BASE_BITS)) as u32);
                borrow = 1;
            } else {
                out.push(d as u32);
                borrow = 0;
            }
        }
        debug_assert_eq!(borrow, 0);
        let mut r = UBig { limbs: out };
        r.trim();
        Some(r)
    }

    /// `|self - other|`.
    pub fn abs_diff(&self, other: &UBig) -> UBig {
        match self.cmp(other) {
            Ordering::Less => other.checked_sub(self).unwrap(),
            _ => self.checked_sub(other).unwrap(),
        }
    }

    /// `self * small`.
    pub fn mul_small(&self, small: u32) -> UBig {
        if small == 0 || self.is_zero() {
            return UBig::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry: u64 = 0;
        for &l in &self.limbs {
            let p = l as u64 * small as u64 + carry;
            out.push(p as u32);
            carry = p >> BASE_BITS;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        UBig { limbs: out }
    }

    /// `self * other` (schoolbook; operands in this domain stay small).
    pub fn mul_ref(&self, other: &UBig) -> UBig {
        if self.is_zero() || other.is_zero() {
            return UBig::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u64 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u64 + a as u64 * b as u64 + carry;
                out[i + j] = cur as u32;
                carry = cur >> BASE_BITS;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u64 + carry;
                out[k] = cur as u32;
                carry = cur >> BASE_BITS;
                k += 1;
            }
        }
        let mut r = UBig { limbs: out };
        r.trim();
        r
    }

    /// `self^exp` by square-and-multiply.
    pub fn pow(&self, exp: u32) -> UBig {
        let mut base = self.clone();
        let mut exp = exp;
        let mut acc = UBig::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul_ref(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul_ref(&base);
            }
        }
        acc
    }

    /// Divides by a small divisor, returning `(quotient, remainder)`.
    ///
    /// # Panics
    /// Panics when `div == 0`.
    pub fn div_rem_small(&self, div: u32) -> (UBig, u32) {
        assert!(div != 0, "division by zero");
        let mut out = vec![0u32; self.limbs.len()];
        let mut rem: u64 = 0;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << BASE_BITS) | self.limbs[i] as u64;
            out[i] = (cur / div as u64) as u32;
            rem = cur % div as u64;
        }
        let mut q = UBig { limbs: out };
        q.trim();
        (q, rem as u32)
    }

    /// The successor `self + 1`.
    pub fn succ(&self) -> UBig {
        self.add_ref(&UBig::one())
    }

    /// The predecessor `self - 1`, or `None` for zero.
    pub fn pred(&self) -> Option<UBig> {
        self.checked_sub(&UBig::one())
    }
}

impl Ord for UBig {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for i in (0..self.limbs.len()).rev() {
                    match self.limbs[i].cmp(&other.limbs[i]) {
                        Ordering::Equal => continue,
                        o => return o,
                    }
                }
                Ordering::Equal
            }
            o => o,
        }
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

macro_rules! impl_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for UBig {
            fn from(v: $t) -> Self {
                let mut v = v as u128;
                let mut limbs = Vec::new();
                while v != 0 {
                    limbs.push(v as u32);
                    v >>= BASE_BITS;
                }
                UBig { limbs }
            }
        }
    )*};
}

impl_from_uint!(u8, u16, u32, u64, u128, usize);

impl Add for UBig {
    type Output = UBig;
    fn add(self, rhs: UBig) -> UBig {
        self.add_ref(&rhs)
    }
}

impl Add<&UBig> for &UBig {
    type Output = UBig;
    fn add(self, rhs: &UBig) -> UBig {
        self.add_ref(rhs)
    }
}

impl AddAssign<&UBig> for UBig {
    fn add_assign(&mut self, rhs: &UBig) {
        *self = self.add_ref(rhs);
    }
}

impl Sub for UBig {
    type Output = UBig;
    /// # Panics
    /// Panics on underflow; use [`UBig::checked_sub`] to handle it.
    fn sub(self, rhs: UBig) -> UBig {
        self.checked_sub(&rhs).expect("UBig subtraction underflow")
    }
}

impl Sub<&UBig> for &UBig {
    type Output = UBig;
    fn sub(self, rhs: &UBig) -> UBig {
        self.checked_sub(rhs).expect("UBig subtraction underflow")
    }
}

impl SubAssign<&UBig> for UBig {
    fn sub_assign(&mut self, rhs: &UBig) {
        *self = self.checked_sub(rhs).expect("UBig subtraction underflow");
    }
}

impl Mul for UBig {
    type Output = UBig;
    fn mul(self, rhs: UBig) -> UBig {
        self.mul_ref(&rhs)
    }
}

impl Mul<&UBig> for &UBig {
    type Output = UBig;
    fn mul(self, rhs: &UBig) -> UBig {
        self.mul_ref(rhs)
    }
}

impl fmt::Display for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_small(10);
            digits.push(char::from(b'0' + r as u8));
            cur = q;
        }
        digits.reverse();
        let s: String = digits.into_iter().collect();
        f.write_str(&s)
    }
}

impl fmt::Debug for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UBig({self})")
    }
}

impl FromStr for UBig {
    type Err = ParseUBigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut acc = UBig::zero();
        for c in s.chars() {
            if c == '_' {
                continue;
            }
            let d = c.to_digit(10).ok_or(ParseUBigError { offending: c })?;
            acc = acc.mul_small(10).add_ref(&UBig::from(d));
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_is_canonical() {
        assert_eq!(UBig::zero(), UBig::from(0u32));
        assert!(UBig::zero().is_zero());
        assert!(UBig::zero().is_even());
        assert_eq!(UBig::zero().bit_len(), 0);
    }

    #[test]
    fn small_roundtrip() {
        for v in [
            0u128,
            1,
            2,
            12,
            255,
            4096,
            u32::MAX as u128,
            u64::MAX as u128,
            u128::MAX,
        ] {
            assert_eq!(UBig::from(v).to_u128(), Some(v));
        }
    }

    #[test]
    fn display_and_parse_roundtrip() {
        let v: UBig = "9123456789012345678901234567890123456789".parse().unwrap();
        assert_eq!(v.to_string(), "9123456789012345678901234567890123456789");
        assert!(v.to_u128().is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("12a3".parse::<UBig>().is_err());
        assert_eq!("1_000".parse::<UBig>().unwrap(), UBig::from(1000u32));
    }

    #[test]
    fn addition_carries_across_limbs() {
        let a = UBig::from(u32::MAX);
        let b = UBig::from(1u32);
        assert_eq!(a.add_ref(&b), UBig::from(1u64 << 32));
    }

    #[test]
    fn subtraction_borrows_and_checks() {
        let a = UBig::from(1u64 << 32);
        let b = UBig::from(1u32);
        assert_eq!(a.checked_sub(&b), Some(UBig::from(u32::MAX)));
        assert_eq!(b.checked_sub(&a), None);
    }

    #[test]
    fn abs_diff_is_symmetric() {
        let a = UBig::from(100u32);
        let b = UBig::from(58u32);
        assert_eq!(a.abs_diff(&b), UBig::from(42u32));
        assert_eq!(b.abs_diff(&a), UBig::from(42u32));
        assert_eq!(a.abs_diff(&a), UBig::zero());
    }

    #[test]
    fn mul_small_by_zero_is_zero() {
        assert_eq!(UBig::from(12345u32).mul_small(0), UBig::zero());
        assert_eq!(UBig::zero().mul_small(7), UBig::zero());
    }

    #[test]
    fn pow_matches_u128() {
        assert_eq!(UBig::from(2u32).pow(127).to_u128(), Some(1u128 << 127));
        assert_eq!(UBig::from(7u32).pow(0), UBig::one());
        assert_eq!(UBig::from(0u32).pow(5), UBig::zero());
    }

    #[test]
    fn div_rem_small_basics() {
        let v = UBig::from(1_000_000_007u64);
        let (q, r) = v.div_rem_small(10);
        assert_eq!(q, UBig::from(100_000_000u64));
        assert_eq!(r, 7);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = UBig::one().div_rem_small(0);
    }

    #[test]
    fn ordering_compares_by_magnitude() {
        let a = UBig::from(u64::MAX);
        let b = UBig::from(u32::MAX);
        assert!(a > b);
        assert!(b < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn succ_pred_roundtrip() {
        let v = UBig::from(u32::MAX);
        assert_eq!(v.succ().pred(), Some(v));
        assert_eq!(UBig::zero().pred(), None);
    }

    fn arb_u128_pair() -> impl Strategy<Value = (u128, u128)> {
        (any::<u128>(), any::<u128>())
    }

    proptest! {
        #[test]
        fn prop_add_matches_u128((a, b) in arb_u128_pair()) {
            // Stay inside u128 by halving.
            let (a, b) = (a >> 1, b >> 1);
            prop_assert_eq!(
                UBig::from(a).add_ref(&UBig::from(b)).to_u128(),
                Some(a + b)
            );
        }

        #[test]
        fn prop_sub_matches_u128((a, b) in arb_u128_pair()) {
            let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
            prop_assert_eq!(
                UBig::from(hi).checked_sub(&UBig::from(lo)).unwrap().to_u128(),
                Some(hi - lo)
            );
            if hi != lo {
                prop_assert_eq!(UBig::from(lo).checked_sub(&UBig::from(hi)), None);
            }
        }

        #[test]
        fn prop_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            prop_assert_eq!(
                UBig::from(a).mul_ref(&UBig::from(b)).to_u128(),
                Some(a as u128 * b as u128)
            );
        }

        #[test]
        fn prop_mul_small_matches_mul_ref(a in any::<u128>(), s in any::<u32>()) {
            prop_assert_eq!(
                UBig::from(a).mul_small(s),
                UBig::from(a).mul_ref(&UBig::from(s))
            );
        }

        #[test]
        fn prop_div_rem_roundtrip(a in any::<u128>(), d in 1u32..) {
            let v = UBig::from(a);
            let (q, r) = v.div_rem_small(d);
            prop_assert!(r < d);
            prop_assert_eq!(q.mul_small(d).add_ref(&UBig::from(r)), v);
        }

        #[test]
        fn prop_display_parse_roundtrip(a in any::<u128>()) {
            let v = UBig::from(a);
            let back: UBig = v.to_string().parse().unwrap();
            prop_assert_eq!(v.to_string(), a.to_string());
            prop_assert_eq!(back, v);
        }

        #[test]
        fn prop_parity_matches_u128(a in any::<u128>()) {
            prop_assert_eq!(UBig::from(a).is_even(), a.is_multiple_of(2));
        }

        #[test]
        fn prop_cmp_matches_u128((a, b) in arb_u128_pair()) {
            prop_assert_eq!(UBig::from(a).cmp(&UBig::from(b)), a.cmp(&b));
        }
    }
}
