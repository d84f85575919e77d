//! The exact short-decimal fast path shared by the workspace's two text
//! readers: the JSON reader in this crate and the CSV reader of
//! `dod-data`, which compiles this same file as its own module (it does
//! not depend on this crate, and one source file keeps the two readers
//! on one conversion).
//!
//! A decimal `-?[0-9]*(\.[0-9]*)?` with 1 to [`MAX_DIGITS`] digits, whose
//! digits read as one integer `m < 2^53` (the point dropped), and with
//! `f` digits after the point, is `m as f64 / 10^f`. Both operands are
//! exact: `m < 2^53`, and `10^f` for `f <= 19 <= 22` is exact in an
//! `f64` (`10^f = 5^f · 2^f` and `5^f < 2^53`). IEEE division rounds
//! correctly, so the quotient is the decimal's correctly rounded `f64`:
//! the bits `str::parse::<f64>` returns. This is Clinger's fast path,
//! the first step of `core`'s own decimal-to-float conversion. `-0`
//! reads as `-0.0`, as it parses. Every other number (an exponent, more
//! digits, a larger mantissa) is the caller's to hand to `str::parse`.

/// Most digits the fast path reads: any 19-digit mantissa fits a `u64`.
pub const MAX_DIGITS: usize = 19;

/// `10^f` for every fraction length the fast path meets.
const POW10: [f64; MAX_DIGITS + 1] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19,
];

/// Reads the decimal at the front of `bytes`. Returns its value and the
/// bytes it spans, up to the first byte that cannot continue it (which
/// the caller judges), or `None` when the fast path does not cover it:
/// no digit, more than [`MAX_DIGITS`] digits, or a mantissa of `2^53` or
/// more.
#[inline]
pub fn prefix(bytes: &[u8]) -> Option<(f64, usize)> {
    let negative = bytes.first() == Some(&b'-');
    let mut i = usize::from(negative);
    let (mut mantissa, mut digits, mut dot) = (0u64, 0, None);
    while let Some(&b) = bytes.get(i) {
        if b.is_ascii_digit() {
            if digits == MAX_DIGITS {
                return None;
            }
            mantissa = 10 * mantissa + u64::from(b - b'0');
            digits += 1;
        } else if b == b'.' && dot.is_none() {
            dot = Some(digits);
        } else {
            break;
        }
        i += 1;
    }
    if digits == 0 || mantissa >= 1 << 53 {
        return None;
    }
    let v = mantissa as f64 / POW10[dot.map_or(0, |d| digits - d)];
    Some((if negative { -v } else { v }, i))
}
