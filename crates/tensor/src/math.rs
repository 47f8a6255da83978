//! The engine's transcendental functions over `f32`: `exp`, `ln`,
//! `log10`, `sigmoid`, `tanh` and `powf`.
//!
//! Every f32 transcendental in the engine binds these — [`crate::Float`]
//! for `f32` (so tensor ops, softmax, log-softmax and the autodiff ops),
//! [`crate::ops::sigmoid`], the relaxed comparison of trainable queries
//! and the SQL builtins `EXP`, `LN`, `LOG10` and `POWER`. Each is a range
//! reduction and a fixed polynomial built only from `+`, `−`, `×`, `÷`,
//! bit casts and magic-number rounding: no libm call, no FMA (Rust never
//! contracts a multiply and an add), so a result's bits are the same on
//! every host whose float arithmetic is IEEE 754. The host's `expf` is
//! documented as platform-dependent; these are not.
//!
//! Each function comes twice: an `#[inline(always)]` scalar, which
//! inlines into a caller's loop and vectorises there (all but `powf` are
//! branch-free; its IEEE special cases branch), and a row kernel over
//! slices (`*_rows`) with the same bits.
//!
//! | function | method | max error | NaN out |
//! |---|---|---|---|
//! | [`exp`] | `x = k·ln 2 + r` (Cody–Waite, `|r| ≤ ln 2 / 2`), `e^r` by its degree-7 Taylor polynomial, `2^k` applied in two steps so subnormal results round once | 1 ulp | NaN in |
//! | [`ln`] | `x = 2^k·m`, `m ∈ [√½, √2)`, `ln m = 2·atanh(s)` with `s = (m − 1)/(m + 1)`, odd series to `s⁹` | 1 ulp | NaN in, `x < 0` |
//! | [`log10`] | [`ln`]'s reduction, its sum split into high and low parts scaled by `1/ln 10` and `log10 2` each in two pieces | 1 ulp | NaN in, `x < 0` |
//! | [`sigmoid`] | `z = exp(−|x|)`, then `1/(1 + z)` for `x ≥ 0` and `z/(1 + z)` below, chosen by select | 2 ulp | NaN in |
//! | [`tanh`] | `expm1(2|x|)/(expm1(2|x|) + 2)` evaluated in f64 (`expm1` by [`exp`]'s reduction and a degree-11 Taylor polynomial) and rounded once; `|x|` clamped at 9.5, where `tanh` rounds to 1 | 0 ulp | NaN in |
//! | [`powf`] | IEEE special cases, then `e^(y·ln |x|)` evaluated in f64 ([`ln`]'s reduction, `atanh` series to `s¹⁵`; `exp` as for [`tanh`]) and rounded once | 1 ulp (sample) | NaN in (but `powf(x, ±0) = powf(1, y) = 1`), finite `x < 0` to a non-integer `y` |
//!
//! "Max error" is the largest distance, in units in the last place, from
//! the f64 reference (std's f64 function) rounded to f32, over all 2³²
//! inputs — for `powf`, over 50 million seeded `(x, y)` pairs — measured
//! by `cargo test --release -p tdp_tensor -- --ignored` (the bound
//! reached is asserted exactly). `tanh`'s 0 means every result equals the
//! rounded reference.
//!
//! **NaN.** Every NaN a function returns — for a NaN input, or an
//! invalid operation (last column) — is the one canonical quiet NaN,
//! [`f32::NAN`] (`0x7fc0_0000`), whatever the input's sign and payload.

/// `1.5·2²³`: added to an `f32` of magnitude below `2²²`, it rounds the
/// value to the nearest integer (ties to even), which then sits in the
/// low mantissa bits.
const ROUND: f32 = 12_582_912.0;
/// The bit pattern of [`ROUND`].
const ROUND_BITS: i32 = 0x4b40_0000;
const LOG2_E: f32 = std::f32::consts::LOG2_E;
/// `ln 2` in two parts: the high part has 15 significant bits, so
/// `k·LN2_HI` is exact for `|k| < 2⁹`.
const LN2_HI: f32 = 0.693_145_75; // 0x3f31_7200
const LN2_LO: f32 = 1.428_606_8e-6; // 0x35bf_be8e
/// Inputs below which `exp` rounds to `+0` (`−150·ln 2 ≈ −103.97`) and
/// above which it overflows (`≈ 88.72`), with a margin: clamping there
/// keeps `k` within the two-step scaling's range.
const EXP_LO: f32 = -104.0;
const EXP_HI: f32 = 89.0;
/// `√½` as the bit pattern the `ln` reduction centres mantissas on.
const SQRT_HALF_BITS: u32 = 0x3f35_04f3;
/// `2²³`, the scale that makes a subnormal normal.
const TWO_23: f32 = 8_388_608.0;
/// `1/ln 10` and `log10 2` in two parts each, the high parts short enough
/// that their products with a 12-bit `hi` and with `k` are exact.
const IVLN10_HI: f32 = 0.434_326_17; // 0x3ede_6000
const IVLN10_LO: f32 = -3.168_997e-5; // 0xb804_ead9
const LOG10_2_HI: f32 = 0.301_029_2; // 0x3e9a_2080
const LOG10_2_LO: f32 = 7.903_415e-7; // 0x3554_27db
/// [`ROUND`], [`LN2_HI`] and [`LN2_LO`] for the f64 reduction; `k·LN2_HI64`
/// is exact for `|k| < 2¹¹`.
const ROUND64: f64 = 6_755_399_441_055_744.0; // 1.5·2⁵²
const LN2_HI64: f64 = 6.931_471_803_691_238e-1; // 0x3fe6_2e42_fee0_0000
const LN2_LO64: f64 = 1.908_214_929_270_587_7e-10; // 0x3dea_39ef_3579_3c76
/// Past this `|x|`, `tanh(x)` rounds to ±1 (`1 − tanh(9.5) ≈ 1.1e-8`,
/// below half an ulp of 1).
const TANH_SAT: f32 = 9.5;

/// `2^k` for `k` in the normal exponent range `[−126, 127]`.
#[inline(always)]
fn pow2(k: i32) -> f32 {
    f32::from_bits(((k + 127) as u32) << 23)
}

/// `e^x`.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // Clamp by select; a NaN fails both comparisons and lands on EXP_LO,
    // and is restored at the end.
    let c = if x > EXP_LO { x } else { EXP_LO };
    let c = if c < EXP_HI { c } else { EXP_HI };
    // k = round(c / ln 2), r = c − k·ln 2 with |r| ≤ ln 2 / 2 (plus a
    // rounding's worth); `c − k·LN2_HI` is exact.
    let t = c * LOG2_E + ROUND;
    let kf = t - ROUND;
    let k = t.to_bits() as i32 - ROUND_BITS;
    let r = (c - kf * LN2_HI) - kf * LN2_LO;
    // e^r = 1 + r + r²·(1/2! + r/3! + … + r⁵/7!); the truncation is
    // below 6e-9 relative on |r| ≤ 0.35.
    let p = 1.0 / 2.0
        + r * (1.0 / 6.0
            + r * (1.0 / 24.0 + r * (1.0 / 120.0 + r * (1.0 / 720.0 + r * (1.0 / 5040.0)))));
    let er = 1.0 + (r + (r * r) * p);
    // 2^k as 2^k1·2^k2, each factor normal for k ∈ [−150, 128]: the first
    // product is exact, the second rounds once (into the subnormals, or
    // to +∞ past the overflow threshold).
    let k1 = k >> 1;
    let y = er * pow2(k1) * pow2(k - k1);
    if x.is_nan() {
        f32::NAN
    } else {
        y
    }
}

/// The logistic function `1/(1 + e^−x)`, computed as `1/(1 + z)` for
/// `x ≥ 0` and `z/(1 + z)` below, `z = e^−|x|`, so `e^·` never
/// overflows; the form is chosen by select, not by a branch.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    let z = exp(-x.abs());
    let num = if x >= 0.0 { 1.0 } else { z };
    num / (1.0 + z)
}

/// `ln x` reduced to `(k, f)`: `x = 2^k·(1 + f)` with `1 + f ∈ [√½, √2)`,
/// subnormal `x` scaled up first. Meaningful for finite `x > 0` only.
#[inline(always)]
fn ln_reduce(x: f32) -> (i32, f32) {
    let sub = x < f32::MIN_POSITIVE;
    let xs = if sub { x * TWO_23 } else { x };
    let bias = if sub { -23 } else { 0 };
    // Shift the exponent boundary from 1 to √½: mantissas at or above
    // √½ keep their exponent, those below borrow one.
    let ix = xs.to_bits().wrapping_add(0x3f80_0000 - SQRT_HALF_BITS);
    let k = (ix >> 23) as i32 - 0x7f + bias;
    let m = f32::from_bits((ix & 0x007f_ffff) + SQRT_HALF_BITS);
    (k, m - 1.0)
}

/// `ln(1 + f) − f + f²/2`'s pieces for `|f| ≤ 0.42`: `(s, hfsq, s·(hfsq
/// + R))` where `s = f/(2 + f)`, `hfsq = f²/2` and
/// `R = 2s²/3 + 2s⁴/5 + 2s⁶/7 + 2s⁸/9` (the `atanh` series; the next term
/// is below 2e-9 relative for `s² ≤ 0.0295`), so that
/// `ln(1 + f) = f − hfsq + s·(hfsq + R)`.
#[inline(always)]
fn log1p_tail(f: f32) -> (f32, f32) {
    let s = f / (2.0 + f);
    let z = s * s;
    let r = z * (2.0 / 3.0 + z * (2.0 / 5.0 + z * (2.0 / 7.0 + z * (2.0 / 9.0))));
    let hfsq = 0.5 * f * f;
    (hfsq, s * (hfsq + r))
}

/// The special cases of a logarithm: `+∞` at `+∞`, `−∞` at ±0, NaN below
/// zero and at NaN; `y` elsewhere.
#[inline(always)]
fn log_specials(x: f32, y: f32) -> f32 {
    let y = if x == f32::INFINITY { x } else { y };
    let y = if x == 0.0 { f32::NEG_INFINITY } else { y };
    if x >= 0.0 {
        y
    } else {
        f32::NAN
    }
}

/// The natural logarithm.
#[inline(always)]
pub fn ln(x: f32) -> f32 {
    let (k, f) = ln_reduce(x);
    let (hfsq, tail) = log1p_tail(f);
    let dk = k as f32;
    // k·ln 2 + f − hfsq + tail, the small terms summed first; `dk·LN2_HI`
    // is exact.
    let y = dk * LN2_HI - ((hfsq - (tail + dk * LN2_LO)) - f);
    log_specials(x, y)
}

/// The base-10 logarithm.
#[inline(always)]
pub fn log10(x: f32) -> f32 {
    let (k, f) = ln_reduce(x);
    let (hfsq, tail) = log1p_tail(f);
    // ln(1 + f) = hi + lo, hi carrying the top 12 bits of f − hfsq, so
    // hi·IVLN10_HI is exact.
    let hi = f32::from_bits((f - hfsq).to_bits() & 0xffff_f000);
    let lo = f - hi - hfsq + tail;
    let dk = k as f32;
    let y =
        dk * LOG10_2_LO + (lo + hi) * IVLN10_LO + lo * IVLN10_HI + hi * IVLN10_HI + dk * LOG10_2_HI;
    log_specials(x, y)
}

/// `2^k` as an f64, for `k` in the normal exponent range.
#[inline(always)]
fn pow2_64(k: i64) -> f64 {
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// `e^y = s·(1 + p)` for `|y| ≤ 745` in f64: `(s, p)` with `s = 2^k`
/// and `p = e^r − 1`, `y = k·ln 2 + r`, `|r| ≤ ln 2 / 2`, `p` by its
/// degree-11 Taylor polynomial (truncation below 2e-14 relative).
#[inline(always)]
fn exp_parts64(y: f64) -> (f64, f64) {
    let t = y * std::f64::consts::LOG2_E + ROUND64;
    let kf = t - ROUND64;
    let k = t.to_bits() as i64 - ROUND64.to_bits() as i64;
    let r = (y - kf * LN2_HI64) - kf * LN2_LO64;
    let mut q = 1.0 / 39_916_800.0; // 1/11!
    for d in [
        3_628_800.0,
        362_880.0,
        40_320.0,
        5_040.0,
        720.0,
        120.0,
        24.0,
        6.0,
        2.0,
    ] {
        q = 1.0 / d + r * q;
    }
    (pow2_64(k), r + (r * r) * q)
}

/// The hyperbolic tangent.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let a = if a < TANH_SAT { a } else { TANH_SAT };
    // tanh a = em/(em + 2), em = e^(2a) − 1 = s·p + (s − 1): exact for
    // k = 0 (em = p), no cancellation of note otherwise.
    let (s, p) = exp_parts64(2.0 * f64::from(a));
    let em = s * p + (s - 1.0);
    let t = (em / (em + 2.0)) as f32;
    let y = f32::from_bits(t.to_bits() | (x.to_bits() & 0x8000_0000));
    if x.is_nan() {
        f32::NAN
    } else {
        y
    }
}

/// Whether `y` is an integer, and if so whether it is odd.
#[inline(always)]
fn integer_class(y: f32) -> (bool, bool) {
    let bits = y.to_bits();
    let e = ((bits >> 23) & 0xff) as i32 - 127;
    if e < 0 {
        return (y == 0.0, false);
    }
    if e >= 24 {
        return (true, false);
    }
    // The significand bits below 2⁰; above them, for e ≥ 1, the 2⁰ bit
    // (for e = 0 it is the implicit leading 1).
    let frac = 0x007f_ffff_u32 >> e;
    let integer = bits & frac == 0;
    (integer, integer && (e == 0 || bits & (frac + 1) != 0))
}

/// `x` to the power `y`, with the special cases of IEEE 754 `pow`:
/// `powf(x, ±0) = 1` and `powf(1, y) = 1` even for NaN; otherwise NaN
/// in, NaN out; ±0 and ±∞ bases and ±∞ exponents by their limits, an odd
/// integer exponent keeping the base's sign; a negative finite base to a
/// non-integer power is NaN.
#[inline(always)]
pub fn powf(x: f32, y: f32) -> f32 {
    if y == 0.0 || x == 1.0 {
        return 1.0;
    }
    if x.is_nan() || y.is_nan() {
        return f32::NAN;
    }
    let ax = x.abs();
    if y.is_infinite() {
        return if ax == 1.0 {
            1.0
        } else if (ax < 1.0) == (y < 0.0) {
            f32::INFINITY
        } else {
            0.0
        };
    }
    let (integer, odd) = integer_class(y);
    let negative = x.to_bits() >> 31 == 1;
    if negative && !integer && ax != 0.0 && ax != f32::INFINITY {
        return f32::NAN;
    }
    let magnitude = if ax == 0.0 || ax == f32::INFINITY {
        if (ax == 0.0) == (y < 0.0) {
            f32::INFINITY
        } else {
            0.0
        }
    } else {
        // |x|^y = e^(y·ln|x|), ln|x| = k·ln 2 + ln(1 + f) in f64 from
        // ln's exact f32 reduction, ln(1 + f) = 2·atanh(f/(2 + f)) to the
        // s¹⁵ term (truncation below 4e-14 relative).
        let (k, f) = ln_reduce(ax);
        let f = f64::from(f);
        let s = f / (2.0 + f);
        let z = s * s;
        let mut q = 1.0 / 15.0;
        for d in [13.0, 11.0, 9.0, 7.0, 5.0, 3.0, 1.0] {
            q = 1.0 / d + z * q;
        }
        let l = k as f64 * std::f64::consts::LN_2 + 2.0 * s * q;
        // Outside ±200 the f32 result is 0 or ∞ already; the clamp keeps
        // 2^k within f64's normal range.
        let e = (f64::from(y) * l).clamp(-200.0, 200.0);
        let (s2, p) = exp_parts64(e);
        (s2 + s2 * p) as f32
    };
    if negative && odd {
        -magnitude
    } else {
        magnitude
    }
}

/// A unary kernel applied to every element of `x`, written to `out`.
#[inline(always)]
fn rows(x: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
    assert_eq!(
        x.len(),
        out.len(),
        "row kernel over slices of unequal length"
    );
    for (o, &v) in out.iter_mut().zip(x) {
        *o = f(v);
    }
}

/// [`exp`] of every element of `x`, into `out` (of the same length).
pub fn exp_rows(x: &[f32], out: &mut [f32]) {
    rows(x, out, exp)
}

/// [`ln`] of every element of `x`, into `out`.
pub fn ln_rows(x: &[f32], out: &mut [f32]) {
    rows(x, out, ln)
}

/// [`log10`] of every element of `x`, into `out`.
pub fn log10_rows(x: &[f32], out: &mut [f32]) {
    rows(x, out, log10)
}

/// [`sigmoid`] of every element of `x`, into `out`.
pub fn sigmoid_rows(x: &[f32], out: &mut [f32]) {
    rows(x, out, sigmoid)
}

/// [`tanh`] of every element of `x`, into `out`.
pub fn tanh_rows(x: &[f32], out: &mut [f32]) {
    rows(x, out, tanh)
}

/// [`powf`] of every element of `x` to the power `e`, into `out`.
pub fn powf_rows(x: &[f32], e: f32, out: &mut [f32]) {
    rows(x, out, |v| powf(v, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x`'s position on the line of f32 values ordered by value, so the
    /// ulp distance of two finite values (or a finite value and ±∞) is
    /// the difference of their positions; −0 and +0 share one.
    fn position(x: f32) -> i64 {
        let b = x.to_bits();
        if b >> 31 == 1 {
            -i64::from(b & 0x7fff_ffff)
        } else {
            i64::from(b)
        }
    }

    /// Distance in ulps of `got` from `want`; NaN against NaN is 0, NaN
    /// against a number is "infinitely" far.
    fn ulps(got: f32, want: f32) -> u64 {
        match (got.is_nan(), want.is_nan()) {
            (true, true) => 0,
            (false, false) => (position(got) - position(want)).unsigned_abs(),
            _ => u64::MAX,
        }
    }

    /// A unary function under test: its scalar and row kernels, its f64
    /// reference and the ulp bound the module doc states.
    type Unary = (
        &'static str,
        fn(f32) -> f32,
        fn(&[f32], &mut [f32]),
        fn(f64) -> f64,
        u64,
    );

    fn unary() -> [Unary; 5] {
        [
            ("exp", exp, exp_rows, f64::exp, 1),
            ("ln", ln, ln_rows, f64::ln, 1),
            ("log10", log10, log10_rows, f64::log10, 1),
            (
                "sigmoid",
                sigmoid,
                sigmoid_rows,
                |x| 1.0 / (1.0 + (-x).exp()),
                2,
            ),
            ("tanh", tanh, tanh_rows, f64::tanh, 0),
        ]
    }

    /// The f64 reference of `pow`, rounded to f32.
    fn pow_reference(x: f32, y: f32) -> f32 {
        f64::from(x).powf(f64::from(y)) as f32
    }

    #[test]
    fn split_constants_have_their_documented_bits() {
        assert_eq!(LN2_HI.to_bits(), 0x3f31_7200);
        assert_eq!(LN2_LO.to_bits(), 0x35bf_be8e);
        assert_eq!(IVLN10_HI.to_bits(), 0x3ede_6000);
        assert_eq!(IVLN10_LO.to_bits(), 0xb804_ead9);
        assert_eq!(LOG10_2_HI.to_bits(), 0x3e9a_2080);
        assert_eq!(LOG10_2_LO.to_bits(), 0x3554_27db);
        assert_eq!(ROUND.to_bits() as i32, ROUND_BITS);
        assert_eq!(LN2_HI64.to_bits(), 0x3fe6_2e42_fee0_0000);
        assert_eq!(LN2_LO64.to_bits(), 0x3dea_39ef_3579_3c76);
        assert_eq!(LN2_HI64 + LN2_LO64, std::f64::consts::LN_2);
        let ln2 = f64::from(LN2_HI) + f64::from(LN2_LO);
        assert!((ln2 - std::f64::consts::LN_2).abs() < 1e-13);
        let ivln10 = f64::from(IVLN10_HI) + f64::from(IVLN10_LO);
        assert!((ivln10 - std::f64::consts::LOG10_E).abs() < 1e-12);
        let log10_2 = f64::from(LOG10_2_HI) + f64::from(LOG10_2_LO);
        assert!((log10_2 - std::f64::consts::LOG10_2).abs() < 1e-12);
    }

    /// The cases every function must return exactly.
    #[test]
    fn special_values_are_exact() {
        let nan = f32::NAN.to_bits();
        let (inf, ninf) = (f32::INFINITY, f32::NEG_INFINITY);
        let quiet_negative_payload = f32::from_bits(0xffc0_0001);
        for x in [f32::NAN, -f32::NAN, quiet_negative_payload] {
            for (name, f, ..) in unary() {
                assert_eq!(f(x).to_bits(), nan, "{name}({x:?}) is the canonical NaN");
            }
        }
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(inf), inf);
        assert_eq!(exp(ninf).to_bits(), 0);
        // Overflow: the largest input with a finite result and the next.
        assert_eq!(exp(88.722_83), 3.402_798_5e38);
        assert_eq!(exp(88.722_84), inf);
        // Underflow: e^x rounds to the least subnormal from −150·ln 2 up,
        // and to zero below it.
        assert_eq!(exp(-103.972_07).to_bits(), 1);
        assert_eq!(exp(-103.972_084).to_bits(), 0);
        // A subnormal output, correctly rounded.
        assert_eq!(exp(-100.0), (-100.0f64).exp() as f32);

        assert_eq!(ln(1.0).to_bits(), 0);
        assert_eq!(ln(0.0), ninf);
        assert_eq!(ln(-0.0), ninf);
        assert_eq!(ln(inf), inf);
        assert_eq!(ln(-1.0).to_bits(), nan);
        assert_eq!(ln(ninf).to_bits(), nan);
        assert_eq!(ln(f32::from_bits(1)), -103.278_93);
        assert_eq!(log10(1.0).to_bits(), 0);
        assert_eq!(log10(10.0), 1.0);
        assert_eq!(log10(1e-30), -30.0);
        assert_eq!(log10(0.0), ninf);
        assert_eq!(log10(inf), inf);
        assert_eq!(log10(-2.0).to_bits(), nan);
        assert_eq!(log10(f32::from_bits(1)), -44.853_47);

        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-0.0), 0.5);
        assert_eq!(sigmoid(inf), 1.0);
        assert_eq!(sigmoid(ninf).to_bits(), 0);
        assert_eq!(sigmoid(-100.0), (1.0 / (1.0 + 100.0f64.exp())) as f32);
        assert!(sigmoid(-100.0) < f32::MIN_POSITIVE, "a subnormal output");
        assert_eq!(sigmoid(-110.0).to_bits(), 0);

        assert_eq!(tanh(0.0).to_bits(), 0);
        assert_eq!(tanh(-0.0).to_bits(), 0x8000_0000);
        assert_eq!(tanh(inf), 1.0);
        assert_eq!(tanh(ninf), -1.0);
        assert_eq!(tanh(f32::from_bits(1)).to_bits(), 1);
        assert_eq!(tanh(9.0), 0.999_999_94);
        assert_eq!(tanh(9.5), 1.0);
    }

    /// IEEE 754's `pow` special cases, row by row.
    #[test]
    fn powf_special_cases() {
        let (inf, ninf, nan) = (f32::INFINITY, f32::NEG_INFINITY, f32::NAN);
        let same = |got: f32, want: f32| got.to_bits() == want.to_bits();
        let table: &[(f32, f32, f32)] = &[
            (nan, 0.0, 1.0),
            (nan, -0.0, 1.0),
            (1.0, nan, 1.0),
            (1.0, inf, 1.0),
            (2.0, nan, nan),
            (nan, 2.0, nan),
            (-1.0, inf, 1.0),
            (-1.0, ninf, 1.0),
            (0.5, inf, 0.0),
            (2.0, inf, inf),
            (0.5, ninf, inf),
            (-2.0, ninf, 0.0),
            (0.0, -3.0, inf),
            (-0.0, -3.0, ninf),
            (-0.0, -2.0, inf),
            (-0.0, -0.5, inf),
            (0.0, ninf, inf),
            (0.0, 3.0, 0.0),
            (-0.0, 3.0, -0.0),
            (-0.0, 2.0, 0.0),
            (-0.0, 0.5, 0.0),
            (ninf, -3.0, -0.0),
            (ninf, -2.0, 0.0),
            (ninf, 3.0, ninf),
            (ninf, 2.5, inf),
            (inf, -1.0, 0.0),
            (inf, 0.5, inf),
            (-2.0, 0.5, nan),
            (-2.0, 3.0, -8.0),
            (-2.0, 2.0, 4.0),
            (-2.0, -1.0, -0.5),
            (-8.0, 1.0 / 3.0, nan),
            (2.0, 128.0, inf),
            (2.0, -149.0, f32::from_bits(1)),
            (2.0, -151.0, 0.0),
            (-2.0, 1e10, inf),
            (10.0, 2.0, 100.0),
            (4.0, 0.5, 2.0),
        ];
        for &(x, y, want) in table {
            assert!(same(powf(x, y), want), "powf({x}, {y}) = {}", powf(x, y));
        }
        // An odd integer at the top of f32's integer range keeps the sign.
        assert!(same(powf(-1.0, 16_777_215.0), -1.0));
        assert!(same(powf(-1.0, 16_777_216.0), 1.0));
    }

    /// A seeded sample of (x, y) pairs: within 1 ulp of the f64 reference;
    /// and the row kernel's bits equal to the scalar's.
    #[test]
    fn powf_sample_is_within_its_bound() {
        let mut rng = crate::Rng64::new(19);
        let xs: Vec<f32> = (0..4096)
            .map(|_| f32::from_bits(rng.next_u64() as u32))
            .collect();
        let mut out = vec![0.0; xs.len()];
        for _ in 0..50 {
            let y = (rng.normal() * 8.0) as f32;
            powf_rows(&xs, y, &mut out);
            for (&x, &got) in xs.iter().zip(&out) {
                assert_eq!(got.to_bits(), powf(x, y).to_bits(), "powf_rows({x:e}, {y})");
                let want = pow_reference(x, y);
                assert!(
                    ulps(got, want) <= 1,
                    "powf({x:e}, {y}) = {got:e}, want {want:e}"
                );
            }
        }
    }

    /// A strided sweep of every function over the whole f32 line: the
    /// stated bound, and the row kernel's bits equal to the scalar's.
    #[test]
    fn strided_sweep_is_within_the_bounds() {
        let xs: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
        let mut out = vec![0.0; xs.len()];
        for (name, f, rows, reference, bound) in unary() {
            rows(&xs, &mut out);
            for (&x, &got) in xs.iter().zip(&out) {
                assert_eq!(got.to_bits(), f(x).to_bits(), "{name}_rows({x:e})");
                let want = reference(f64::from(x)) as f32;
                assert!(
                    ulps(got, want) <= bound,
                    "{name}({x:e}) = {got:e}, want {want:e}"
                );
            }
        }
    }

    /// All 2³² inputs of the `name` entry of [`unary`] against its f64
    /// reference, in chunks spread over the accelerator's lanes: the row
    /// kernel's bits against the scalar's, and the largest ulp distance,
    /// which must be exactly the bound the module doc states.
    fn exhaustive(name: &str) {
        const CHUNK: usize = 1 << 16;
        let (_, f, rows, reference, bound) = unary().into_iter().find(|u| u.0 == name).unwrap();
        let mut worst = vec![(0u64, 0u32); (1 << 32) / CHUNK];
        crate::Device::accel().fill_indexed(&mut worst, |chunk| {
            let xs: Vec<f32> = (0..CHUNK)
                .map(|i| f32::from_bits((chunk * CHUNK + i) as u32))
                .collect();
            let mut out = vec![0.0; CHUNK];
            rows(&xs, &mut out);
            let mut worst = (0, 0);
            for (&x, &got) in xs.iter().zip(&out) {
                assert_eq!(got.to_bits(), f(x).to_bits(), "{name}_rows({x:e})");
                let d = ulps(got, reference(f64::from(x)) as f32);
                if d > worst.0 {
                    worst = (d, x.to_bits());
                }
            }
            worst
        });
        let (d, at) = worst.into_iter().max_by_key(|w| w.0).unwrap();
        println!("{name}: max {d} ulp (at {:e})", f32::from_bits(at));
        assert_eq!(d, bound, "{name}'s bound is the one reached");
    }

    // Release only, `cargo test --release -p tdp_tensor -- --ignored`: each
    // takes one to three minutes on two cores.
    #[test]
    #[ignore]
    fn exhaustive_exp() {
        exhaustive("exp");
    }

    #[test]
    #[ignore]
    fn exhaustive_ln() {
        exhaustive("ln");
    }

    #[test]
    #[ignore]
    fn exhaustive_log10() {
        exhaustive("log10");
    }

    #[test]
    #[ignore]
    fn exhaustive_sigmoid() {
        exhaustive("sigmoid");
    }

    #[test]
    #[ignore]
    fn exhaustive_tanh() {
        exhaustive("tanh");
    }

    /// `powf` over 50 million seeded (x, y) pairs — x any bit pattern, y
    /// a fraction or (one in four) an integer — within its 1-ulp bound,
    /// which the sample reaches.
    #[test]
    #[ignore]
    fn powf_large_sample() {
        let mut rng = crate::Rng64::new(23);
        let mut worst = 0;
        for i in 0..50_000_000u64 {
            let x = f32::from_bits(rng.next_u64() as u32);
            let y = match i % 4 {
                0 => (rng.normal() * 40.0).round() as f32,
                _ => (rng.normal() * 8.0) as f32,
            };
            worst = worst.max(ulps(powf(x, y), pow_reference(x, y)));
        }
        println!("powf: max {worst} ulp over the sample");
        assert_eq!(worst, 1, "powf's bound is the one reached");
    }
}
