//! Shortest round-trip `f64` rendering, laid out byte for byte as
//! Rust's `Display` lays it out.
//!
//! The digits come from Ryū (Ulf Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the binary value and the two midpoints to
//! its neighbours are scaled to a decimal power by one 128-bit multiply
//! each against a table of powers of five, then decimal digits are
//! removed while the scaled interval still holds a shorter number. The
//! result is the shortest digit string that parses back to the same
//! `f64`, and of those the one closest to the exact binary value —
//! the same digits `Display` prints.
//!
//! The two power-of-five tables are computed once, at first use, by a
//! small big-integer routine ([`Tables::build`]); nothing is checked
//! in and nothing is downloaded.
//!
//! The layout is `Display`'s: never an exponent, a leading `0.` and
//! zeros for magnitudes below one, trailing zeros and no `.0` for
//! integers, `-` on every negative value including `-0`.

use std::sync::OnceLock;

use super::{ascii, write_digits};

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bit width of the scaled inverse powers `⌊2^k / 5^q⌋ + 1`.
const POW5_INV_BITCOUNT: i32 = 125;
/// Bit width of the truncated powers `5^i`.
const POW5_BITCOUNT: i32 = 125;
/// Inverse powers index `q ≤ 290` (the largest finite exponent).
const POW5_INV_LEN: usize = 291;
/// Powers index `i ≤ 325` (the smallest subnormal).
const POW5_LEN: usize = 326;

/// The multiplier tables, each entry a 125-bit value in a `u128`.
struct Tables {
    /// `⌊2^(bitlen(5^q) − 1 + 125) / 5^q⌋ + 1`, for `e2 ≥ 0`.
    inv: Vec<u128>,
    /// The top 125 bits of `5^i`, for `e2 < 0`.
    pow: Vec<u128>,
}

impl Tables {
    /// Compute both tables with little-endian `u64`-limb big integers:
    /// `5^i` by repeated multiplication, the inverses by dividing a
    /// power of two by `5^q` in word-sized steps (for positive
    /// integers `⌊⌊a/b⌋/c⌋ = ⌊a/(bc)⌋`).
    fn build() -> Tables {
        // 5^27 is the largest power of five below 2^64.
        const POW5_27: u64 = 7_450_580_596_923_828_125;
        let mut pow = Vec::with_capacity(POW5_LEN);
        let mut inv = Vec::with_capacity(POW5_INV_LEN);
        let mut five_i: Vec<u64> = vec![1];
        for i in 0..POW5_LEN {
            let len = bit_len(&five_i);
            pow.push(if len >= POW5_BITCOUNT as u32 {
                top_bits(&five_i, len - POW5_BITCOUNT as u32)
            } else {
                top_bits(&five_i, 0) << (POW5_BITCOUNT as u32 - len)
            });
            if i < POW5_INV_LEN {
                let j = len - 1 + POW5_INV_BITCOUNT as u32;
                let mut q = vec![0u64; j as usize / 64 + 1];
                q[j as usize / 64] = 1 << (j % 64);
                for _ in 0..i / 27 {
                    div_small(&mut q, POW5_27);
                }
                div_small(&mut q, 5u64.pow((i % 27) as u32));
                inv.push(top_bits(&q, 0) + 1);
            }
            mul_small(&mut five_i, 5);
        }
        Tables { inv, pow }
    }
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(Tables::build)
}

fn mul_small(n: &mut Vec<u64>, m: u64) {
    let mut carry = 0u128;
    for limb in n.iter_mut() {
        let p = u128::from(*limb) * u128::from(m) + carry;
        *limb = p as u64;
        carry = p >> 64;
    }
    if carry != 0 {
        n.push(carry as u64);
    }
}

fn div_small(n: &mut Vec<u64>, d: u64) {
    let mut rem = 0u128;
    for limb in n.iter_mut().rev() {
        let cur = rem << 64 | u128::from(*limb);
        *limb = (cur / u128::from(d)) as u64;
        rem = cur % u128::from(d);
    }
    while n.len() > 1 && n.last() == Some(&0) {
        n.pop();
    }
}

fn bit_len(n: &[u64]) -> u32 {
    let top = *n.last().expect("non-empty big integer");
    (n.len() as u32 - 1) * 64 + (64 - top.leading_zeros())
}

/// `n >> shift`, which the caller guarantees fits 128 bits.
fn top_bits(n: &[u64], shift: u32) -> u128 {
    let limb = (shift / 64) as usize;
    let bits = shift % 64;
    let word = |i: usize| u128::from(n.get(i).copied().unwrap_or(0));
    let low = word(limb) | word(limb + 1) << 64;
    if bits == 0 {
        low
    } else {
        low >> bits | word(limb + 2) << (128 - bits)
    }
}

/// `bitlen(5^e)` (1 at `e = 0`), exact for `0 ≤ e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10 2^e⌋`, exact for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10 5^e⌋`, exact for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v % 5 == 0 {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · mul / 2^j⌋` for a 55-bit `m` and a 125-bit `mul`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Ryū's core: the shortest decimal `digits · 10^exp` in the rounding
/// interval of the finite, non-zero `f64` with these raw fields.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            1 << MANTISSA_BITS | ieee_mantissa,
        )
    };
    // Round-half-even parsing accepts the interval's ends exactly when
    // the mantissa is even.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // A normal power of two has its lower neighbour twice as close.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    let (mut vr, mut vp, mut vm);
    let e10;
    // Whether the lower end of the interval is an exact decimal with
    // trailing zeros; the upper end is pulled in when it is exact and
    // excluded. Whether the value itself is exact needs no tracking:
    // `Display` rounds an exact tie (removed digits 50…0) up, not to
    // even as Ryū's reference implementation does, so a tie rounds
    // like any other removed 5.
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5_bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = tables().inv[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // At most one of mv, mp and mm is a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = tables().pow[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            // mp = mv + 2 has a trailing zero bit; mm = mv − 1 −
            // mm_shift has one exactly when mm_shift is 1.
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    let mut removed = 0i32;
    let mut round_up = false;
    if vm_trailing_zeros {
        // The rare case: an inclusive lower end that is an exact
        // decimal may itself be the shortest answer.
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm % 10 == 0;
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm % 10 == 0 {
                round_up = vr % 10 >= 5;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        (
            vr + u64::from((vr == vm && !vm_trailing_zeros) || round_up),
            e10 + removed,
        )
    } else {
        // The common case: two digits at a time first.
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        (vr + u64::from(vr == vm || round_up), e10 + removed)
    }
}

/// Longest rendering assembled on the stack; longer ones (far from
/// one in magnitude) are written piecewise.
const LINE: usize = 40;

/// Append the `Display` rendering of the finite `x` to `out`:
/// `format!("{x}")` byte for byte, without the formatting machinery.
pub(super) fn write(out: &mut String, x: f64) {
    debug_assert!(x.is_finite());
    let bits = x.to_bits();
    if bits >> 63 != 0 {
        out.push('-');
    }
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push('0');
        return;
    }
    let (mut digits, mut exp) = shortest(ieee_mantissa, ieee_exponent);
    while digits % 10 == 0 {
        digits /= 10;
        exp += 1;
    }
    // The value is 0.d₁…dₙ × 10^point, with at most 17 digits.
    let n = digits.ilog10() as usize + 1;
    let point = exp + n as i32;

    let mut line = [b'0'; LINE];
    let len = if point <= 0 {
        // 0.000ddd
        let len = 2 + (-point) as usize + n;
        if len > LINE {
            out.push_str("0.");
            push_zeros(out, (-point) as usize);
            write_digits(&mut line, n, digits);
            out.push_str(ascii(&line[..n]));
            return;
        }
        line[1] = b'.';
        write_digits(&mut line, len, digits);
        len
    } else if (point as usize) < n {
        // ddd.ddd: write the digits one place right, then pull the
        // integer part left over the gap for the point.
        let point = point as usize;
        write_digits(&mut line, n + 1, digits);
        line.copy_within(1..=point, 0);
        line[point] = b'.';
        n + 1
    } else {
        // ddd000
        let len = point as usize;
        if len > LINE {
            write_digits(&mut line, n, digits);
            out.push_str(ascii(&line[..n]));
            push_zeros(out, len - n);
            return;
        }
        write_digits(&mut line, n, digits);
        len
    };
    out.push_str(ascii(&line[..len]));
}

fn push_zeros(out: &mut String, mut n: usize) {
    const ZEROS: &str = "00000000000000000000000000000000";
    while n > ZEROS.len() {
        out.push_str(ZEROS);
        n -= ZEROS.len();
    }
    out.push_str(&ZEROS[..n]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn render(x: f64) -> String {
        let mut s = String::new();
        write(&mut s, x);
        s
    }

    /// The byte contract: the writer prints what `Display` prints.
    fn check(x: f64) {
        assert_eq!(render(x), format!("{x}"), "bits {:#018x}", x.to_bits());
    }

    /// Check `x` and its neighbours one unit in the last place away.
    fn check_around(x: f64) {
        let bits = x.to_bits();
        for b in [bits.wrapping_sub(1), bits, bits + 1] {
            let y = f64::from_bits(b);
            if y.is_finite() {
                check(y);
            }
        }
    }

    #[test]
    fn tables_match_their_closed_forms() {
        let t = tables();
        assert_eq!(t.inv.len(), POW5_INV_LEN);
        assert_eq!(t.pow.len(), POW5_LEN);
        // Both tables start at 5^0 = 1.
        assert_eq!(t.inv[0], (1 << 125) + 1);
        assert_eq!(t.pow[0], 1 << 124);
        // Powers of five that fit 128 bits are exact after the shift.
        for (i, &entry) in t.pow.iter().enumerate().take(54) {
            let five_i = 5u128.pow(i as u32);
            let len = 128 - five_i.leading_zeros() as i32;
            assert_eq!(pow5_bits(i as i32), len, "pow5_bits({i})");
            assert_eq!(entry, five_i << (125 - len), "pow[{i}]");
        }
        // Every other entry is a 125-bit number.
        for &entry in t.inv[1..].iter().chain(&t.pow) {
            assert_eq!(128 - entry.leading_zeros(), 125);
        }
    }

    #[test]
    fn special_values() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            0.5,
            2.5,
            1e-7,
            1e15,
            1e16,
            1e21,
            1e22,
            1e23,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            0.002852,
            2.0f64.powi(-1074),
            9_007_199_254_740_993.0,
            123_456_789.123_456_78,
        ] {
            check_around(x);
        }
        assert_eq!(render(-0.0), "-0");
        assert_eq!(render(4.0), "4");
        assert_eq!(render(1e-7), "0.0000001");
        assert_eq!(render(-2.5e3), "-2500");
        // An exact tie between two shortest candidates rounds up: the
        // value is …886.25 exactly, and both …886.2 and …886.3 parse
        // back to it.
        assert_eq!(render(-687_968_782_270_886.0 - 0.25), "-687968782270886.3");
    }

    #[test]
    fn subnormals_exhaustively_at_the_edges() {
        for b in (1..5000u64).chain((1u64 << 52) - 5000..(1u64 << 52) + 5000) {
            check(f64::from_bits(b));
        }
    }

    #[test]
    fn every_power_of_ten_and_its_neighbours() {
        for e in -323..=308 {
            let x: f64 = format!("1e{e}").parse().unwrap();
            check_around(x);
            check_around(-x);
        }
    }

    #[test]
    fn integers_up_to_two_to_the_53() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for n in (0..100_000u64).chain((1 << 53) - 100_000..=1 << 53) {
            check(n as f64);
            // and a random integer of random magnitude
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let m = state >> (11 + state % 53);
            check(m as f64);
        }
    }

    #[test]
    fn digit_count_boundaries() {
        // 10^k − 1 and 10^k ± small steps, where the shortest form
        // changes length, plus 17-digit values that need every digit.
        for k in 0..=22 {
            let p = 10f64.powi(k);
            for x in [p - 1.0, p, p + 1.0, p * 0.999_999_999_999_999_9, 1.0 / p] {
                check_around(x);
            }
        }
        for x in [
            0.300_000_000_000_000_04,
            1.000_000_000_000_000_2,
            2.225_073_858_507_201_4e-308,
            1.797_693_134_862_315_7e308,
            5e-324,
        ] {
            check_around(x);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100_000))]

        #[test]
        fn random_bit_patterns_match_display(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assume!(x.is_finite());
            prop_assert_eq!(render(x), format!("{x}"));
        }

        /// Mantissas with few significant bits have short exact
        /// decimal expansions, so the shortest digits often fall on an
        /// exact tie — which `Display` rounds up, not to even.
        #[test]
        fn sparse_mantissas_match_display(
            exponent in 0u64..2047,
            mantissa in any::<u64>(),
            kept in 0u32..53,
            negative in any::<bool>(),
        ) {
            let mantissa = (mantissa >> 12) & !((1u64 << (52 - kept)) - 1);
            let x = f64::from_bits(u64::from(negative) << 63 | exponent << 52 | mantissa);
            prop_assert_eq!(render(x), format!("{x}"));
        }
    }

    /// The release-mode sweep: ≥ 10^7 random bit patterns against
    /// `Display`. Run with `cargo test --release -p tpn-service --
    /// --ignored`.
    #[test]
    #[ignore = "ten million formats; run in release mode"]
    fn ten_million_random_bit_patterns_match_display() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut checked = 0u64;
        let (mut ours, mut display) = (String::new(), String::new());
        while checked < 10_000_000 {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let x = f64::from_bits(z ^ (z >> 31));
            if !x.is_finite() {
                continue;
            }
            ours.clear();
            display.clear();
            write(&mut ours, x);
            std::fmt::Write::write_fmt(&mut display, format_args!("{x}")).unwrap();
            assert_eq!(ours, display, "bits {:#018x}", x.to_bits());
            checked += 1;
        }
    }
}
