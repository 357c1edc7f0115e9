//! The shortest decimal that reads back as a given `f64`: Ryu (Ulf Adams,
//! "Ryū: fast float-to-string conversion", PLDI 2018), over 128-bit
//! multipliers that one small big-integer routine computes on first use.
//!
//! The reference breaks an exact tie between two shortest candidates to
//! the even one; std's formatting rounds it half up, and so does this.

use std::sync::OnceLock;

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bits kept of each multiplier `5^i` and `2^j / 5^q`.
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_BITCOUNT: i32 = 125;
/// One `5^i` for each `i = -e2 - q` of the negative-exponent branch
/// (`e2 >= -1076`, so `i <= 325`).
const POW5_LEN: usize = 326;
/// One `2^j / 5^q` for each `q` of the non-negative-exponent branch
/// (`e2 <= 969`, so `q <= 290`).
const POW5_INV_LEN: usize = 291;

struct Multipliers {
    /// The top `POW5_BITCOUNT` bits of `5^i`.
    pow5: Vec<u128>,
    /// `floor(2^(bits(5^q) - 1 + POW5_INV_BITCOUNT) / 5^q) + 1`.
    pow5_inv: Vec<u128>,
}

fn multipliers() -> &'static Multipliers {
    static TABLES: OnceLock<Multipliers> = OnceLock::new();
    TABLES.get_or_init(|| {
        // `pow` is 5^i in little-endian 32-bit limbs.
        let mut pow = vec![1u32];
        let mut pow5 = Vec::with_capacity(POW5_LEN);
        let mut pow5_inv = Vec::with_capacity(POW5_INV_LEN);
        for i in 0..POW5_LEN.max(POW5_INV_LEN) {
            let bits = bit_len(&pow);
            if i < POW5_LEN {
                pow5.push(top_bits(&pow, bits));
            }
            if i < POW5_INV_LEN {
                pow5_inv.push(inverse(&pow, bits) + 1);
            }
            let mut carry = 0u64;
            for limb in &mut pow {
                let x = u64::from(*limb) * 5 + carry;
                *limb = x as u32;
                carry = x >> 32;
            }
            if carry > 0 {
                pow.push(carry as u32);
            }
        }
        Multipliers { pow5, pow5_inv }
    })
}

fn bit_len(n: &[u32]) -> u32 {
    let top = n.len() - 1;
    32 * top as u32 + (32 - n[top].leading_zeros())
}

/// `n` shifted so that its `bits` significant bits become the top of a
/// `POW5_BITCOUNT`-bit number (dropping what falls below).
fn top_bits(n: &[u32], bits: u32) -> u128 {
    let keep = POW5_BITCOUNT as u32;
    if bits <= keep {
        let value = n
            .iter()
            .rev()
            .fold(0u128, |acc, &limb| (acc << 32) | u128::from(limb));
        return value << (keep - bits);
    }
    let shift = bits - keep;
    (0..4).fold(0u128, |acc, k| {
        acc | u128::from(bits_at(n, shift + 32 * k)) << (32 * k)
    })
}

/// The 32 bits of `n` starting at bit `start`.
fn bits_at(n: &[u32], start: u32) -> u32 {
    let limb = |i: usize| u64::from(n.get(i).copied().unwrap_or(0));
    let (i, shift) = ((start / 32) as usize, start % 32);
    ((limb(i) | limb(i + 1) << 32) >> shift) as u32
}

/// `floor(2^(bits - 1 + POW5_INV_BITCOUNT) / n)` for the `bits`-bit `n`,
/// by binary long division.
fn inverse(n: &[u32], bits: u32) -> u128 {
    // The remainder starts at 2^(bits - 1) <= n and stays below 2n.
    let mut r = vec![0u32; n.len() + 1];
    r[(bits as usize - 1) / 32] = 1 << ((bits - 1) % 32);
    let mut q = 0u128;
    for step in 0..=POW5_INV_BITCOUNT {
        q <<= 1;
        if !less(&r, n) {
            let mut borrow = 0i64;
            for (i, limb) in r.iter_mut().enumerate() {
                let x = i64::from(*limb) - i64::from(n.get(i).copied().unwrap_or(0)) - borrow;
                *limb = x as u32;
                borrow = i64::from(x < 0);
            }
            q |= 1;
        }
        if step < POW5_INV_BITCOUNT {
            let mut carry = 0u32;
            for limb in &mut r {
                let next = *limb >> 31;
                *limb = (*limb << 1) | carry;
                carry = next;
            }
        }
    }
    q
}

/// `a < b`, for limb vectors of any lengths.
fn less(a: &[u32], b: &[u32]) -> bool {
    let limb = |n: &[u32], i: usize| n.get(i).copied().unwrap_or(0);
    for i in (0..a.len().max(b.len())).rev() {
        let (x, y) = (limb(a, i), limb(b, i));
        if x != y {
            return x < y;
        }
    }
    false
}

fn pow5_bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

fn multiple_of_pow5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest `digits · 10^exponent` that reads back as the positive,
/// finite, non-zero `f64` with these bits; among equally short ones, the
/// nearest (an exact tie rounds up).
pub(super) fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32;
    // Two extra bits so the interval bounds are integers.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-half-even reading accepts the interval's bounds for an even
    // mantissa.
    let accept_bounds = m2 % 2 == 0;
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let tables = multipliers();
    let scale = |mul: u128, j: u32| {
        (
            mul_shift(4 * m2, mul, j),
            mul_shift(4 * m2 + 2, mul, j),
            mul_shift(4 * m2 - 1 - mm_shift, mul, j),
        )
    };

    // The value `vr` and its interval `(vm, vp)` in a decimal base, and
    // whether the lower bound dropped only zeros to get there. Whether
    // `vr` did never matters: it only decides exact ties, and those round
    // up like any other removed 5.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let e2 = e2 as u32;
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        let j = POW5_INV_BITCOUNT as u32 + pow5_bits(q) - 1 + q - e2;
        (vr, vp, vm) = scale(tables.pow5_inv[q as usize], j);
        e10 = q as i32;
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let minus_e2 = e2.unsigned_abs();
        let q = log10_pow5(minus_e2) - u32::from(minus_e2 > 1);
        let i = minus_e2 - q;
        let j = q + POW5_BITCOUNT as u32 - pow5_bits(i);
        (vr, vp, vm) = scale(tables.pow5[i as usize], j);
        e10 = q as i32 + e2;
        if q <= 1 {
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    let mut last_removed = 0;
    while vp / 10 > vm / 10 {
        vm_trailing_zeros &= vm % 10 == 0;
        last_removed = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_trailing_zeros {
        // The lower bound itself is allowed: keep dropping its zeros.
        while vm % 10 == 0 {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    let round_up = (vr == vm && !(accept_bounds && vm_trailing_zeros)) || last_removed >= 5;
    (vr + u64::from(round_up), e10 + removed)
}
