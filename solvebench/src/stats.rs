//! Order statistics and hashing used by the report.

/// Samples a reported percentile must have strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the two middle values for even lengths); `None`
/// when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    })
}

/// Nearest-rank percentile `q ∈ (0, 1)` of `v`: the smallest sample with at
/// least `⌈q·n⌉` samples at or below it. Returns `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond that rank, so a p90 needs ≥ 100
/// samples and a p50 ≥ 20.
pub fn percentile(v: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile: q must be in (0, 1)");
    let n = v.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}

/// 64-bit FNV-1a over the IEEE-754 bits of `x` — the bitwise identity of a
/// solution vector.
pub fn fnv_bits(x: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in x {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), None, "99 samples leave 9 beyond p90");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(10.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = percentile(&v, 0.9);
        v.reverse();
        assert_eq!(a, percentile(&v, 0.9));
        assert_eq!(a, Some(179.0));
    }

    #[test]
    fn fnv_sees_every_bit() {
        let x = [1.0, -0.0, 3.5];
        assert_eq!(fnv_bits(&x), fnv_bits(&[1.0, -0.0, 3.5]));
        assert_ne!(
            fnv_bits(&x),
            fnv_bits(&[1.0, 0.0, 3.5]),
            "signed zero differs"
        );
        assert_ne!(
            fnv_bits(&x),
            fnv_bits(&[1.0, -0.0, 3.5 + f64::EPSILON * 4.0])
        );
    }
}
