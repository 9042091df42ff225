//! Divergence measures between discrete topic distributions.

/// Kullback–Leibler divergence `KL(p || q)` in nats.
///
/// Zero-probability cells in `q` are smoothed with `1e-12` so the result is
/// finite (entities with sparse text produce spiky distributions).
/// Panics if the slices differ in length.
pub fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution dimensionality mismatch");
    let eps = 1e-12;
    p.iter()
        .zip(q)
        .filter(|(pi, _)| **pi > 0.0)
        .map(|(pi, qi)| pi * (pi / qi.max(eps)).ln())
        .sum()
}

/// Jensen–Shannon divergence: symmetric, bounded by `ln 2`.
///
/// This is the "coherence"-friendly divergence used for path scoring: the
/// paper asks for "least amount of divergence" along the path, and JS keeps
/// that comparable in both directions — bit for bit: the midpoint and
/// the two halves are sums, so `js_divergence(p, q)` and
/// `js_divergence(q, p)` return the same bits.
///
/// Allocation-free: the midpoint `m = (p + q) / 2` is recomputed per cell
/// inside each KL term rather than collected, with the operations of
/// `0.5 * KL(p || m) + 0.5 * KL(q || m)` in the same order, so the result
/// is bit-identical to materialising `m`.
pub fn js_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution dimensionality mismatch");
    let eps = 1e-12;
    let kl_to_mid = |x: &[f64], y: &[f64]| -> f64 {
        x.iter()
            .zip(y)
            .filter(|(xi, _)| **xi > 0.0)
            .map(|(xi, yi)| xi * (xi / (0.5 * (xi + yi)).max(eps)).ln())
            .sum()
    };
    0.5 * kl_to_mid(p, q) + 0.5 * kl_to_mid(q, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kl_of_identical_is_zero() {
        let p = [0.2, 0.3, 0.5];
        assert!(kl_divergence(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn kl_is_positive_and_asymmetric() {
        let p = [0.9, 0.1];
        let q = [0.5, 0.5];
        let pq = kl_divergence(&p, &q);
        let qp = kl_divergence(&q, &p);
        assert!(pq > 0.0 && qp > 0.0);
        assert!((pq - qp).abs() > 1e-6);
    }

    #[test]
    fn kl_handles_zeros_in_q() {
        let p = [0.5, 0.5];
        let q = [1.0, 0.0];
        let d = kl_divergence(&p, &q);
        assert!(d.is_finite() && d > 0.0);
    }

    #[test]
    fn js_is_symmetric_and_bounded() {
        let p = [0.7, 0.2, 0.1];
        let q = [0.1, 0.1, 0.8];
        let a = js_divergence(&p, &q);
        let b = js_divergence(&q, &p);
        assert!((a - b).abs() < 1e-12);
        assert!(a > 0.0);
        assert!(a <= std::f64::consts::LN_2 + 1e-9);
    }

    #[test]
    fn js_matches_the_materialised_midpoint_bit_for_bit() {
        let rows = [
            [0.7, 0.2, 0.1, 0.0],
            [0.1, 0.1, 0.8, 0.0],
            [0.25, 0.25, 0.25, 0.25],
            [1.0, 0.0, 0.0, 0.0],
            [0.3, 0.3, 0.2, 0.2],
        ];
        for p in &rows {
            for q in &rows {
                let m: Vec<f64> = p.iter().zip(q).map(|(a, b)| 0.5 * (a + b)).collect();
                let reference = 0.5 * kl_divergence(p, &m) + 0.5 * kl_divergence(q, &m);
                assert_eq!(js_divergence(p, q).to_bits(), reference.to_bits());
                // Symmetric to the bit, so a memo may key on the unordered pair.
                assert_eq!(js_divergence(p, q).to_bits(), js_divergence(q, p).to_bits());
            }
        }
    }

    #[test]
    fn js_of_disjoint_is_ln2() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        assert!((js_divergence(&p, &q) - std::f64::consts::LN_2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn dimension_mismatch_panics() {
        kl_divergence(&[1.0], &[0.5, 0.5]);
    }
}
