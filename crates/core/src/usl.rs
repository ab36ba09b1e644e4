//! Universal Scalability Law fitting.
//!
//! Gunther's USL models throughput at concurrency/size `N` as
//!
//! ```text
//! X(N) = λ·N / (1 + σ·(N−1) + κ·N·(N−1))
//! ```
//!
//! where λ is per-unit throughput, σ the *contention* penalty (serial
//! fraction — queueing at shared resources) and κ the *coherence* penalty
//! (pairwise interaction — cache-line and lock ping-pong). A positive κ
//! implies a throughput *peak* at `N* = √((1−σ)/κ)` followed by retrograde
//! scaling — exactly the shape the paper's per-service scaling study
//! exhibits.
//!
//! Fitting: for fixed (σ, κ) the model is linear in λ, so the least-squares
//! λ has a closed form; (σ, κ) are found by a shrinking grid search, which is
//! robust for this two-parameter, well-conditioned problem and fully
//! deterministic.


/// A fitted USL model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UslFit {
    /// Per-unit throughput (throughput at N→0 per unit of N).
    pub lambda: f64,
    /// Contention (serial-fraction) coefficient.
    pub sigma: f64,
    /// Coherence (crosstalk) coefficient.
    pub kappa: f64,
    /// Coefficient of determination of the fit.
    pub r_squared: f64,
}

impl UslFit {
    /// Model throughput at `n`.
    pub fn predict(&self, n: f64) -> f64 {
        self.lambda * n / (1.0 + self.sigma * (n - 1.0) + self.kappa * n * (n - 1.0))
    }

    /// The concurrency where throughput peaks, or `None` if κ ≈ 0 (monotone
    /// scaling within any finite range).
    pub fn peak(&self) -> Option<f64> {
        if self.kappa <= 1e-12 {
            None
        } else {
            Some(((1.0 - self.sigma) / self.kappa).sqrt())
        }
    }

    /// Scalability efficiency at `n`: X(n) / (n·λ).
    pub fn efficiency(&self, n: f64) -> f64 {
        if n <= 0.0 || self.lambda <= 0.0 {
            return 0.0;
        }
        self.predict(n) / (n * self.lambda)
    }
}

fn gain(n: f64, sigma: f64, kappa: f64) -> f64 {
    n / (1.0 + sigma * (n - 1.0) + kappa * n * (n - 1.0))
}

fn lambda_for(points: &[(f64, f64)], sigma: f64, kappa: f64) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for &(n, x) in points {
        let g = gain(n, sigma, kappa);
        num += x * g;
        den += g * g;
    }
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sse(points: &[(f64, f64)], lambda: f64, sigma: f64, kappa: f64) -> f64 {
    points
        .iter()
        .map(|&(n, x)| {
            let err = x - lambda * gain(n, sigma, kappa);
            err * err
        })
        .sum()
}

/// Fits the USL to `(N, throughput)` points.
///
/// # Panics
///
/// Panics if fewer than three points are given, or any `N ≤ 0` /
/// non-finite throughput appears (a meaningful fit needs a real curve).
pub fn fit(points: &[(f64, f64)]) -> UslFit {
    assert!(
        points.len() >= 3,
        "USL fit needs at least 3 points, got {}",
        points.len()
    );
    for &(n, x) in points {
        assert!(
            n > 0.0 && x.is_finite() && x >= 0.0,
            "invalid point ({n}, {x})"
        );
    }

    // Shrinking grid over (σ, κ).
    let mut best = (0.0f64, 0.0f64);
    let mut best_sse = f64::INFINITY;
    let mut sigma_lo = 0.0;
    let mut sigma_hi = 1.0;
    let mut kappa_lo = 0.0;
    let mut kappa_hi = 0.1;
    for _round in 0..6 {
        let steps = 24;
        for i in 0..=steps {
            let sigma = sigma_lo + (sigma_hi - sigma_lo) * i as f64 / steps as f64;
            for j in 0..=steps {
                let kappa = kappa_lo + (kappa_hi - kappa_lo) * j as f64 / steps as f64;
                let lambda = lambda_for(points, sigma, kappa);
                let e = sse(points, lambda, sigma, kappa);
                if e < best_sse {
                    best_sse = e;
                    best = (sigma, kappa);
                }
            }
        }
        // Shrink the box around the incumbent.
        let (s, k) = best;
        let s_half = (sigma_hi - sigma_lo) / 8.0;
        let k_half = (kappa_hi - kappa_lo) / 8.0;
        sigma_lo = (s - s_half).max(0.0);
        sigma_hi = (s + s_half).min(1.0);
        kappa_lo = (k - k_half).max(0.0);
        kappa_hi = k + k_half;
    }

    let (sigma, kappa) = best;
    let lambda = lambda_for(points, sigma, kappa);
    let mean_x = points.iter().map(|&(_, x)| x).sum::<f64>() / points.len() as f64;
    let ss_tot: f64 = points
        .iter()
        .map(|&(_, x)| (x - mean_x) * (x - mean_x))
        .sum();
    let r_squared = if ss_tot > 0.0 {
        1.0 - best_sse / ss_tot
    } else {
        1.0
    };
    UslFit {
        lambda,
        sigma,
        kappa,
        r_squared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(lambda: f64, sigma: f64, kappa: f64, ns: &[f64]) -> Vec<(f64, f64)> {
        ns.iter()
            .map(|&n| (n, lambda * gain(n, sigma, kappa)))
            .collect()
    }

    #[test]
    fn recovers_linear_scaling() {
        let pts = synth(100.0, 0.0, 0.0, &[1.0, 2.0, 4.0, 8.0, 16.0]);
        let f = fit(&pts);
        assert!((f.lambda - 100.0).abs() < 1.0, "λ {}", f.lambda);
        assert!(f.sigma < 0.01, "σ {}", f.sigma);
        assert!(f.kappa < 1e-4, "κ {}", f.kappa);
        assert!(f.r_squared > 0.999);
        assert_eq!(f.peak(), None);
    }

    #[test]
    fn recovers_contention_limited() {
        let pts = synth(50.0, 0.08, 0.0, &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]);
        let f = fit(&pts);
        assert!((f.sigma - 0.08).abs() < 0.01, "σ {}", f.sigma);
        assert!(f.kappa < 1e-4);
        assert!(f.r_squared > 0.999);
    }

    #[test]
    fn recovers_coherence_peak() {
        let pts = synth(
            80.0,
            0.05,
            0.002,
            &[1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 48.0],
        );
        let f = fit(&pts);
        assert!((f.kappa - 0.002).abs() < 4e-4, "κ {}", f.kappa);
        let peak = f.peak().expect("κ > 0 has a peak");
        let true_peak = ((1.0 - 0.05f64) / 0.002).sqrt();
        assert!(
            (peak - true_peak).abs() / true_peak < 0.15,
            "peak {peak} vs {true_peak}"
        );
    }

    #[test]
    fn fit_is_robust_to_noise() {
        let mut pts = synth(60.0, 0.1, 0.001, &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
        for (i, p) in pts.iter_mut().enumerate() {
            // ±3% deterministic wobble.
            p.1 *= 1.0 + 0.03 * if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let f = fit(&pts);
        assert!(f.r_squared > 0.98, "r² {}", f.r_squared);
        assert!((f.sigma - 0.1).abs() < 0.05);
    }

    #[test]
    fn predict_matches_formula() {
        let f = UslFit {
            lambda: 10.0,
            sigma: 0.1,
            kappa: 0.01,
            r_squared: 1.0,
        };
        let n = 4.0;
        let expect = 10.0 * 4.0 / (1.0 + 0.1 * 3.0 + 0.01 * 12.0);
        assert!((f.predict(n) - expect).abs() < 1e-12);
        assert!(f.efficiency(1.0) <= 1.0 + 1e-12);
        assert!(f.efficiency(16.0) < f.efficiency(2.0));
    }

    #[test]
    #[should_panic(expected = "at least 3 points")]
    fn too_few_points_rejected() {
        fit(&[(1.0, 10.0), (2.0, 18.0)]);
    }

    #[test]
    #[should_panic(expected = "invalid point")]
    fn bad_point_rejected() {
        fit(&[(0.0, 1.0), (2.0, 2.0), (3.0, 3.0)]);
    }
}
