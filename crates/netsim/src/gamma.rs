//! Gamma-distributed random sampling.
//!
//! The paper draws per-message latencies from `numpy.random.gamma(α, β)`
//! (shape/scale parameterization, mean `α·β`). This module implements the
//! Marsaglia–Tsang (2000) squeeze method on top of the in-repo splitmix64
//! generator, avoiding an external dependency while matching numpy's
//! parameterization.

use fedlake_prng::Prng;

/// A gamma(shape `alpha`, scale `beta`) sampler; mean is `alpha * beta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaSampler {
    /// Shape parameter (> 0).
    pub alpha: f64,
    /// Scale parameter (> 0).
    pub beta: f64,
    /// Marsaglia–Tsang's `d = shape − 1/3` and `c = 1/√(9d)`, computed
    /// once for the shape the squeeze runs at (`α`, or `α + 1` under the
    /// small-shape boost).
    d: f64,
    c: f64,
}

impl GammaSampler {
    /// Creates a sampler. Panics when a parameter is not positive.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0, "gamma shape must be positive");
        assert!(beta > 0.0, "gamma scale must be positive");
        let shape = if alpha < 1.0 { alpha + 1.0 } else { alpha };
        let d = shape - 1.0 / 3.0;
        GammaSampler { alpha, beta, d, c: 1.0 / (9.0 * d).sqrt() }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Prng) -> f64 {
        if self.alpha < 1.0 {
            // Boost: gamma(α) = gamma(α+1) · U^{1/α}.
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            return self.sample_mt(rng) * u.powf(1.0 / self.alpha) * self.beta;
        }
        self.sample_mt(rng) * self.beta
    }

    /// Marsaglia–Tsang for shape ≥ 1, scale 1.
    fn sample_mt(&self, rng: &mut Prng) -> f64 {
        let (d, c) = (self.d, self.c);
        loop {
            // Standard normal via Box–Muller.
            let x = standard_normal(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v = v * v * v;
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let x2 = x * x;
            if u < 1.0 - 0.0331 * x2 * x2 {
                return d * v;
            }
            if u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

/// One standard-normal draw via Box–Muller.
pub(crate) fn standard_normal(rng: &mut Prng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments(alpha: f64, beta: f64, n: usize) -> (f64, f64) {
        let g = GammaSampler::new(alpha, beta);
        let mut rng = Prng::seed_from_u64(42);
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var)
    }

    #[test]
    fn paper_gamma1_mean() {
        // α=1, β=0.3 → mean 0.3 (ms).
        let (mean, _) = moments(1.0, 0.3, 200_000);
        assert!((mean - 0.3).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn paper_gamma2_mean() {
        // α=3, β=1 → mean 3.
        let (mean, var) = moments(3.0, 1.0, 200_000);
        assert!((mean - 3.0).abs() < 0.05, "mean was {mean}");
        assert!((var - 3.0).abs() < 0.2, "variance was {var}");
    }

    #[test]
    fn paper_gamma3_mean() {
        // α=3, β=1.5 → mean 4.5.
        let (mean, _) = moments(3.0, 1.5, 200_000);
        assert!((mean - 4.5).abs() < 0.05, "mean was {mean}");
    }

    #[test]
    fn small_shape_boost() {
        let (mean, _) = moments(0.5, 2.0, 200_000);
        assert!((mean - 1.0).abs() < 0.05, "mean was {mean}");
    }

    #[test]
    fn samples_are_positive() {
        let g = GammaSampler::new(1.0, 0.3);
        let mut rng = Prng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(g.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = GammaSampler::new(3.0, 1.5);
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(g.sample(&mut a), g.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "shape must be positive")]
    fn zero_shape_panics() {
        GammaSampler::new(0.0, 1.0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Prng::seed_from_u64(3);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01);
        assert!((var - 1.0).abs() < 0.02);
    }
}
