//! The four network settings of the paper's experiment (§3).

use crate::gamma::GammaSampler;
use fedlake_prng::Prng;
use std::fmt;
use std::time::Duration;

/// Per-message delay model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayModel {
    /// Perfect network: no or negligible latency.
    None,
    /// Gamma-distributed latency; parameters in milliseconds.
    Gamma {
        /// Shape.
        alpha: f64,
        /// Scale, in milliseconds.
        beta_ms: f64,
    },
    /// Fixed latency (useful in tests and ablations).
    Constant {
        /// Latency in milliseconds.
        ms: f64,
    },
}

impl DelayModel {
    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        match self {
            DelayModel::None => 0.0,
            DelayModel::Gamma { alpha, beta_ms } => alpha * beta_ms,
            DelayModel::Constant { ms } => *ms,
        }
    }

    /// Prepares the model for repeated draws: a link samples one delay
    /// per message, so the gamma sampler's checks and constants are paid
    /// once per link instead.
    pub(crate) fn sampler(&self) -> DelaySampler {
        match self {
            DelayModel::None => DelaySampler::Fixed(Duration::ZERO),
            DelayModel::Gamma { alpha, beta_ms } => {
                DelaySampler::Gamma(GammaSampler::new(*alpha, *beta_ms))
            }
            DelayModel::Constant { ms } => DelaySampler::Fixed(millis(*ms)),
        }
    }
}

fn millis(ms: f64) -> Duration {
    Duration::from_nanos((ms * 1_000_000.0) as u64)
}

/// A [`DelayModel`] prepared by `DelayModel::sampler`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelaySampler {
    /// Every message takes this long; draws nothing from the RNG.
    Fixed(Duration),
    /// Gamma-distributed latency, in milliseconds.
    Gamma(GammaSampler),
}

impl DelaySampler {
    /// Draws one per-message delay.
    pub(crate) fn sample(&self, rng: &mut Prng) -> Duration {
        match self {
            DelaySampler::Fixed(d) => *d,
            DelaySampler::Gamma(g) => millis(g.sample(rng)),
        }
    }
}

/// A named network setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkProfile {
    /// Human-readable name.
    pub name: &'static str,
    /// Delay model applied per message retrieved from a source.
    pub delay: DelayModel,
}

impl NetworkProfile {
    /// §3 a) *No Delay*: perfect network.
    pub const NO_DELAY: NetworkProfile =
        NetworkProfile { name: "NoDelay", delay: DelayModel::None };

    /// §3 b) *Gamma 1*: fast network, Γ(α=1, β=0.3) → 0.3 ms average.
    pub const GAMMA1: NetworkProfile = NetworkProfile {
        name: "Gamma1",
        delay: DelayModel::Gamma { alpha: 1.0, beta_ms: 0.3 },
    };

    /// §3 c) *Gamma 2*: medium network, Γ(α=3, β=1) → 3 ms average.
    pub const GAMMA2: NetworkProfile = NetworkProfile {
        name: "Gamma2",
        delay: DelayModel::Gamma { alpha: 3.0, beta_ms: 1.0 },
    };

    /// §3 d) *Gamma 3*: slow network, Γ(α=3, β=1.5) → 4.5 ms average.
    pub const GAMMA3: NetworkProfile = NetworkProfile {
        name: "Gamma3",
        delay: DelayModel::Gamma { alpha: 3.0, beta_ms: 1.5 },
    };

    /// The experiment's four settings, in the paper's order.
    pub const ALL: [NetworkProfile; 4] = [
        NetworkProfile::NO_DELAY,
        NetworkProfile::GAMMA1,
        NetworkProfile::GAMMA2,
        NetworkProfile::GAMMA3,
    ];

    /// The paper's threshold for a "slow network" in Heuristic 2. Profiles
    /// with a mean per-message latency at or above this are considered
    /// slow, which makes H2 push instantiations down to the source.
    pub const SLOW_THRESHOLD_MS: f64 = 1.0;

    /// True when Heuristic 2 should treat this network as slow.
    pub fn is_slow(&self) -> bool {
        self.delay.mean_ms() >= Self::SLOW_THRESHOLD_MS
    }
}

impl fmt::Display for NetworkProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (mean {:.1} ms)", self.name, self.delay.mean_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_means() {
        assert_eq!(NetworkProfile::NO_DELAY.delay.mean_ms(), 0.0);
        assert!((NetworkProfile::GAMMA1.delay.mean_ms() - 0.3).abs() < 1e-12);
        assert!((NetworkProfile::GAMMA2.delay.mean_ms() - 3.0).abs() < 1e-12);
        assert!((NetworkProfile::GAMMA3.delay.mean_ms() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn slow_classification() {
        assert!(!NetworkProfile::NO_DELAY.is_slow());
        assert!(!NetworkProfile::GAMMA1.is_slow());
        assert!(NetworkProfile::GAMMA2.is_slow());
        assert!(NetworkProfile::GAMMA3.is_slow());
    }

    #[test]
    fn no_delay_samples_zero() {
        let mut rng = Prng::seed_from_u64(1);
        assert_eq!(
            NetworkProfile::NO_DELAY.delay.sampler().sample(&mut rng),
            Duration::ZERO
        );
    }

    #[test]
    fn gamma_sampling_mean_close() {
        let mut rng = Prng::seed_from_u64(1);
        let n = 50_000;
        let delay = NetworkProfile::GAMMA3.delay.sampler();
        let total: Duration = (0..n).map(|_| delay.sample(&mut rng)).sum();
        let mean_ms = total.as_secs_f64() * 1000.0 / n as f64;
        assert!((mean_ms - 4.5).abs() < 0.1, "mean was {mean_ms}");
    }

    /// The draw stream is part of every simulated number: the first
    /// 10 000 delays of each profile, folded FNV-style over their
    /// nanoseconds, pinned to what the per-message `GammaSampler::new`
    /// code produced before links prepared their sampler once.
    #[test]
    fn delay_streams_are_pinned() {
        let pins: [(&str, u64, u64, u64); 8] = [
            ("NoDelay", 0x7, 0, 0xa6e4f0723147f065),
            ("NoDelay", 0x5eedcafe, 0, 0xa6e4f0723147f065),
            ("Gamma1", 0x7, 755283, 0x94ac16bd268e5b0e),
            ("Gamma1", 0x5eedcafe, 83546, 0xb5e7863295eaaa3c),
            ("Gamma2", 0x7, 5574440, 0x3658d5c448b19e65),
            ("Gamma2", 0x5eedcafe, 1778927, 0x85f48cd4aedc32bd),
            ("Gamma3", 0x7, 8361660, 0x3cc2561fb8f9b47f),
            ("Gamma3", 0x5eedcafe, 2668391, 0xbcea69dc12af594f),
        ];
        for (name, seed, first_ns, digest) in pins {
            let profile = NetworkProfile::ALL.iter().find(|p| p.name == name).unwrap();
            let sampler = profile.delay.sampler();
            let mut rng = Prng::seed_from_u64(seed);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for i in 0..10_000 {
                let ns = sampler.sample(&mut rng).as_nanos() as u64;
                if i == 0 {
                    assert_eq!(ns, first_ns, "{name}/{seed:#x} first delay");
                }
                h = (h ^ ns).wrapping_mul(0x0000_0100_0000_01b3);
            }
            assert_eq!(h, digest, "{name}/{seed:#x} delay stream moved");
        }
    }

    #[test]
    fn constant_model() {
        let mut rng = Prng::seed_from_u64(1);
        let d = DelayModel::Constant { ms: 2.0 };
        assert_eq!(d.sampler().sample(&mut rng), Duration::from_millis(2));
        assert_eq!(d.mean_ms(), 2.0);
    }

    #[test]
    fn display() {
        assert_eq!(
            NetworkProfile::GAMMA2.to_string(),
            "Gamma2 (mean 3.0 ms)"
        );
    }
}
