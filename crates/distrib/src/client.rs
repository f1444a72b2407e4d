//! Simulated volunteer clients for the loopback transport.
//!
//! The paper solved its hardest A5/1 and Bivium9 instances in the volunteer
//! project SAT@home (≈2–4 TFLOPS average performance, months of wall-clock
//! time). We cannot deploy a BOINC project here, so each simulated client
//! wraps one [`Host`] (speed/availability/reliability, drawn by
//! [`synthetic_host_population`]) plus the behavioural pathologies BOINC
//! operators fight daily: availability gaps between tasks, stragglers that
//! run an order of magnitude slower than the host's benchmark, permanent
//! churn, results that vanish, duplicate uploads, and corrupted uploads. All
//! decisions are drawn from a per-client seeded RNG, so a population's
//! behaviour is a pure function of its seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One volunteer host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Host {
    /// Core speed relative to the reference core used for cost measurement.
    pub speed: f64,
    /// Fraction of wall-clock time the host actually crunches (0–1).
    pub availability: f64,
    /// Probability that an assigned work unit eventually returns a valid
    /// result (the rest vanish and are re-issued after the deadline).
    pub reliability: f64,
}

impl Host {
    /// The reference core: always on, perfectly reliable.
    pub(crate) const REFERENCE: Host = Host {
        speed: 1.0,
        availability: 1.0,
        reliability: 1.0,
    };

    /// Effective throughput of the host relative to the reference core.
    #[must_use]
    pub fn effective_speed(&self) -> f64 {
        self.speed * self.availability
    }
}

/// Samples one standard-normal deviate by Box–Muller from two uniforms.
fn standard_normal(rng: &mut StdRng) -> f64 {
    // Guard the logarithm: gen::<f64>() lies in [0, 1), so flip to (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws a synthetic volunteer population: **log-normal** (heavy-tailed)
/// speeds, beta-ish availability, high but imperfect reliability.
/// Deterministic for a fixed seed.
///
/// Volunteer-grid host benchmarks are famously right-skewed: most donated
/// machines cluster near the median while a thin tail of fast hosts
/// contributes a disproportionate share of the throughput. Speeds are drawn
/// as `exp(σ·Z)` with `σ = 0.55` (median 1.0 — the reference core — with
/// ~90 % of hosts in roughly `[0.4, 2.5]`), clamped to `[0.2, 8.0]` to keep
/// a single outlier from dominating a small simulated population.
#[must_use]
pub fn synthetic_host_population(count: usize, seed: u64) -> Vec<Host> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let speed = (0.55 * standard_normal(&mut rng)).exp().clamp(0.2, 8.0);
            let availability = 0.2 + 0.8 * rng.gen::<f64>();
            let reliability = 0.85 + 0.15 * rng.gen::<f64>();
            Host {
                speed,
                availability,
                reliability,
            }
        })
        .collect()
}

/// Probabilities and magnitudes of volunteer-client pathologies. Callers
/// pick one of two presets: [`default`](ClientBehavior::default) (the
/// chaotic volunteer) or [`ideal`](ClientBehavior::ideal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientBehavior {
    /// Probability that a finished client takes a break before re-polling.
    pub(crate) gap_prob: f64,
    /// Maximum break length, seconds (actual gaps are uniform in `[0, max]`).
    pub(crate) gap_max: f64,
    /// Probability that a run straggles (e.g. the volunteer throttled the
    /// client or suspended the VM).
    pub(crate) straggler_prob: f64,
    /// Slow-down factor of a straggling run.
    pub(crate) straggler_factor: f64,
    /// Probability that the client permanently leaves the grid (checked once
    /// per client; the departure instant is uniform in `[0, churn_horizon]`).
    pub(crate) churn_prob: f64,
    /// Latest possible departure instant, seconds.
    pub(crate) churn_horizon: f64,
    /// Minimum outage after a result vanishes with its host before that host
    /// polls again, seconds.
    pub(crate) vanish_outage: f64,
    /// Probability that a submitted result is uploaded twice.
    pub(crate) duplicate_prob: f64,
    /// Delay of the duplicate upload after the original, seconds.
    pub(crate) duplicate_delay: f64,
    /// Probability that an upload fails its integrity check (the coordinator
    /// discards it and the unit needs another result).
    pub(crate) invalid_prob: f64,
}

impl Default for ClientBehavior {
    fn default() -> Self {
        ClientBehavior {
            gap_prob: 0.3,
            gap_max: 1_800.0,
            straggler_prob: 0.05,
            straggler_factor: 8.0,
            churn_prob: 0.15,
            churn_horizon: 250_000.0,
            vanish_outage: 3_600.0,
            duplicate_prob: 0.04,
            duplicate_delay: 120.0,
            invalid_prob: 0.03,
        }
    }
}

impl ClientBehavior {
    /// A perfectly behaved client: no gaps, no stragglers, no churn, no
    /// duplicates, no invalid uploads. With an ideal [`Host`] this reduces
    /// the loopback grid to greedy list scheduling, which is what the parity
    /// test against [`simulate_cluster`](crate::simulate_cluster) pins down.
    #[must_use]
    pub fn ideal() -> ClientBehavior {
        ClientBehavior {
            gap_prob: 0.0,
            gap_max: 0.0,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
            churn_prob: 0.0,
            churn_horizon: 0.0,
            vanish_outage: 0.0,
            duplicate_prob: 0.0,
            duplicate_delay: 0.0,
            invalid_prob: 0.0,
        }
    }
}

/// What a client does with an assignment (decided the moment the lease is
/// granted; the simulation has no reason to defer the dice rolls).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClientFate {
    /// The client left the grid for good; the result never arrives and the
    /// client never polls again. The lease expires server-side.
    Departed,
    /// The host crunched (part of) the unit but the result vanished — lost
    /// upload, crashed client. It polls again once the outage is over.
    Vanished {
        /// When the client asks for work again.
        rejoin_at: f64,
        /// CPU time burned on the lost run, reference-core seconds.
        cpu_spent: f64,
    },
    /// The client finishes the unit and uploads the result.
    Submit {
        /// Upload instant.
        at: f64,
        /// Whether the upload passes the integrity check.
        valid: bool,
        /// When a duplicate upload of the same result arrives, if any.
        duplicate_at: Option<f64>,
        /// When the client polls for its next unit.
        next_poll: f64,
        /// CPU time of the run, reference-core seconds.
        cpu_spent: f64,
    },
}

/// One simulated volunteer client.
#[derive(Debug, Clone)]
pub struct VolunteerClient {
    host: Host,
    behavior: ClientBehavior,
    rng: StdRng,
    departs_at: f64,
    departed: bool,
}

impl VolunteerClient {
    /// Creates the client. Its RNG stream is derived from the population
    /// seed and the client id, so adding clients never perturbs the
    /// behaviour of existing ones.
    #[must_use]
    pub fn new(id: usize, host: Host, behavior: ClientBehavior, population_seed: u64) -> Self {
        let stream = population_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id as u64 + 1);
        let mut rng = StdRng::seed_from_u64(stream);
        let departs_at = if behavior.churn_prob > 0.0 && rng.gen_bool(behavior.churn_prob) {
            behavior.churn_horizon * rng.gen::<f64>()
        } else {
            f64::INFINITY
        };
        VolunteerClient {
            host,
            behavior,
            rng,
            departs_at,
            departed: false,
        }
    }

    /// `true` once the client has permanently left the grid.
    #[must_use]
    pub fn has_departed(&self) -> bool {
        self.departed
    }

    /// Decides the fate of a unit assigned at `now` whose canonical cost is
    /// `unit_cost` reference-core seconds.
    ///
    /// Every stochastic decision is drawn before branching, so the number of
    /// RNG draws per assignment is constant and the client's behaviour
    /// stream does not depend on which branch earlier assignments took.
    pub fn respond(&mut self, now: f64, unit_cost: f64) -> ClientFate {
        let straggled = self.behavior.straggler_prob > 0.0
            && self
                .rng
                .gen_bool(self.behavior.straggler_prob.clamp(0.0, 1.0));
        let returns = self.rng.gen_bool(self.host.reliability.clamp(0.0, 1.0));
        let valid = !(self.behavior.invalid_prob > 0.0
            && self
                .rng
                .gen_bool(self.behavior.invalid_prob.clamp(0.0, 1.0)));
        let duplicates = self.behavior.duplicate_prob > 0.0
            && self
                .rng
                .gen_bool(self.behavior.duplicate_prob.clamp(0.0, 1.0));
        let gap_draw = self.rng.gen::<f64>();
        let takes_gap = self.behavior.gap_prob > 0.0
            && self.rng.gen_bool(self.behavior.gap_prob.clamp(0.0, 1.0));

        if now >= self.departs_at {
            self.departed = true;
            return ClientFate::Departed;
        }

        let factor = if straggled {
            self.behavior.straggler_factor.max(1.0)
        } else {
            1.0
        };
        let duration = unit_cost / self.host.effective_speed().max(1e-9) * factor;
        let cpu_spent = duration;
        if !returns {
            return ClientFate::Vanished {
                rejoin_at: now + duration.max(self.behavior.vanish_outage),
                cpu_spent,
            };
        }
        let at = now + duration;
        let gap = if takes_gap {
            self.behavior.gap_max * gap_draw
        } else {
            0.0
        };
        ClientFate::Submit {
            at,
            valid,
            duplicate_at: duplicates.then_some(at + self.behavior.duplicate_delay),
            next_poll: at + gap,
            cpu_spent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_scales_effective_speed() {
        let host = Host {
            speed: 2.0,
            availability: 0.5,
            reliability: 1.0,
        };
        assert!((host.effective_speed() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn synthetic_population_is_deterministic_and_plausible() {
        let a = synthetic_host_population(50, 7);
        let b = synthetic_host_population(50, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        for host in &a {
            assert!(host.speed >= 0.2 && host.speed <= 8.0);
            assert!(host.availability > 0.0 && host.availability <= 1.0);
            assert!(host.reliability >= 0.85 && host.reliability <= 1.0);
        }
        let c = synthetic_host_population(50, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn synthetic_speeds_are_right_skewed_around_a_unit_median() {
        // A log-normal has mean > median: the heavy right tail pulls the
        // average above the typical host. Check over a large population so
        // the estimate is stable.
        let hosts = synthetic_host_population(4000, 11);
        let mut speeds: Vec<f64> = hosts.iter().map(|h| h.speed).collect();
        speeds.sort_by(|x, y| x.partial_cmp(y).expect("speeds are finite"));
        let median = speeds[speeds.len() / 2];
        let mean = speeds.iter().sum::<f64>() / speeds.len() as f64;
        assert!((0.9..1.1).contains(&median), "median {median}");
        assert!(mean > median, "mean {mean} vs median {median}");
        // The tail exists: some host is meaningfully faster than 2x median.
        assert!(speeds.last().copied().unwrap_or(0.0) > 2.0);
    }
}
