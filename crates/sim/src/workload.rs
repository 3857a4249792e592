//! What a packet-level run injects: a [`Workload`].
//!
//! A [`FlowWorkload`] says how finite flows arrive on each traffic pair, how
//! many packets each carries and how many may be in the network at once;
//! [`FlowWorkload::specs`] expands it into its flow instances. Workload
//! randomness comes from counter-based [`FlowRng`] streams keyed by
//! `(workload seed, pair)`, independent of the mobility RNG — so the same
//! workload can be replayed against any mobility draw, and replications
//! stay bit-identical at any thread count.
//!
//! [`Steady`] injection draws nothing: every pair injects the same fixed
//! rate each slot.

use crate::events::{FlowRng, Time};
use crate::flows::FlowRunStats;
use crate::packet::PacketStats;
use hycap_errors::HycapError;
use rand::Rng;

/// What a [`FlowRun`](crate::FlowRun)'s sources inject. The workload fixes
/// the statistics the run reports: finite flows from a [`FlowWorkload`]
/// report [`FlowRunStats`], [`Steady`] injection reports [`PacketStats`].
/// These two are the only workloads.
pub trait Workload: Copy + sealed::Source {
    /// The statistics a run of this workload reports.
    type Stats: sealed::Report;
}

impl Workload for FlowWorkload {
    type Stats = FlowRunStats;
}

impl Workload for Steady {
    type Stats = PacketStats;
}

/// The event loop's view of a [`Workload`], out of reach of other crates.
pub(crate) mod sealed {
    use super::{FlowRunStats, FlowWorkload, PacketStats, Steady};
    use hycap_errors::HycapError;

    /// A run's injection.
    #[derive(Debug, Clone, Copy)]
    pub enum Injection {
        Flows(FlowWorkload),
        Steady(Steady),
    }

    impl Injection {
        pub fn validate(&self) -> Result<(), HycapError> {
            match self {
                Injection::Flows(w) => w.validate(),
                Injection::Steady(s) => s.validate(),
            }
        }
    }

    pub trait Source {
        fn injection(&self) -> Injection;
    }

    impl Source for FlowWorkload {
        fn injection(&self) -> Injection {
            Injection::Flows(*self)
        }
    }

    impl Source for Steady {
        fn injection(&self) -> Injection {
            Injection::Steady(*self)
        }
    }

    /// Picks a run's statistics from its flow and its steady accounting.
    pub trait Report {
        fn report(flows: FlowRunStats, packets: PacketStats) -> Self;
    }

    impl Report for FlowRunStats {
        fn report(flows: FlowRunStats, _: PacketStats) -> Self {
            flows
        }
    }

    impl Report for PacketStats {
        fn report(_: FlowRunStats, packets: PacketStats) -> Self {
            packets
        }
    }
}

/// Steady open-loop traffic: every covered pair injects `lambda` packets
/// per slot for `slots` slots. A fractional rate accumulates, so `λ = 0.25`
/// injects one packet every fourth slot and `λ = 1.5` alternates one and
/// two. The rate at which queues stop draining is the capacity
/// [`PacketEngine::find_capacity`](crate::PacketEngine::find_capacity)
/// bisects for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Steady {
    /// Packets per slot per covered pair (must be non-negative and finite).
    pub lambda: f64,
    /// Slots to simulate (must be ≥ 1).
    pub slots: usize,
}

impl Steady {
    /// Injection of `lambda` packets per pair per slot for `slots` slots.
    pub fn new(lambda: f64, slots: usize) -> Self {
        Steady { lambda, slots }
    }

    /// Validates both parameters.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), HycapError> {
        if self.slots == 0 {
            return Err(HycapError::invalid("slots", "need at least one slot"));
        }
        let lambda = self.lambda;
        if !(lambda >= 0.0 && lambda.is_finite()) {
            let detail = format!("lambda must be non-negative and finite, got {lambda}");
            return Err(HycapError::invalid("lambda", detail));
        }
        Ok(())
    }
}

/// How flows arrive on each traffic pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate` flows per slot per pair (exponential
    /// inter-arrival times, floored to slot indices).
    Poisson {
        /// Mean arrivals per slot per pair (must be non-negative and
        /// finite; 0 generates no flows).
        rate: f64,
    },
    /// One flow every `interval` slots per pair, starting at slot 0.
    Deterministic {
        /// Slots between consecutive arrivals (must be ≥ 1).
        interval: u64,
    },
}

/// How many packets each flow carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowSizes {
    /// Every flow carries exactly `packets` packets.
    Fixed {
        /// Packets per flow (must be ≥ 1).
        packets: u64,
    },
    /// A two-point elephant/mice mix: with probability `elephant_frac` a
    /// flow carries `elephants` packets, otherwise `mice`.
    ElephantMice {
        /// Packets in a mouse flow (must be ≥ 1).
        mice: u64,
        /// Packets in an elephant flow (must be ≥ 1).
        elephants: u64,
        /// Probability a flow is an elephant (must be in `[0, 1]`).
        elephant_frac: f64,
    },
}

impl FlowSizes {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            FlowSizes::Fixed { packets } => packets,
            FlowSizes::ElephantMice {
                mice,
                elephants,
                elephant_frac,
            } => {
                let u: f64 = rng.gen();
                if u < elephant_frac {
                    elephants
                } else {
                    mice
                }
            }
        }
    }
}

/// A finite-flow workload: arrival process, size distribution, per-flow
/// window limit and run horizon, all derived from one workload seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowWorkload {
    /// Flow arrival process per traffic pair.
    pub arrivals: ArrivalProcess,
    /// Flow size distribution.
    pub sizes: FlowSizes,
    /// Maximum packets of one flow in the network at once (admission is
    /// FIFO: the next packet enters when one is delivered; must be ≥ 1).
    pub window: u64,
    /// Slots to simulate (arrivals beyond the horizon are not generated;
    /// must be ≥ 1).
    pub horizon: usize,
    /// Workload seed: flow `i` of pair `p` is sampled from
    /// `FlowRng::new(seed, p)`, independent of the mobility RNG.
    pub seed: u64,
}

impl FlowWorkload {
    /// A Poisson workload with fixed-size flows and the default window (8).
    pub fn poisson(rate: f64, packets: u64, horizon: usize) -> Self {
        FlowWorkload {
            arrivals: ArrivalProcess::Poisson { rate },
            sizes: FlowSizes::Fixed { packets },
            window: 8,
            horizon,
            seed: 0,
        }
    }

    /// A deterministic workload (one flow per `interval` slots) with
    /// fixed-size flows and the default window (8).
    pub fn deterministic(interval: u64, packets: u64, horizon: usize) -> Self {
        FlowWorkload {
            arrivals: ArrivalProcess::Deterministic { interval },
            sizes: FlowSizes::Fixed { packets },
            window: 8,
            horizon,
            seed: 0,
        }
    }

    /// Replaces the size distribution.
    pub fn with_sizes(mut self, sizes: FlowSizes) -> Self {
        self.sizes = sizes;
        self
    }

    /// Replaces the per-flow window limit.
    pub fn with_window(mut self, window: u64) -> Self {
        self.window = window;
        self
    }

    /// Replaces the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates every parameter.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), HycapError> {
        let require = |ok: bool, name: &'static str, reason: String| match ok {
            true => Ok(()),
            false => Err(HycapError::invalid(name, reason)),
        };
        require(self.horizon > 0, "horizon", "need at least one slot".into())?;
        require(
            self.window > 0,
            "window",
            "flow window must be at least 1".into(),
        )?;
        match self.arrivals {
            ArrivalProcess::Poisson { rate } => require(
                rate >= 0.0 && rate.is_finite(),
                "rate",
                format!("arrival rate must be non-negative and finite, got {rate}"),
            ),
            ArrivalProcess::Deterministic { interval } => require(
                interval > 0,
                "interval",
                "arrival interval must be at least 1 slot".into(),
            ),
        }?;
        match self.sizes {
            FlowSizes::Fixed { packets } => require(
                packets > 0,
                "packets",
                "flows must carry at least one packet".into(),
            ),
            FlowSizes::ElephantMice {
                mice,
                elephants,
                elephant_frac,
            } => {
                require(
                    mice > 0 && elephants > 0,
                    "packets",
                    "mice and elephant sizes must be at least one packet".into(),
                )?;
                require(
                    (0.0..=1.0).contains(&elephant_frac),
                    "elephant_frac",
                    format!("elephant fraction must be in [0, 1], got {elephant_frac}"),
                )
            }
        }
    }

    /// Generates the flow instances for `pairs` traffic pairs, in pair
    /// order (pair 0's flows first, by arrival). Flow `i` of pair `p` draws
    /// from `FlowRng::new(self.seed, p)` only, so the spec list is a pure
    /// function of `(self, pairs)`.
    ///
    /// Call [`FlowWorkload::validate`] first; the engines do.
    pub fn specs(&self, pairs: usize) -> Vec<FlowSpec> {
        let mut specs = Vec::new();
        let horizon = self.horizon as f64;
        for p in 0..pairs {
            let mut rng = FlowRng::new(self.seed, p as u64);
            match self.arrivals {
                ArrivalProcess::Poisson { rate } => {
                    if rate <= 0.0 {
                        continue;
                    }
                    let mut t = 0.0f64;
                    loop {
                        let u: f64 = rng.gen();
                        t += -(1.0 - u).ln() / rate;
                        if t >= horizon {
                            break;
                        }
                        let size = self.sizes.sample(&mut rng);
                        specs.push(FlowSpec {
                            pair: p,
                            arrival: t as Time,
                            size,
                        });
                    }
                }
                ArrivalProcess::Deterministic { interval } => {
                    let mut t = 0u64;
                    while (t as usize) < self.horizon {
                        let size = self.sizes.sample(&mut rng);
                        specs.push(FlowSpec {
                            pair: p,
                            arrival: t,
                            size,
                        });
                        t += interval;
                    }
                }
            }
        }
        specs
    }
}

/// One generated flow instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// The traffic pair (route) the flow rides.
    pub pair: usize,
    /// Arrival slot.
    pub arrival: Time,
    /// Packets the flow carries.
    pub size: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_validation_catches_bad_fields() {
        let bad = [
            FlowWorkload::poisson(0.01, 4, 0),
            FlowWorkload::poisson(0.01, 4, 100).with_window(0),
            FlowWorkload::poisson(-0.5, 4, 100),
            FlowWorkload::poisson(f64::NAN, 4, 100),
            FlowWorkload::deterministic(0, 4, 100),
            FlowWorkload::poisson(0.01, 0, 100),
            FlowWorkload::poisson(0.01, 4, 100).with_sizes(FlowSizes::ElephantMice {
                mice: 1,
                elephants: 0,
                elephant_frac: 0.1,
            }),
            FlowWorkload::poisson(0.01, 4, 100).with_sizes(FlowSizes::ElephantMice {
                mice: 1,
                elephants: 10,
                elephant_frac: 1.5,
            }),
        ];
        for w in bad {
            assert!(
                matches!(w.validate(), Err(HycapError::InvalidParameter { .. })),
                "{w:?} should be invalid"
            );
        }
        assert!(FlowWorkload::poisson(0.01, 4, 100).validate().is_ok());
    }

    #[test]
    fn specs_are_deterministic_and_sized() {
        let w = FlowWorkload::poisson(0.02, 3, 500).with_seed(7);
        let a = w.specs(20);
        let b = w.specs(20);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.iter().all(|s| (s.arrival as usize) < 500 && s.size == 3));
        // Roughly rate * horizon * pairs arrivals.
        let expect = 0.02 * 500.0 * 20.0;
        assert!(
            (a.len() as f64) > 0.4 * expect && (a.len() as f64) < 2.5 * expect,
            "{} arrivals vs expected ~{expect}",
            a.len()
        );
    }

    #[test]
    fn deterministic_specs_hit_every_interval() {
        let w = FlowWorkload::deterministic(25, 2, 100);
        let specs = w.specs(3);
        assert_eq!(specs.len(), 12); // 4 arrivals per pair
        assert_eq!(specs[0].arrival, 0);
        assert_eq!(specs[3].arrival, 75);
    }
}
