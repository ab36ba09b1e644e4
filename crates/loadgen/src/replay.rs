//! Trace replay: submit a pre-recorded arrival schedule.
//!
//! Production load is neither purely closed nor purely open — it is whatever
//! the access log says. [`ReplayLoad`] submits an explicit schedule of
//! `(arrival offset, request class)` pairs, so real traces (or schedules
//! generated once and shared between experiments) can be replayed
//! bit-identically against different configurations. The schedule is plain
//! data and independent of the engine's RNG, which
//! makes A/B comparisons exact: both sides see the *same* arrivals.

use microsvc::{Driver, EngineCtx, ResponseInfo};
use simcore::dist::{Distribution, Exp, WeightedIndex};
use simcore::{Rng, SimDuration};

const TOKEN_WARMUP: u64 = u64::MAX;

/// One scheduled arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the start of the run.
    pub at: SimDuration,
    /// Request class to submit.
    pub class: u32,
}

/// A replayable arrival schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    arrivals: Vec<Arrival>,
}

impl Schedule {
    /// Builds a schedule from arrivals; they are sorted by offset.
    pub fn new(mut arrivals: Vec<Arrival>) -> Self {
        arrivals.sort_by_key(|a| a.at);
        Schedule { arrivals }
    }

    /// Generates a Poisson schedule at `rate_rps` for `duration` with the
    /// given class mix — the "recording" half of record/replay.
    ///
    /// # Panics
    ///
    /// Panics if `rate_rps` is not positive or `mix` is empty.
    pub fn poisson(rng: &mut Rng, rate_rps: f64, duration: SimDuration, mix: &[f64]) -> Self {
        assert!(rate_rps > 0.0, "rate must be positive");
        let weighted = WeightedIndex::new(mix);
        let gap = Exp::from_mean(1e9 / rate_rps);
        let mut arrivals = Vec::new();
        let mut at = SimDuration::ZERO;
        loop {
            at += gap.sample_duration(rng);
            if at > duration {
                break;
            }
            arrivals.push(Arrival {
                at,
                class: weighted.sample_index(rng) as u32,
            });
        }
        Schedule { arrivals }
    }

    /// The arrivals, sorted by offset.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// `true` if the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Total span from start to the last arrival.
    pub fn span(&self) -> SimDuration {
        self.arrivals
            .last()
            .map(|a| a.at)
            .unwrap_or(SimDuration::ZERO)
    }
}

impl FromIterator<Arrival> for Schedule {
    fn from_iter<I: IntoIterator<Item = Arrival>>(iter: I) -> Self {
        Schedule::new(iter.into_iter().collect())
    }
}

/// Replays a [`Schedule`] against the engine.
#[derive(Debug, Clone)]
pub struct ReplayLoad {
    schedule: Schedule,
    warmup: SimDuration,
    next: usize,
    completed: u64,
}

impl ReplayLoad {
    /// Creates a replay of `schedule` with a 0 warm-up (metrics from t=0).
    pub fn new(schedule: Schedule) -> Self {
        ReplayLoad {
            schedule,
            warmup: SimDuration::ZERO,
            next: 0,
            completed: 0,
        }
    }

    /// Sets the warm-up instant at which metrics reset.
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Responses received so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Arrivals submitted so far.
    pub fn submitted(&self) -> usize {
        self.next
    }
}

impl Driver for ReplayLoad {
    fn start(&mut self, ctx: &mut dyn EngineCtx) {
        if !self.warmup.is_zero() {
            ctx.set_timer(self.warmup, TOKEN_WARMUP);
        }
        // One timer per arrival, token = its index. Schedules are typically
        // tens of thousands of entries; the calendar takes that in stride.
        for (i, arrival) in self.schedule.arrivals().iter().enumerate() {
            ctx.set_timer(arrival.at, i as u64);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn EngineCtx) {
        if token == TOKEN_WARMUP {
            ctx.reset_metrics();
            return;
        }
        let arrival = self.schedule.arrivals()[token as usize];
        self.next += 1;
        ctx.submit(arrival.class, token);
    }

    fn on_response(&mut self, _resp: ResponseInfo, _ctx: &mut dyn EngineCtx) {
        self.completed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cputopo::Topology;
    use microsvc::{AppSpec, CallNode, Demand, Deployment, Engine, EngineParams, ServiceSpec};
    use simcore::SimTime;
    use std::sync::Arc;
    use uarch::ServiceProfile;

    fn engine_with(seed: u64, instances: usize) -> Engine {
        let topo = Arc::new(Topology::desktop_8c());
        let mut app = AppSpec::new();
        let svc = app.add_service(ServiceSpec::new("api", ServiceProfile::light_rpc("api")));
        app.add_class("a", 1.0, CallNode::leaf(svc, Demand::fixed_us(150.0)));
        app.add_class("b", 1.0, CallNode::leaf(svc, Demand::fixed_us(300.0)));
        let deployment = Deployment::uniform(&app, &topo, instances, 8);
        Engine::new(topo, EngineParams::default(), app, deployment, seed)
    }

    fn engine(seed: u64) -> Engine {
        engine_with(seed, 2)
    }

    #[test]
    fn schedule_sorts_and_spans() {
        let s = Schedule::new(vec![
            Arrival {
                at: SimDuration::from_millis(5),
                class: 1,
            },
            Arrival {
                at: SimDuration::from_millis(1),
                class: 0,
            },
        ]);
        assert_eq!(s.arrivals()[0].class, 0);
        assert_eq!(s.span(), SimDuration::from_millis(5));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn poisson_schedule_has_roughly_the_right_count() {
        let mut rng = Rng::seed_from(3);
        let s = Schedule::poisson(&mut rng, 1_000.0, SimDuration::from_secs(2), &[1.0]);
        assert!((1_800..2_200).contains(&s.len()), "got {}", s.len());
        // Sorted and within the window.
        for w in s.arrivals().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(s.span() <= SimDuration::from_secs(2));
    }

    #[test]
    fn replay_submits_every_arrival() {
        let mut rng = Rng::seed_from(4);
        let schedule = Schedule::poisson(
            &mut rng,
            2_000.0,
            SimDuration::from_millis(500),
            &[1.0, 1.0],
        );
        let total = schedule.len();
        let mut eng = engine(1);
        let mut load = ReplayLoad::new(schedule);
        eng.run(&mut load, SimTime::from_secs(30));
        assert_eq!(load.submitted(), total);
        assert_eq!(load.completed(), total as u64);
    }

    #[test]
    fn same_schedule_different_configs_see_identical_arrivals() {
        // The A/B property: replay decouples the workload from the system.
        let mut rng = Rng::seed_from(5);
        let schedule = Schedule::poisson(&mut rng, 1_000.0, SimDuration::from_millis(300), &[1.0]);
        let run = |instances: usize| {
            let mut eng = engine_with(7, instances);
            let mut load = ReplayLoad::new(schedule.clone());
            eng.run(&mut load, SimTime::from_secs(30));
            (load.submitted(), eng.report().completed)
        };
        let (sub_a, done_a) = run(1);
        let (sub_b, done_b) = run(4);
        assert_eq!(sub_a, sub_b, "both configs replay the same arrivals");
        assert_eq!(done_a, done_b);
    }

    #[test]
    fn warmup_resets_metrics_mid_replay() {
        let schedule: Schedule = (0..100)
            .map(|i| Arrival {
                at: SimDuration::from_millis(i * 2),
                class: 0,
            })
            .collect();
        let mut eng = engine(2);
        let mut load = ReplayLoad::new(schedule).warmup(SimDuration::from_millis(100));
        eng.run(&mut load, SimTime::from_secs(30));
        let report = eng.report();
        assert_eq!(load.completed(), 100);
        assert!(
            report.completed < 100,
            "pre-warm-up completions must be excluded, got {}",
            report.completed
        );
    }
}
