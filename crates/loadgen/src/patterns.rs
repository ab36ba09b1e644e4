//! Non-stationary load patterns: ramps and bursts.
//!
//! Steady loads answer "how much"; shaped loads answer "how does it fail".
//! Two shapes the scale-up study uses:
//!
//! * [`RampLoad`] — open-loop arrivals whose rate climbs linearly from
//!   `start` to `end` over the run: a single run traces the whole
//!   latency-vs-load curve and exposes the knee without a sweep.
//! * [`BurstyLoop`] — a closed-loop population that alternates between an
//!   active and a quiet phase (think flash crowds), exercising the
//!   scheduler's reaction to offered-load steps.

use microsvc::{Driver, EngineCtx, ResponseInfo};
use simcore::dist::{Distribution, Exp, WeightedIndex};
use simcore::{SimDuration, SimTime};

const TOKEN_WARMUP: u64 = u64::MAX;
const TOKEN_STOP: u64 = u64::MAX - 1;
const TOKEN_ARRIVAL: u64 = u64::MAX - 2;
const TOKEN_PHASE: u64 = u64::MAX - 3;

/// Open-loop Poisson arrivals with a linearly ramping rate.
#[derive(Debug, Clone)]
pub struct RampLoad {
    start_rps: f64,
    end_rps: f64,
    ramp: SimDuration,
    warmup: SimDuration,
    mix: WeightedIndex,
    started_at: Option<SimTime>,
    next_client: u64,
    completed: u64,
}

impl RampLoad {
    /// Ramps from `start_rps` to `end_rps` over `ramp`, then stops.
    ///
    /// # Panics
    ///
    /// Panics unless both rates are positive and the ramp is non-zero.
    pub fn new(start_rps: f64, end_rps: f64, ramp: SimDuration) -> Self {
        assert!(start_rps > 0.0 && end_rps > 0.0, "rates must be positive");
        assert!(!ramp.is_zero(), "ramp must take time");
        RampLoad {
            start_rps,
            end_rps,
            ramp,
            warmup: SimDuration::from_millis(200),
            mix: WeightedIndex::new(&[1.0]),
            started_at: None,
            next_client: 0,
            completed: 0,
        }
    }

    /// Sets the warm-up before measurement starts (the ramp runs after it).
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the request-class mix weights.
    ///
    /// # Panics
    ///
    /// Panics if `mix` is empty, holds a negative or non-finite weight, or
    /// sums to zero.
    pub fn mix(mut self, mix: &[f64]) -> Self {
        assert!(!mix.is_empty(), "mix must name at least one class");
        self.mix = WeightedIndex::new(mix);
        self
    }

    /// Responses received so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// The instantaneous target rate at `now`.
    fn rate_at(&self, now: SimTime) -> Option<f64> {
        let started = self.started_at?;
        let elapsed = now.saturating_since(started);
        if elapsed > self.ramp {
            return None; // ramp over
        }
        let f = elapsed.as_secs_f64() / self.ramp.as_secs_f64();
        Some(self.start_rps + (self.end_rps - self.start_rps) * f)
    }

    fn schedule_next(&self, now: SimTime, ctx: &mut dyn EngineCtx) {
        if let Some(rate) = self.rate_at(now) {
            let gap = Exp::from_mean(1e9 / rate).sample_duration(ctx.rng());
            ctx.set_timer(gap, TOKEN_ARRIVAL);
        } else {
            ctx.request_stop();
        }
    }
}

impl Driver for RampLoad {
    fn start(&mut self, ctx: &mut dyn EngineCtx) {
        self.started_at = Some(ctx.now());
        ctx.set_timer(self.warmup, TOKEN_WARMUP);
        let now = ctx.now();
        self.schedule_next(now, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn EngineCtx) {
        match token {
            TOKEN_WARMUP => ctx.reset_metrics(),
            TOKEN_ARRIVAL => {
                let class = self.mix.sample_index(ctx.rng()) as u32;
                let client = self.next_client;
                self.next_client += 1;
                ctx.submit(class, client);
                let now = ctx.now();
                self.schedule_next(now, ctx);
            }
            other => unreachable!("ramp load received unknown timer {other}"),
        }
    }

    fn on_response(&mut self, _resp: ResponseInfo, _ctx: &mut dyn EngineCtx) {
        self.completed += 1;
    }
}

/// A closed-loop population that alternates active/quiet phases.
#[derive(Debug, Clone)]
pub struct BurstyLoop {
    users: u64,
    think_mean: SimDuration,
    active: SimDuration,
    quiet: SimDuration,
    warmup: SimDuration,
    measure: Option<SimDuration>,
    mix: WeightedIndex,
    in_burst: bool,
    issued: u64,
    completed: u64,
    /// Users whose next submission was deferred by a quiet phase.
    parked: Vec<u64>,
}

impl BurstyLoop {
    /// `users` users that are active for `active`, quiet for `quiet`,
    /// repeating.
    ///
    /// # Panics
    ///
    /// Panics if `users` is zero or either phase is zero-length.
    pub fn new(users: u64, active: SimDuration, quiet: SimDuration) -> Self {
        assert!(users > 0, "need at least one user");
        assert!(
            !active.is_zero() && !quiet.is_zero(),
            "phases must take time"
        );
        BurstyLoop {
            users,
            think_mean: SimDuration::from_millis(10),
            active,
            quiet,
            warmup: SimDuration::from_millis(200),
            measure: None,
            mix: WeightedIndex::new(&[1.0]),
            in_burst: true,
            issued: 0,
            completed: 0,
            parked: Vec::new(),
        }
    }

    /// Sets the mean think time within a burst.
    pub fn think_time(mut self, mean: SimDuration) -> Self {
        self.think_mean = mean;
        self
    }

    /// Sets the warm-up length.
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the measurement window; the run stops `warmup + measure` in.
    pub fn measure(mut self, measure: SimDuration) -> Self {
        self.measure = Some(measure);
        self
    }

    /// Sets the request-class mix weights.
    ///
    /// # Panics
    ///
    /// Panics if `mix` is empty, holds a negative or non-finite weight, or
    /// sums to zero.
    pub fn mix(mut self, mix: &[f64]) -> Self {
        assert!(!mix.is_empty(), "mix must name at least one class");
        self.mix = WeightedIndex::new(mix);
        self
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Responses received so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    fn submit_for(&mut self, user: u64, ctx: &mut dyn EngineCtx) {
        let class = self.mix.sample_index(ctx.rng()) as u32;
        self.issued += 1;
        ctx.submit(class, user);
    }

    fn user_ready(&mut self, user: u64, ctx: &mut dyn EngineCtx) {
        if self.in_burst {
            self.submit_for(user, ctx);
        } else {
            self.parked.push(user);
        }
    }
}

impl Driver for BurstyLoop {
    fn start(&mut self, ctx: &mut dyn EngineCtx) {
        ctx.set_timer(self.warmup, TOKEN_WARMUP);
        if let Some(measure) = self.measure {
            ctx.set_timer(self.warmup + measure, TOKEN_STOP);
        }
        ctx.set_timer(self.active, TOKEN_PHASE);
        let stagger_ns = (self.think_mean.as_nanos() / 2).max(10_000_000);
        for user in 0..self.users {
            let offset = SimDuration::from_nanos(ctx.rng().next_below(stagger_ns));
            ctx.set_timer(offset, user);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn EngineCtx) {
        match token {
            TOKEN_WARMUP => ctx.reset_metrics(),
            TOKEN_STOP => ctx.request_stop(),
            TOKEN_PHASE => {
                self.in_burst = !self.in_burst;
                let next = if self.in_burst {
                    self.active
                } else {
                    self.quiet
                };
                ctx.set_timer(next, TOKEN_PHASE);
                if self.in_burst {
                    // Release everyone parked during the quiet phase at once:
                    // the step the scheduler has to absorb.
                    let parked = std::mem::take(&mut self.parked);
                    for user in parked {
                        self.submit_for(user, ctx);
                    }
                }
            }
            user => self.user_ready(user, ctx),
        }
    }

    fn on_response(&mut self, resp: ResponseInfo, ctx: &mut dyn EngineCtx) {
        self.completed += 1;
        let user = resp.client.0;
        if self.think_mean.is_zero() {
            self.user_ready(user, ctx);
        } else {
            let think = Exp::from_mean_duration(self.think_mean).sample_duration(ctx.rng());
            ctx.set_timer(think, user);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cputopo::Topology;
    use microsvc::{AppSpec, CallNode, Demand, Deployment, Engine, EngineParams, ServiceSpec};
    use std::sync::Arc;
    use uarch::ServiceProfile;

    fn engine(seed: u64) -> Engine {
        let topo = Arc::new(Topology::desktop_8c());
        let mut app = AppSpec::new();
        let svc = app.add_service(ServiceSpec::new("api", ServiceProfile::light_rpc("api")));
        app.add_class("a", 1.0, CallNode::leaf(svc, Demand::fixed_us(200.0)));
        let deployment = Deployment::uniform(&app, &topo, 2, 8);
        Engine::new(topo, EngineParams::default(), app, deployment, seed)
    }

    #[test]
    fn ramp_traces_increasing_load() {
        let mut eng = engine(1);
        let mut load = RampLoad::new(200.0, 4_000.0, SimDuration::from_secs(2))
            .warmup(SimDuration::from_millis(100));
        eng.run(&mut load, SimTime::from_secs(30));
        // Arrivals over a linear 200→4000 ramp across 2 s average ~2100/s.
        let total = load.completed();
        assert!(
            (3_000..6_000).contains(&total),
            "expected ~4200 completions, got {total}"
        );
        // The engine stops when the ramp ends (plus in-flight drain).
        assert!(eng.now() <= SimTime::from_secs(3));
    }

    #[test]
    fn bursty_parks_users_in_quiet_phases() {
        let mut eng = engine(2);
        let mut load = BurstyLoop::new(
            16,
            SimDuration::from_millis(200),
            SimDuration::from_millis(200),
        )
        .think_time(SimDuration::from_millis(2))
        .warmup(SimDuration::from_millis(50))
        .measure(SimDuration::from_secs(2));
        eng.run(&mut load, SimTime::from_secs(30));
        assert!(
            load.completed() > 100,
            "bursts still make progress: {}",
            load.completed()
        );
        // Roughly half the time is quiet, so throughput is well below the
        // always-active equivalent.
        let report = eng.report();
        let active_equiv = 16.0 / 0.0025; // N/Z upper bound when active
        assert!(
            report.throughput_rps < 0.8 * active_equiv,
            "quiet phases must depress throughput: {}",
            report.throughput_rps
        );
    }

    #[test]
    fn ramp_rejects_bad_config() {
        let r = std::panic::catch_unwind(|| RampLoad::new(0.0, 10.0, SimDuration::from_secs(1)));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| RampLoad::new(10.0, 10.0, SimDuration::ZERO));
        assert!(r.is_err());
    }
}
