//! A pass-through driver wrapper: the traced run's view of the
//! `Driver`/`EngineCtx` boundary.
//!
//! The untraced run drives the load generator as it is; the traced run
//! wraps it in [`Timed`], which times each callback into the load generator
//! and each call the generator makes back into the engine, so the load
//! generator's *self* time (callback time minus nested engine calls) and the
//! engine's submit cost can be read from outside the simulator. The wrapper does not touch the simulation: a
//! traced run's fingerprint equals the untraced one's.

use loadgen::{ClosedLoop, OpenLoop};
use microsvc::{Driver, EngineCtx, RequestId, ResponseInfo, SnapDriver};
use simcore::snap::{SnapError, SnapReader, SnapWriter};
use simcore::{Rng, SimDuration, SimTime};
use std::time::Instant;

/// Host time and call counts recorded at the driver boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Boundary {
    /// Self time in `Driver::start`, seconds.
    pub start_s: f64,
    /// Self time in `on_timer`/`on_response`, seconds.
    pub callback_s: f64,
    /// `on_timer` plus `on_response` calls.
    pub callbacks: u64,
    /// `EngineCtx::submit` calls.
    pub submits: u64,
    /// Time inside `EngineCtx::submit`, seconds.
    pub submit_s: f64,
    /// `EngineCtx::set_timer` calls.
    pub timers: u64,
}

impl Boundary {
    /// Field-wise sum (per-cell boundaries of a sharded run).
    pub fn add(&mut self, o: &Boundary) {
        self.start_s += o.start_s;
        self.callback_s += o.callback_s;
        self.callbacks += o.callbacks;
        self.submits += o.submits;
        self.submit_s += o.submit_s;
        self.timers += o.timers;
    }

    /// Load-generator self time in total.
    pub fn loadgen_s(&self) -> f64 {
        self.start_s + self.callback_s
    }
}

/// A driver the workloads are generic over: a load generator as it is, for
/// the untraced run, or wrapped in [`Timed`].
pub trait Shim<D>: SnapDriver + Send + Sized {
    /// Wraps `inner`.
    fn wrap(inner: D) -> Self;
    /// The wrapped generator.
    fn inner(&self) -> &D;
    /// What the wrapper recorded; all zero for an unwrapped generator.
    fn boundary(&self) -> Boundary {
        Boundary::default()
    }
}

/// The untraced run's driver: the generator as it is.
impl Shim<ClosedLoop> for ClosedLoop {
    fn wrap(inner: ClosedLoop) -> Self {
        inner
    }

    fn inner(&self) -> &ClosedLoop {
        self
    }
}

/// The untraced run's driver: the generator as it is.
impl Shim<OpenLoop> for OpenLoop {
    fn wrap(inner: OpenLoop) -> Self {
        inner
    }

    fn inner(&self) -> &OpenLoop {
        self
    }
}

/// Times every callback and every nested engine call.
pub struct Timed<D> {
    inner: D,
    b: Boundary,
}

/// The engine surface handed to the timed generator: counts and times the
/// calls that do engine work, and accumulates their total as `nested`.
struct TimedCtx<'a> {
    ctx: &'a mut dyn EngineCtx,
    b: &'a mut Boundary,
    nested: f64,
}

impl TimedCtx<'_> {
    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn EngineCtx) -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f(self.ctx);
        let dt = t0.elapsed().as_secs_f64();
        self.nested += dt;
        (out, dt)
    }
}

impl EngineCtx for TimedCtx<'_> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn set_timer(&mut self, after: SimDuration, token: u64) {
        self.b.timers += 1;
        self.timed(|ctx| ctx.set_timer(after, token));
    }

    fn submit(&mut self, class: u32, client: u64) -> RequestId {
        self.b.submits += 1;
        let (id, dt) = self.timed(|ctx| ctx.submit(class, client));
        self.b.submit_s += dt;
        id
    }

    fn rng(&mut self) -> &mut Rng {
        self.ctx.rng()
    }

    fn reset_metrics(&mut self) {
        self.timed(|ctx| ctx.reset_metrics());
    }

    fn request_stop(&mut self) {
        self.ctx.request_stop();
    }

    fn completed_requests(&self) -> u64 {
        self.ctx.completed_requests()
    }
}

impl<D> Timed<D> {
    /// Runs `f` against a timing context and returns its self time.
    fn self_time(&mut self, ctx: &mut dyn EngineCtx, f: impl FnOnce(&mut D, &mut TimedCtx)) -> f64 {
        let Timed { inner, b } = self;
        let mut tctx = TimedCtx {
            ctx,
            b,
            nested: 0.0,
        };
        let t0 = Instant::now();
        f(inner, &mut tctx);
        t0.elapsed().as_secs_f64() - tctx.nested
    }
}

impl<D: Driver> Driver for Timed<D> {
    fn start(&mut self, ctx: &mut dyn EngineCtx) {
        self.b.start_s += self.self_time(ctx, |d, c| d.start(c));
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn EngineCtx) {
        self.b.callbacks += 1;
        self.b.callback_s += self.self_time(ctx, |d, c| d.on_timer(token, c));
    }

    fn on_response(&mut self, resp: ResponseInfo, ctx: &mut dyn EngineCtx) {
        self.b.callbacks += 1;
        self.b.callback_s += self.self_time(ctx, |d, c| d.on_response(resp, c));
    }
}

impl<D: SnapDriver> SnapDriver for Timed<D> {
    fn driver_snap_save(&self, w: &mut SnapWriter) {
        self.inner.driver_snap_save(w);
    }

    fn driver_snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.driver_snap_restore(r)
    }
}

impl<D: SnapDriver + Send> Shim<D> for Timed<D> {
    fn wrap(inner: D) -> Self {
        Timed {
            inner,
            b: Boundary::default(),
        }
    }

    fn inner(&self) -> &D {
        &self.inner
    }

    fn boundary(&self) -> Boundary {
        self.b
    }
}
