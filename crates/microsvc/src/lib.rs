//! The microservice substrate: applications, deployments, and the engine
//! that executes them on a simulated machine.
//!
//! This crate plays the role that Docker + Tomcat + the JVM + the network
//! stack play for the real TeaStore: it takes an *application description*
//! and a *deployment* and turns client requests into scheduled CPU work.
//!
//! # Concepts
//!
//! * [`AppSpec`] — the application: services (each with a µarch
//!   [`ServiceProfile`](uarch::ServiceProfile)) and request classes, where a
//!   request class is a tree of [`CallNode`]s: CPU demand at a service plus
//!   stages of downstream calls (calls within a stage fan out in parallel;
//!   stages run in sequence). Threads are *synchronous*: a worker holding a
//!   request blocks while its downstream calls are in flight, exactly like
//!   servlet containers.
//! * [`Deployment`] — how many instances of each service exist, each with an
//!   affinity [`CpuSet`](cputopo::CpuSet), a worker-thread count, and a NUMA
//!   memory home. This is the object the paper's placement policies produce.
//! * [`LbPolicy`] — how a caller picks among a service's instances.
//! * [`Engine`] — the discrete-event simulator: per-CPU execution with
//!   contention-dependent rates (via [`uarch`]), an OS scheduler (via
//!   [`oskernel`]), RPC latencies priced by topology distance, and full
//!   measurement (latency histograms, per-service utilization, synthesized
//!   perf counters, scheduler event counts).
//! * [`Driver`] — the workload source. Load generators (closed/open loop)
//!   live in the `loadgen` crate and implement this trait.
//!
//! # Example
//!
//! A one-service app driven by a trivial driver:
//!
//! ```
//! use microsvc::{AppSpec, CallNode, Demand, Deployment, Engine, EngineParams,
//!                Driver, EngineCtx, ResponseInfo, ServiceSpec};
//! use cputopo::Topology;
//! use simcore::{SimDuration, SimTime};
//! use std::sync::Arc;
//!
//! let topo = Arc::new(Topology::desktop_8c());
//! let mut app = AppSpec::new();
//! let svc = app.add_service(ServiceSpec::new("api", uarch::ServiceProfile::light_rpc("api")));
//! app.add_class("ping", 1.0, CallNode::leaf(svc, Demand::fixed_us(200.0)));
//!
//! let deployment = Deployment::uniform(&app, &topo, 2, 4); // 2 instances × 4 threads
//!
//! struct OneShot { done: u32 }
//! impl Driver for OneShot {
//!     fn start(&mut self, ctx: &mut dyn EngineCtx) {
//!         for client in 0..8 { ctx.submit(0, client); }
//!     }
//!     fn on_response(&mut self, _resp: ResponseInfo, _ctx: &mut dyn EngineCtx) {
//!         self.done += 1;
//!     }
//! }
//!
//! let mut engine = Engine::new(topo, EngineParams::default(), app, deployment, 42);
//! let mut driver = OneShot { done: 0 };
//! engine.run(&mut driver, SimTime::from_secs(1));
//! assert_eq!(driver.done, 8);
//! ```

pub mod app;
pub mod chaos;
pub mod deploy;
pub mod driver;
pub mod engine;
pub mod fault;
pub mod ids;
pub mod lb;
pub mod metrics;
pub mod overload;
pub mod resilience;
pub mod shard;
pub mod trace;

pub use app::{AppSpec, CallNode, CallStage, Demand, RequestClass, ServiceSpec};
pub use chaos::{
    shrink, ChaosPlan, FaultEvent, OracleCtx, PlanSpace, ShrinkOutcome, Slo, SloPolicy, Verdict,
};
pub use deploy::{Deployment, InstanceConfig};
pub use driver::{Driver, EngineCtx, Outcome, ResponseInfo};
pub use engine::{Engine, EngineParams};
pub use fault::{Crash, FaultCause, FaultPlan, ReplyFault, Slowdown};
pub use ids::{ClientId, InstanceId, RequestClassId, RequestId, ServiceId};
pub use lb::LbPolicy;
pub use overload::{
    AdmissionPolicy, AimdLimiter, LimitAction, LimiterPolicy, OverloadParams, PriorityPolicy,
    RetryBudget, RetryBudgetPolicy, ShedReason,
};
pub use metrics::{OverloadTotals, RunReport, ServiceReport};
pub use resilience::{BreakerPolicy, BreakerState, CircuitBreaker, ResilienceParams, RetryPolicy};
pub use shard::{mix_seed, ShardDriver, ShardSpec, ShardedRun, SnapDriver, SyncStats, WindowPolicy};
pub use trace::{RequestTrace, Span, Tracer};
