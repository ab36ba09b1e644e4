//! The three workloads. Each call runs one *section*: set-up, then the
//! timed part, then the fingerprint of every operation in it. A section is
//! one run (`paper_serial`, `mega_sharded`) or one warm prefix plus a sweep
//! of branches (`fault_branch`). Host clocks are read only here, around
//! calls into the simulator's public functions.

use crate::fingerprint::{self, OpKey};
use crate::host::process_cpu_s;
use crate::shim::{Boundary, Shim};
use cputopo::Topology;
use loadgen::{ClosedLoop, OpenLoop};
use microsvc::{
    mix_seed, AdmissionPolicy, AppSpec, Deployment, Engine, EngineParams, LbPolicy, OverloadParams,
    PlanSpace, ResilienceParams, RunReport, ShardSpec, ShardedRun, WindowPolicy,
};
use simcore::snap::{SnapReader, SnapWriter};
use simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use teastore::TeaStore;

/// Per-layer values measured in one section, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One operation: a run or a branch. `fp` is `None` when it panicked.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub key: OpKey,
    pub ms: f64,
    pub fp: Option<u64>,
}

/// What one section measured.
#[derive(Debug, Default)]
pub struct Section {
    pub setup_s: f64,
    pub wall_s: f64,
    pub ops: Vec<Op>,
    pub layers: Layers,
    /// Human-readable detail printed beside the metrics.
    pub notes: Vec<String>,
}

/// Simulation never reaches this; runs end at their generator's stop timer.
const HORIZON: SimTime = SimTime::from_secs(60);

/// Think time of a serial run's users.
const SERIAL_THINK: SimDuration = SimDuration::from_millis(20);

/// A closed-loop TeaStore run on one serial engine.
#[derive(Debug, Clone, Copy)]
pub struct SerialCfg {
    pub users: u64,
    pub warmup_ms: u64,
    pub measure_ms: u64,
}

/// `paper_serial`: the paper's machine, 512 users, 20 ms think time.
pub const PAPER_SERIAL: SerialCfg = SerialCfg {
    users: 512,
    warmup_ms: 1000,
    measure_ms: 4000,
};

/// A closed-loop population split over conservative cells.
#[derive(Debug, Clone, Copy)]
pub struct ShardedCfg {
    pub users: u64,
    pub think_ms: u64,
    pub warmup_ms: u64,
    pub measure_ms: u64,
    pub cells: u32,
}

/// Wakeup coalescing window of a sharded run's generators.
const COALESCE: SimDuration = SimDuration::from_millis(10);

/// Share of a sharded run's calls that cross cells, per mille.
const CROSS_PERMILLE: u32 = 50;

/// `mega_sharded`: ten million users in 8 cells.
pub const MEGA_SHARDED: ShardedCfg = ShardedCfg {
    users: 10_000_000,
    think_ms: 100_000,
    warmup_ms: 500,
    measure_ms: 1500,
    cells: 8,
};

/// An open-loop run near capacity, warmed to a trigger instant and branched
/// under sampled fault plans.
#[derive(Debug, Clone, Copy)]
pub struct BranchCfg {
    pub rate_rps: f64,
    pub warmup_ms: u64,
    pub measure_ms: u64,
    pub trigger_ms: u64,
    pub branches: u64,
}

/// Per-call timeout of a branched run's resilience layer.
const BRANCH_TIMEOUT: SimDuration = SimDuration::from_millis(50);

/// Queue bound of a branched run's `RejectNew` admission.
const BRANCH_QUEUE_BOUND: usize = 64;

/// Fewest and most fault events in a branch's sampled plan.
const BRANCH_PLAN_EVENTS: (u32, u32) = (2, 6);

/// `fault_branch`: the `repro chaos` pattern on the paper's machine.
pub const FAULT_BRANCH: BranchCfg = BranchCfg {
    rate_rps: 12_000.0,
    warmup_ms: 500,
    measure_ms: 1000,
    trigger_ms: 700,
    branches: 32,
};

/// The paper's 2-socket, 128-core machine.
fn topology() -> Arc<Topology> {
    Arc::new(Topology::zen2_2p_128c())
}

/// The TeaStore browse app, its class mix, and `uniform(4, 12)` placement.
fn teastore(topo: &Arc<Topology>) -> (AppSpec, Vec<f64>, Deployment) {
    let store = TeaStore::browse();
    let mix = store.mix();
    let app = store.into_app();
    let deployment = Deployment::uniform(&app, topo, 4, 12);
    (app, mix, deployment)
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn mib(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

/// Runs `f`, turning a panic into `None` (the panic message still reaches
/// stderr through the default hook).
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Counters read from a report, summed over the reports of a section.
#[derive(Debug, Default)]
struct Counts {
    high_water: f64,
    footprint: f64,
    wakeups: f64,
    switches: f64,
    migrations: f64,
    steals: f64,
    timeouts: f64,
    retries: f64,
    breaker_opened: f64,
    shed: f64,
    replies_dropped: f64,
}

impl Counts {
    fn add(&mut self, r: &RunReport) {
        self.high_water = self.high_water.max(r.calendar_high_water as f64);
        self.footprint = self.footprint.max(r.engine_footprint_bytes as f64);
        self.wakeups += r.sched.wakeups as f64;
        self.switches += r.sched.context_switches as f64;
        self.migrations += r.sched.migrations as f64;
        self.steals += r.sched.steals as f64;
        for s in &r.services {
            self.timeouts += s.timeouts as f64;
            self.retries += s.retries as f64;
            self.breaker_opened += s.breaker_opened as f64;
        }
        self.shed += r.overload.total_sheds() as f64;
        self.replies_dropped += r.replies_dropped as f64;
    }
}

/// The timing side of a section: where the host seconds went.
#[derive(Debug, Default)]
struct Timing {
    b: Boundary,
    /// Seconds inside the engine's event loop (`run`/`run_resumed`).
    run_s: f64,
    /// Events handled inside that loop.
    events: f64,
    /// Seconds inside `report()`.
    report_s: f64,
    /// Load-generator self time that ran inside the loop (callbacks, and
    /// `start` where the loop calls it).
    loadgen_in_loop_s: f64,
    /// Host seconds the loop used: its wall time on one thread, the process
    /// CPU time of a sharded run's workers.
    busy_s: f64,
    bytes_per_user: f64,
}

/// Fills every per-layer metric; layers a workload does not reach stay 0,
/// and the host ones are filled by the caller.
fn layers(t: &Timing, c: &Counts) -> Layers {
    let loop_s = t.busy_s - t.loadgen_in_loop_s;
    let mut l: Layers = crate::metrics::PER_LAYER
        .iter()
        .map(|m| (m.name, 0.0))
        .collect();
    let mut set = |k: &'static str, v: f64| {
        assert!(l.insert(k, v).is_some(), "{k} is not a per-layer metric");
    };
    set("loadgen.start_s", t.b.start_s);
    set("loadgen.callback_s", t.b.callback_s);
    set("loadgen.callbacks", t.b.callbacks as f64);
    set("loadgen.bytes_per_user", t.bytes_per_user);
    set("engine.events", t.events);
    set("engine.loop_s", loop_s);
    set("engine.ns_per_event", loop_s / t.events.max(1.0) * 1e9);
    set("engine.events_per_s", t.events / t.run_s.max(1e-9));
    set("engine.submits", t.b.submits as f64);
    set("engine.submit_s", t.b.submit_s);
    set("engine.timers", t.b.timers as f64);
    set("engine.footprint_mib", mib(c.footprint));
    set("calendar.high_water", c.high_water);
    set("sched.wakeups", c.wakeups);
    set("sched.context_switches", c.switches);
    set("sched.migrations", c.migrations);
    set("sched.steals", c.steals);
    set("metrics.report_s", t.report_s);
    set("resilience.timeouts", c.timeouts);
    set("resilience.retries", c.retries);
    set("resilience.breaker_opened", c.breaker_opened);
    set("overload.shed", c.shed);
    set("fault.replies_dropped", c.replies_dropped);
    l
}

/// One `paper_serial`-shaped run. Set-up ends after the generator's
/// `start`; the timed part is the event loop plus `report()`.
pub fn serial<S: Shim<ClosedLoop>>(cfg: &SerialCfg, seed: u64) -> Section {
    let t0 = Instant::now();
    let topo = topology();
    let (app, mix, deployment) = teastore(&topo);
    let mut engine = Engine::new(topo, EngineParams::default(), app, deployment, seed);
    let mut load = S::wrap(
        ClosedLoop::new(cfg.users)
            .think_time(SERIAL_THINK)
            .mix(&mix)
            .warmup(SimDuration::from_millis(cfg.warmup_ms))
            .measure(SimDuration::from_millis(cfg.measure_ms)),
    );
    load.start(&mut engine);
    let setup_s = secs(t0);

    let t1 = Instant::now();
    engine.run_resumed(&mut load, HORIZON);
    let run_s = secs(t1);
    let t2 = Instant::now();
    let report = engine.report();
    let report_s = secs(t2);
    let wall_s = secs(t1);

    let b = load.boundary();
    let timing = Timing {
        b,
        run_s,
        events: engine.events_processed() as f64,
        report_s,
        loadgen_in_loop_s: b.callback_s,
        busy_s: run_s,
        bytes_per_user: load.inner().footprint_bytes() as f64 / cfg.users as f64,
    };
    let mut counts = Counts::default();
    counts.add(&report);
    Section {
        setup_s,
        wall_s,
        ops: vec![Op {
            key: None,
            ms: wall_s * 1e3,
            fp: Some(fingerprint::of(&report, None)),
        }],
        layers: layers(&timing, &counts),
        notes: Vec::new(),
    }
}

/// One `mega_sharded`-shaped run. Set-up builds every cell; the timed part
/// is `ShardedRun::run` (which also starts the generators) plus the merged
/// `report()`.
pub fn sharded<S: Shim<ClosedLoop>>(cfg: &ShardedCfg, seed: u64) -> Section {
    let t0 = Instant::now();
    let topo = topology();
    let (app, mix, deployment) = teastore(&topo);
    let spec = ShardSpec {
        cells: cfg.cells,
        cross_permille: CROSS_PERMILLE,
        latency: SimDuration::from_millis(1),
    };
    let cells: Vec<(Engine, S)> = (0..cfg.cells)
        .map(|c| {
            let engine = Engine::new(
                topo.clone(),
                EngineParams::default(),
                app.clone(),
                deployment.clone(),
                mix_seed(seed, c),
            );
            let users = cfg.users / u64::from(cfg.cells)
                + u64::from(u64::from(c) < cfg.users % u64::from(cfg.cells));
            let load = ClosedLoop::new(users)
                .think_time(SimDuration::from_millis(cfg.think_ms))
                .mix(&mix)
                .warmup(SimDuration::from_millis(cfg.warmup_ms))
                .measure(SimDuration::from_millis(cfg.measure_ms))
                .coalesce(COALESCE);
            (engine, S::wrap(load))
        })
        .collect();
    let mut run = ShardedRun::new(cells, spec).with_policy(WindowPolicy::Conservative);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let setup_s = secs(t0);

    let cpu0 = process_cpu_s();
    let t1 = Instant::now();
    run.run(HORIZON, workers);
    let run_s = secs(t1);
    let cpu_s = process_cpu_s() - cpu0;
    let t2 = Instant::now();
    let report = run.report();
    let report_s = secs(t2);
    let wall_s = secs(t1);

    let sync = run.sync_stats();
    let mut b = Boundary::default();
    let mut driver_bytes = 0usize;
    let mut messages = 0u64;
    for d in run.drivers() {
        b.add(&d.inner().boundary());
        driver_bytes += d.inner().inner().footprint_bytes();
        messages += d.messages_sent();
    }
    let per_cell: Vec<u64> = run.engines().map(Engine::events_processed).collect();
    let max = per_cell.iter().copied().max().unwrap_or(0) as f64;
    let mean = per_cell.iter().sum::<u64>() as f64 / per_cell.len().max(1) as f64;
    let spread = max / mean.max(1.0);

    let timing = Timing {
        b,
        run_s,
        events: run.events_processed() as f64,
        report_s,
        loadgen_in_loop_s: b.loadgen_s(),
        busy_s: cpu_s,
        bytes_per_user: driver_bytes as f64 / cfg.users as f64,
    };
    let mut counts = Counts::default();
    counts.add(&report);
    let mut l = layers(&timing, &counts);
    l.insert("shard.barriers", sync.barriers as f64);
    l.insert("shard.rounds", sync.rounds as f64);
    l.insert("shard.messages", messages as f64);
    l.insert("shard.cell_events_spread", spread);
    l.insert("shard.cpu_s", cpu_s);
    l.insert("shard.parallelism", cpu_s / run_s.max(1e-9));
    let notes = vec![
        format!(
            "sync: rounds={} windows={} barriers={} rollbacks={} replayed={} messages={messages}",
            sync.rounds, sync.windows, sync.barriers, sync.rollbacks, sync.replayed_events
        ),
        format!(
            "cells: workers={workers} events per cell {per_cell:?} (max/mean {spread:.4}); \
             run {run_s:.3} s wall, {cpu_s:.3} s process CPU"
        ),
    ];
    Section {
        setup_s,
        wall_s,
        ops: vec![Op {
            key: None,
            ms: wall_s * 1e3,
            fp: Some(fingerprint::of(&report, Some(&sync))),
        }],
        layers: l,
        notes,
    }
}

/// What one branch measured.
struct Branch {
    fp: u64,
    restore_s: f64,
    run_s: f64,
    report_s: f64,
    events: u64,
    report: RunReport,
    b: Boundary,
}

/// One `fault_branch`-shaped sweep. Set-up warms one engine to the trigger
/// instant and saves a snapshot; the timed part runs every branch: a fresh
/// engine, `snap_restore`, the sampled fault plan, and the run to its end.
pub fn branches<S: Shim<OpenLoop>>(cfg: &BranchCfg, seed: u64) -> Section {
    let t0 = Instant::now();
    let topo = topology();
    let build = |app: &AppSpec, mix: &[f64], deployment: &Deployment| {
        let params = EngineParams {
            lb: LbPolicy::LeastOutstanding,
            resilience: Some(ResilienceParams::default().with_timeout(BRANCH_TIMEOUT)),
            overload: Some(
                OverloadParams::default().with_admission(AdmissionPolicy::RejectNew {
                    bound: BRANCH_QUEUE_BOUND,
                }),
            ),
            ..EngineParams::default()
        };
        let engine = Engine::new(topo.clone(), params, app.clone(), deployment.clone(), seed);
        let load = OpenLoop::new(cfg.rate_rps)
            .mix(mix)
            .warmup(SimDuration::from_millis(cfg.warmup_ms))
            .measure(SimDuration::from_millis(cfg.measure_ms));
        (engine, S::wrap(load))
    };

    let (app, mix, deployment) = teastore(&topo);
    let (mut engine, mut load) = build(&app, &mix, &deployment);
    let trigger = SimTime::from_millis(cfg.trigger_ms);
    engine.run(&mut load, trigger);
    let prefix_events = engine.events_processed();
    let ts = Instant::now();
    let mut w = SnapWriter::new();
    engine.snap_save(&mut w);
    load.driver_snap_save(&mut w);
    let snapshot = w.finish();
    let save_s = secs(ts);
    let setup_s = secs(t0);
    let start_b = load.boundary();
    drop((engine, load));

    let space = PlanSpace {
        instances: deployment.total_instances() as u32,
        from: trigger,
        until: SimTime::from_millis(cfg.warmup_ms + cfg.measure_ms),
        events_min: BRANCH_PLAN_EVENTS.0,
        events_max: BRANCH_PLAN_EVENTS.1,
    };
    let mut ops = Vec::with_capacity(cfg.branches as usize);
    let mut done = Vec::with_capacity(cfg.branches as usize);
    let t1 = Instant::now();
    for i in 0..cfg.branches {
        let tb = Instant::now();
        let branch = guarded(|| {
            let (mut engine, mut load) = build(&app, &mix, &deployment);
            let tr = Instant::now();
            let mut r = SnapReader::new(&snapshot).expect("in-process snapshot is well-formed");
            engine
                .snap_restore(&mut r)
                .expect("snapshot restores into its own config");
            load.driver_snap_restore(&mut r)
                .expect("snapshot restores into its own driver");
            let restore_s = secs(tr);
            engine.install_fault_plan(space.sample(seed, i).lower());
            let tl = Instant::now();
            engine.run_resumed(&mut load, HORIZON);
            let run_s = secs(tl);
            let tp = Instant::now();
            let report = engine.report();
            let report_s = secs(tp);
            Branch {
                fp: fingerprint::of(&report, None),
                restore_s,
                run_s,
                report_s,
                events: engine.events_processed() - prefix_events,
                report,
                b: load.boundary(),
            }
        });
        ops.push(Op {
            key: Some(i),
            ms: secs(tb) * 1e3,
            fp: branch.as_ref().map(|b| b.fp),
        });
        done.extend(branch);
    }
    let wall_s = secs(t1);

    let mut timing = Timing {
        b: Boundary {
            start_s: start_b.start_s,
            ..Boundary::default()
        },
        ..Timing::default()
    };
    let mut counts = Counts::default();
    let mut restore_s = 0.0;
    for br in &done {
        timing.b.add(&br.b);
        timing.run_s += br.run_s;
        timing.busy_s += br.run_s;
        timing.events += br.events as f64;
        timing.report_s += br.report_s;
        timing.loadgen_in_loop_s += br.b.callback_s;
        restore_s += br.restore_s;
        counts.add(&br.report);
    }
    let restore_mean_s = restore_s / done.len().max(1) as f64;
    let mut l = layers(&timing, &counts);
    l.insert("snap.bytes", snapshot.len() as f64);
    l.insert("snap.save_s", save_s);
    l.insert("snap.restore_s", restore_mean_s);
    let notes = vec![format!(
        "sweep: {} branches, snapshot {} B (save {:.2} ms, restore {:.2} ms mean), \
         {} timeouts, {} sheds",
        cfg.branches,
        snapshot.len(),
        save_s * 1e3,
        restore_mean_s * 1e3,
        counts.timeouts,
        counts.shed
    )];
    Section {
        setup_s,
        wall_s,
        ops,
        layers: l,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shim::Timed;

    const SERIAL: SerialCfg = SerialCfg {
        users: 64,
        warmup_ms: 100,
        measure_ms: 200,
    };
    const SHARDED: ShardedCfg = ShardedCfg {
        users: 20_000,
        think_ms: 2_000,
        warmup_ms: 100,
        measure_ms: 200,
        cells: 2,
    };
    const BRANCH: BranchCfg = BranchCfg {
        rate_rps: 3_000.0,
        warmup_ms: 100,
        measure_ms: 300,
        trigger_ms: 150,
        branches: 3,
    };

    fn fingerprints(s: &Section) -> Vec<(OpKey, u64)> {
        s.ops
            .iter()
            .map(|o| (o.key, o.fp.expect("no operation panics")))
            .collect()
    }

    /// The timed shim forwards every callback: a traced section simulates
    /// exactly what an untraced one does, and it saw the traffic.
    #[test]
    fn traced_fingerprints_equal_untraced_ones() {
        let pairs = [
            (
                serial::<ClosedLoop>(&SERIAL, 3),
                serial::<Timed<ClosedLoop>>(&SERIAL, 3),
            ),
            (
                sharded::<ClosedLoop>(&SHARDED, 3),
                sharded::<Timed<ClosedLoop>>(&SHARDED, 3),
            ),
            (
                branches::<OpenLoop>(&BRANCH, 3),
                branches::<Timed<OpenLoop>>(&BRANCH, 3),
            ),
        ];
        for (bare, timed) in &pairs {
            assert_eq!(fingerprints(bare), fingerprints(timed));
            assert_eq!(bare.layers["loadgen.callbacks"], 0.0);
            for counted in ["loadgen.callbacks", "engine.submits", "engine.timers"] {
                assert!(timed.layers[counted] > 0.0, "{counted}");
            }
            assert!(timed.layers["engine.submit_s"] > 0.0);
        }
    }

    #[test]
    fn a_perturbed_seed_changes_every_fingerprint() {
        let a = fingerprints(&serial::<ClosedLoop>(&SERIAL, 1));
        assert_eq!(a, fingerprints(&serial::<ClosedLoop>(&SERIAL, 1)));
        assert_ne!(a, fingerprints(&serial::<ClosedLoop>(&SERIAL, 2)));
        let a = fingerprints(&sharded::<ClosedLoop>(&SHARDED, 1));
        assert_ne!(a, fingerprints(&sharded::<ClosedLoop>(&SHARDED, 2)));
        let a = fingerprints(&branches::<OpenLoop>(&BRANCH, 1));
        let b = fingerprints(&branches::<OpenLoop>(&BRANCH, 2));
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.1, y.1, "branch {:?}", x.0);
        }
    }

    #[test]
    fn every_section_reports_every_per_layer_metric() {
        let s = branches::<Timed<OpenLoop>>(&BRANCH, 1);
        for m in crate::metrics::PER_LAYER {
            assert!(s.layers.contains_key(m.name), "{}", m.name);
        }
        assert_eq!(s.layers.len(), crate::metrics::PER_LAYER.len());
        assert!(s.layers["snap.bytes"] > 0.0 && s.layers["snap.restore_s"] > 0.0);
        let s = sharded::<Timed<ClosedLoop>>(&SHARDED, 1);
        assert!(s.layers["shard.barriers"] > 0.0 && s.layers["shard.messages"] > 0.0);
        assert!(s.layers["loadgen.bytes_per_user"] > 0.0);
    }
}
