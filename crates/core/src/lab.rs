//! The experiment runner: one configured object, one call per measurement.

use crate::placement::{PlacedDeployment, Policy};
use cputopo::Topology;
use loadgen::{ClosedLoop, OpenLoop};
use microsvc::{
    mix_seed, AppSpec, Deployment, Engine, EngineParams, FaultPlan, LbPolicy, RunReport, ShardSpec,
    ShardedRun,
};
use simcore::{SimDuration, SimTime, SnapError, SnapReader, SnapWriter};
use std::sync::Arc;
use teastore::TeaStore;

/// What a branched run changes relative to the checkpoint it forks from.
///
/// The default overrides nothing: the branch replays the checkpointed run
/// exactly. `reseed` perturbs every random stream with the given salt, so
/// two branches with different salts explore different trajectories from
/// the same history; `demand_scale` multiplies per-instance CPU demand, the
/// "requests get x% more expensive from here on" what-if; `faults` installs
/// a fault plan whose activity starts at or after the checkpoint instant —
/// the fork-at-the-trigger primitive of the chaos search (the checkpointed
/// run must itself be fault-free; see [`Engine::install_fault_plan`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BranchOverrides {
    /// Salt for perturbing the engine's random streams; `None` keeps them.
    pub reseed: Option<u64>,
    /// Multiplier on every instance's CPU demand; `None` keeps it.
    pub demand_scale: Option<f64>,
    /// A fault plan to inject from the fork point on; `None` injects none.
    pub faults: Option<FaultPlan>,
}

/// A configured scale-up laboratory: machine, engine parameters, load shape.
///
/// Construct once, then call [`Lab::run_app`] / [`Lab::run_policy`] for each
/// measurement. Every run is deterministic in `(lab config, seed)`.
#[derive(Debug, Clone)]
pub struct Lab {
    /// The simulated machine.
    pub topo: Arc<Topology>,
    /// Engine parameters (µarch model, scheduler, default LB).
    pub engine_params: EngineParams,
    /// Master seed for all random streams.
    pub seed: u64,
    /// Closed-loop user population.
    pub users: u64,
    /// Mean think time of closed-loop users.
    pub think: SimDuration,
    /// Warm-up discarded before measurement.
    pub warmup: SimDuration,
    /// Measurement window length.
    pub measure: SimDuration,
    /// Route every [`Lab::run_app`] / [`Lab::run_app_open`] through a
    /// snapshot at the end of warm-up and resume from it. Results are identical to a straight run (the
    /// differential tests enforce this); the flag exists so the entire
    /// experiment suite can double as a checkpoint/resume test battery.
    pub checkpoint: bool,
    /// Cell count for sharded parallel-in-run execution. `1` (the default)
    /// runs the untouched serial engine — byte-identical to every release
    /// before sharding existed. `N > 1` splits the client population over
    /// `N` conservative-lookahead cells (see `microsvc::shard`); results
    /// are deterministic in `(config, seed, shards)` and independent of
    /// the worker-thread count.
    pub shards: u32,
    /// Probability (permille) that a sharded root request is forwarded to
    /// a remote cell. Ignored when `shards == 1`.
    pub shard_cross_permille: u32,
    /// Cross-cell forwarding latency, which doubles as the conservative
    /// lookahead window. Ignored when `shards == 1`.
    pub shard_latency: SimDuration,
    /// Worker threads for sharded runs; `0` = one per available core.
    /// Never affects results, only wall-clock.
    pub shard_workers: usize,
}

impl Lab {
    /// The paper's machine (2P, 256 logical CPUs) under a saturating closed
    /// load: 1024 users, 10 ms think time, 0.75 s warm-up, 1.5 s measured.
    pub fn paper_machine(seed: u64) -> Self {
        Lab {
            topo: Arc::new(Topology::zen2_2p_128c()),
            engine_params: EngineParams::default(),
            seed,
            users: 1024,
            think: SimDuration::from_millis(10),
            warmup: SimDuration::from_millis(750),
            measure: SimDuration::from_millis(1500),
            checkpoint: false,
            shards: 1,
            shard_cross_permille: 50,
            shard_latency: SimDuration::from_millis(1),
            shard_workers: 0,
        }
    }

    /// A small desktop machine with a light load — fast, for tests and docs.
    pub fn small(seed: u64) -> Self {
        Lab {
            topo: Arc::new(Topology::desktop_8c()),
            engine_params: EngineParams::default(),
            seed,
            users: 48,
            think: SimDuration::from_millis(10),
            warmup: SimDuration::from_millis(300),
            measure: SimDuration::from_millis(800),
            checkpoint: false,
            shards: 1,
            shard_cross_permille: 50,
            shard_latency: SimDuration::from_millis(1),
            shard_workers: 0,
        }
    }

    /// Overrides the user population.
    pub fn with_users(mut self, users: u64) -> Self {
        self.users = users;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Routes every closed-loop run through snapshot-at-warmup + resume.
    pub fn with_checkpoint(mut self, checkpoint: bool) -> Self {
        self.checkpoint = checkpoint;
        self
    }

    /// Overrides the shard (cell) count; `1` keeps the serial engine.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(mut self, shards: u32) -> Self {
        assert!(shards >= 1, "a run needs at least one shard");
        self.shards = shards;
        self
    }

    /// Overrides the sharded worker-thread count (`0` = one per core).
    pub fn with_shard_workers(mut self, workers: usize) -> Self {
        self.shard_workers = workers;
        self
    }

    fn horizon(&self) -> SimTime {
        // Generous slack beyond warm-up + measurement; the STOP timer ends
        // the run first in any healthy configuration.
        SimTime::ZERO + (self.warmup + self.measure) * 4
    }

    /// Builds the engine + closed-loop driver pair every closed-loop entry
    /// point shares. Snapshot and resume must construct *identical* engines,
    /// so there is exactly one place that does it.
    fn build_closed(
        &self,
        app: &AppSpec,
        deployment: Deployment,
        lb: LbPolicy,
    ) -> (Engine, ClosedLoop) {
        let mix: Vec<f64> = app.classes().iter().map(|c| c.weight).collect();
        let mut params = self.engine_params.clone();
        params.lb = lb;
        let engine = Engine::new(
            self.topo.clone(),
            params,
            app.clone(),
            deployment,
            self.seed,
        );
        let load = ClosedLoop::new(self.users)
            .think_time(self.think)
            .mix(&mix)
            .warmup(self.warmup)
            .measure(self.measure);
        (engine, load)
    }

    fn shard_spec(&self) -> ShardSpec {
        ShardSpec {
            cells: self.shards,
            cross_permille: self.shard_cross_permille,
            latency: self.shard_latency,
        }
    }

    fn shard_workers_resolved(&self) -> usize {
        if self.shard_workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.shard_workers
        }
    }

    /// Builds the per-cell engines + closed-loop slices of a sharded run.
    /// Cell `c` is seeded with [`mix_seed`]`(seed, c)` and drives
    /// `users / shards` users (earlier cells absorb the remainder).
    fn build_closed_cells(
        &self,
        app: &AppSpec,
        deployment: &Deployment,
        lb: LbPolicy,
    ) -> ShardedRun<ClosedLoop> {
        assert!(
            self.users >= u64::from(self.shards),
            "{} users cannot populate {} shards",
            self.users,
            self.shards
        );
        let mix: Vec<f64> = app.classes().iter().map(|c| c.weight).collect();
        let cells = (0..self.shards)
            .map(|c| {
                let mut params = self.engine_params.clone();
                params.lb = lb;
                let engine = Engine::new(
                    self.topo.clone(),
                    params,
                    app.clone(),
                    deployment.clone(),
                    mix_seed(self.seed, c),
                );
                let users = self.users / u64::from(self.shards)
                    + u64::from(u64::from(c) < self.users % u64::from(self.shards));
                let load = ClosedLoop::new(users)
                    .think_time(self.think)
                    .mix(&mix)
                    .warmup(self.warmup)
                    .measure(self.measure);
                (engine, load)
            })
            .collect();
        ShardedRun::new(cells, self.shard_spec())
    }

    /// Runs a sharded closed-loop measurement; with `checkpoint` set the run
    /// detours through a barrier snapshot at the end of warm-up and resumes
    /// into freshly built cells, exactly like the serial checkpoint path.
    fn run_app_sharded(&self, app: &AppSpec, deployment: Deployment, lb: LbPolicy) -> RunReport {
        let workers = self.shard_workers_resolved();
        let mut run = self.build_closed_cells(app, &deployment, lb);
        if self.checkpoint {
            run.run(SimTime::ZERO + self.warmup, workers);
            let mut w = SnapWriter::new();
            run.snap_save(&mut w);
            let bytes = w.finish();
            let mut resumed = self.build_closed_cells(app, &deployment, lb);
            let mut r = SnapReader::new(&bytes)
                .expect("a snapshot taken in-process is well-formed");
            resumed
                .snap_restore(&mut r)
                .expect("a snapshot taken in-process restores into the same config");
            resumed.run(self.horizon(), workers);
            return resumed.report();
        }
        run.run(self.horizon(), workers);
        run.report()
    }

    /// Runs `app` as `deployment` under the lab's closed-loop load, with the
    /// mix taken from the app's class weights.
    pub fn run_app(&self, app: &AppSpec, deployment: Deployment, lb: LbPolicy) -> RunReport {
        if self.shards > 1 {
            return self.run_app_sharded(app, deployment, lb);
        }
        if self.checkpoint {
            let bytes = self.snapshot_app(app, deployment.clone(), lb, SimTime::ZERO + self.warmup);
            return self
                .resume_app(app, deployment, lb, &bytes)
                .expect("a snapshot taken in-process restores into the same config");
        }
        let (mut engine, mut load) = self.build_closed(app, deployment, lb);
        engine.run(&mut load, self.horizon());
        engine.report()
    }

    /// Runs `app` under the lab's closed-loop load until `at` and returns
    /// the serialized state of the run (engine and driver) at that instant.
    ///
    /// The snapshot can be resumed ([`Lab::resume_app`]) or forked
    /// ([`Lab::branch_app`]) any number of times; each consumer rebuilds the
    /// engine from the same `(app, deployment, lb)` configuration.
    pub fn snapshot_app(
        &self,
        app: &AppSpec,
        deployment: Deployment,
        lb: LbPolicy,
        at: SimTime,
    ) -> Vec<u8> {
        let (mut engine, mut load) = self.build_closed(app, deployment, lb);
        engine.run(&mut load, at);
        let mut w = SnapWriter::new();
        engine.snap_save(&mut w);
        load.snap_save(&mut w);
        w.finish()
    }

    /// Resumes a [`Lab::snapshot_app`] checkpoint and runs it to completion.
    ///
    /// `app`, `deployment`, and `lb` must match what the snapshot was taken
    /// from; a mismatch is rejected with a [`SnapError`] diagnostic.
    pub fn resume_app(
        &self,
        app: &AppSpec,
        deployment: Deployment,
        lb: LbPolicy,
        bytes: &[u8],
    ) -> Result<RunReport, SnapError> {
        self.branch_app(app, deployment, lb, bytes, &BranchOverrides::default())
    }

    /// Resumes a checkpoint with [`BranchOverrides`] applied at the fork
    /// point: the branched run shares the checkpoint's entire history and
    /// diverges only through the overrides.
    pub fn branch_app(
        &self,
        app: &AppSpec,
        deployment: Deployment,
        lb: LbPolicy,
        bytes: &[u8],
        overrides: &BranchOverrides,
    ) -> Result<RunReport, SnapError> {
        let (mut engine, mut load) = self.build_closed(app, deployment, lb);
        let mut r = SnapReader::new(bytes)?;
        engine.snap_restore(&mut r)?;
        load.snap_restore(&mut r)?;
        Self::apply_overrides(&mut engine, overrides);
        engine.run_resumed(&mut load, self.horizon());
        Ok(engine.report())
    }

    /// Applies [`BranchOverrides`] to a freshly restored engine.
    fn apply_overrides(engine: &mut Engine, overrides: &BranchOverrides) {
        if let Some(salt) = overrides.reseed {
            engine.perturb_rngs(salt);
        }
        if let Some(scale) = overrides.demand_scale {
            engine.apply_demand_scale(scale);
        }
        if let Some(faults) = &overrides.faults {
            engine.install_fault_plan(faults.clone());
        }
    }

    /// Builds the engine + open-loop driver pair (see [`Lab::build_closed`]).
    fn build_open(
        &self,
        app: &AppSpec,
        deployment: Deployment,
        lb: LbPolicy,
        rate_rps: f64,
    ) -> (Engine, OpenLoop) {
        let mix: Vec<f64> = app.classes().iter().map(|c| c.weight).collect();
        let mut params = self.engine_params.clone();
        params.lb = lb;
        let engine = Engine::new(
            self.topo.clone(),
            params,
            app.clone(),
            deployment,
            self.seed,
        );
        let load = OpenLoop::new(rate_rps)
            .mix(&mix)
            .warmup(self.warmup)
            .measure(self.measure);
        (engine, load)
    }

    /// Builds the per-cell engines + open-loop slices of a sharded run;
    /// each cell sources `rate_rps / shards` arrivals per second.
    fn build_open_cells(
        &self,
        app: &AppSpec,
        deployment: &Deployment,
        lb: LbPolicy,
        rate_rps: f64,
    ) -> ShardedRun<OpenLoop> {
        let mix: Vec<f64> = app.classes().iter().map(|c| c.weight).collect();
        let cells = (0..self.shards)
            .map(|c| {
                let mut params = self.engine_params.clone();
                params.lb = lb;
                let engine = Engine::new(
                    self.topo.clone(),
                    params,
                    app.clone(),
                    deployment.clone(),
                    mix_seed(self.seed, c),
                );
                let load = OpenLoop::new(rate_rps / f64::from(self.shards))
                    .mix(&mix)
                    .warmup(self.warmup)
                    .measure(self.measure);
                (engine, load)
            })
            .collect();
        ShardedRun::new(cells, self.shard_spec())
    }

    /// Runs `app` under an open-loop Poisson load at `rate_rps`.
    pub fn run_app_open(
        &self,
        app: &AppSpec,
        deployment: Deployment,
        lb: LbPolicy,
        rate_rps: f64,
    ) -> RunReport {
        if self.shards > 1 {
            let workers = self.shard_workers_resolved();
            let mut run = self.build_open_cells(app, &deployment, lb, rate_rps);
            run.run(self.horizon(), workers);
            return run.report();
        }
        if self.checkpoint {
            // Snapshot at the end of warm-up, then resume into a freshly
            // built engine — the open-loop twin of the run_app dance.
            let (mut engine, mut load) = self.build_open(app, deployment.clone(), lb, rate_rps);
            engine.run(&mut load, SimTime::ZERO + self.warmup);
            let mut w = SnapWriter::new();
            engine.snap_save(&mut w);
            load.snap_save(&mut w);
            let bytes = w.finish();
            let (mut engine, mut load) = self.build_open(app, deployment, lb, rate_rps);
            let mut r = SnapReader::new(&bytes)
                .expect("a snapshot taken in-process is well-formed");
            engine
                .snap_restore(&mut r)
                .expect("a snapshot taken in-process restores into the same config");
            load.snap_restore(&mut r)
                .expect("a snapshot taken in-process restores into the same driver");
            engine.run_resumed(&mut load, self.horizon());
            return engine.report();
        }
        let (mut engine, mut load) = self.build_open(app, deployment, lb, rate_rps);
        engine.run(&mut load, self.horizon());
        engine.report()
    }

    /// Runs `app` under the open-loop load until `at` and returns the
    /// serialized state of the run — the open-loop twin of
    /// [`Lab::snapshot_app`]. Consumers rebuild the engine from the same
    /// `(app, deployment, lb, rate_rps)` configuration and resume or fork
    /// via [`Lab::branch_app_open`].
    pub fn snapshot_app_open(
        &self,
        app: &AppSpec,
        deployment: Deployment,
        lb: LbPolicy,
        rate_rps: f64,
        at: SimTime,
    ) -> Vec<u8> {
        let (mut engine, mut load) = self.build_open(app, deployment, lb, rate_rps);
        engine.run(&mut load, at);
        let mut w = SnapWriter::new();
        engine.snap_save(&mut w);
        load.snap_save(&mut w);
        w.finish()
    }

    /// Resumes a [`Lab::snapshot_app_open`] checkpoint with
    /// [`BranchOverrides`] applied at the fork point and runs it to
    /// completion. `app`, `deployment`, `lb`, and `rate_rps` must match what
    /// the snapshot was taken from; a mismatch is rejected with a
    /// [`SnapError`] diagnostic.
    pub fn branch_app_open(
        &self,
        app: &AppSpec,
        deployment: Deployment,
        lb: LbPolicy,
        rate_rps: f64,
        bytes: &[u8],
        overrides: &BranchOverrides,
    ) -> Result<RunReport, SnapError> {
        let (mut engine, mut load) = self.build_open(app, deployment, lb, rate_rps);
        let mut r = SnapReader::new(bytes)?;
        engine.snap_restore(&mut r)?;
        load.snap_restore(&mut r)?;
        Self::apply_overrides(&mut engine, overrides);
        engine.run_resumed(&mut load, self.horizon());
        Ok(engine.report())
    }

    /// Places TeaStore with `policy` (see [`Policy::deploy`]) and runs it.
    ///
    /// `replicas` is per-service (ignored by
    /// [`Policy::TopologyAware`], which derives its own replication).
    pub fn run_policy(&self, store: &TeaStore, policy: Policy, replicas: &[usize]) -> RunReport {
        let placed = policy.deploy(store.app(), &self.topo, replicas);
        self.run_placed(store.app(), placed)
    }

    /// Runs a pre-built [`PlacedDeployment`].
    pub fn run_placed(&self, app: &AppSpec, placed: PlacedDeployment) -> RunReport {
        self.run_app(app, placed.deployment, placed.lb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microsvc::{CallNode, Demand, ServiceSpec};
    use uarch::ServiceProfile;

    fn tiny_app() -> AppSpec {
        let mut app = AppSpec::new();
        let svc = app.add_service(ServiceSpec::new("api", ServiceProfile::light_rpc("api")));
        app.add_class("ping", 1.0, CallNode::leaf(svc, Demand::fixed_us(250.0)));
        app
    }

    #[test]
    fn closed_loop_run_produces_throughput() {
        let lab = Lab::small(1);
        let app = tiny_app();
        let deployment = Deployment::uniform(&app, &lab.topo, 2, 8);
        let report = lab.run_app(&app, deployment, LbPolicy::RoundRobin);
        assert!(report.completed > 100);
        assert!(report.throughput_rps > 500.0);
        assert!((report.window.as_secs_f64() - 0.8).abs() < 0.05);
    }

    #[test]
    fn open_loop_run_hits_rate() {
        let lab = Lab::small(2);
        let app = tiny_app();
        let deployment = Deployment::uniform(&app, &lab.topo, 2, 8);
        let report = lab.run_app_open(&app, deployment, LbPolicy::RoundRobin, 1500.0);
        assert!((report.throughput_rps - 1500.0).abs() / 1500.0 < 0.15);
    }

    #[test]
    fn runs_are_deterministic() {
        let lab = Lab::small(3);
        let app = tiny_app();
        let d1 = Deployment::uniform(&app, &lab.topo, 2, 4);
        let d2 = Deployment::uniform(&app, &lab.topo, 2, 4);
        let r1 = lab.run_app(&app, d1, LbPolicy::RoundRobin);
        let r2 = lab.run_app(&app, d2, LbPolicy::RoundRobin);
        assert_eq!(r1.completed, r2.completed);
        assert_eq!(r1.mean_latency, r2.mean_latency);
    }

    #[test]
    fn teastore_runs_on_small_lab() {
        let lab = Lab::small(4).with_users(24);
        let store = teastore::TeaStore::with_demand_scale(0.25);
        let report = lab.run_policy(&store, Policy::Unpinned, &[2, 1, 1, 1, 1, 1, 1]);
        assert!(report.completed > 50, "completed {}", report.completed);
        assert!(report.services.iter().any(|s| s.jobs_completed > 0));
    }

    #[test]
    fn checkpointed_run_matches_straight_run() {
        let lab = Lab::small(5);
        let app = tiny_app();
        let d1 = Deployment::uniform(&app, &lab.topo, 2, 4);
        let d2 = Deployment::uniform(&app, &lab.topo, 2, 4);
        let straight = lab.run_app(&app, d1, LbPolicy::RoundRobin);
        let checked = lab
            .with_checkpoint(true)
            .run_app(&app, d2, LbPolicy::RoundRobin);
        assert_eq!(straight.completed, checked.completed);
        assert_eq!(straight.mean_latency, checked.mean_latency);
        assert_eq!(straight.latency_p99, checked.latency_p99);
        assert_eq!(straight.events_processed, checked.events_processed);
    }

    #[test]
    fn branches_fork_deterministically() {
        let lab = Lab::small(6);
        let app = tiny_app();
        let deploy = || Deployment::uniform(&app, &lab.topo, 2, 4);
        let bytes = lab.snapshot_app(
            &app,
            deploy(),
            LbPolicy::RoundRobin,
            SimTime::ZERO + lab.warmup,
        );
        let fork = |salt| {
            lab.branch_app(
                &app,
                deploy(),
                LbPolicy::RoundRobin,
                &bytes,
                &BranchOverrides {
                    reseed: Some(salt),
                    demand_scale: None,
                    faults: None,
                },
            )
            .expect("branch restores")
        };
        let a1 = fork(1);
        let a2 = fork(1);
        assert_eq!(a1.completed, a2.completed, "same salt, same fork");
        assert_eq!(a1.mean_latency, a2.mean_latency);
        let b = fork(2);
        assert!(
            a1.mean_latency != b.mean_latency || a1.completed != b.completed,
            "different salts must explore different trajectories"
        );
    }

    #[test]
    fn branch_demand_scale_slows_the_fork() {
        let lab = Lab::small(7);
        let app = tiny_app();
        let deploy = || Deployment::uniform(&app, &lab.topo, 2, 4);
        let bytes = lab.snapshot_app(
            &app,
            deploy(),
            LbPolicy::RoundRobin,
            SimTime::ZERO + lab.warmup,
        );
        let run = |scale| {
            lab.branch_app(
                &app,
                deploy(),
                LbPolicy::RoundRobin,
                &bytes,
                &BranchOverrides {
                    reseed: None,
                    demand_scale: scale,
                    faults: None,
                },
            )
            .expect("branch restores")
        };
        let base = run(None);
        let slow = run(Some(4.0));
        assert!(
            slow.mean_latency > base.mean_latency,
            "4x demand must raise latency: {} vs {}",
            slow.mean_latency,
            base.mean_latency
        );
    }

    #[test]
    fn resume_rejects_mismatched_deployment() {
        let lab = Lab::small(8);
        let app = tiny_app();
        let bytes = lab.snapshot_app(
            &app,
            Deployment::uniform(&app, &lab.topo, 2, 4),
            LbPolicy::RoundRobin,
            SimTime::ZERO + lab.warmup,
        );
        let err = lab
            .resume_app(
                &app,
                Deployment::uniform(&app, &lab.topo, 1, 4),
                LbPolicy::RoundRobin,
                &bytes,
            )
            .expect_err("a different deployment must be refused");
        assert!(matches!(err, SnapError::Corrupt(_)), "got {err:?}");
    }
}
