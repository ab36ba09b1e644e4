//! One function per reconstructed experiment (E1–E17) plus the ablations.
//!
//! Each function returns a result struct carrying both the key numbers (for
//! assertions in tests and EXPERIMENTS.md bookkeeping) and a rendered text
//! table (what the `repro` binary prints).

use cputopo::{enumerate, TopologyBuilder};
use loadgen::ClosedLoop;
use microsvc::{
    mix_seed, AdmissionPolicy, AppSpec, BreakerPolicy, CallNode, Demand, Deployment, Engine,
    EngineParams, FaultPlan, InstanceConfig, InstanceId, LbPolicy, OverloadParams, PriorityPolicy,
    ResilienceParams, RetryBudgetPolicy, RetryPolicy, RunReport, ServiceId, ServiceSpec,
    ShardSpec, ShardedRun, Tracer,
};
use scaleup::placement::{self, Objective, Policy};
use scaleup::scaling::{self, ScalePoint};
use scaleup::{tuner, Lab, UslFit};
use simcore::{SimDuration, SimTime, SnapReader, SnapWriter};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use teastore::TeaStore;
use uarch::comparison;

/// Experiment configuration: full paper machine or a quick smoke setup.
#[derive(Debug, Clone)]
pub struct Config {
    /// The configured runner.
    pub lab: Lab,
    /// The TeaStore model under test.
    pub store: TeaStore,
    /// Instance budget used to derive the tuned baseline.
    pub baseline_budget: usize,
    /// CPU counts for the E4 sweep.
    pub cpu_counts: Vec<usize>,
    /// User populations for the E3/E5 sweeps.
    pub user_sweep: Vec<u64>,
    /// Replica counts for the E6/E7 sweeps.
    pub replica_sweep: Vec<usize>,
    /// Closed-loop populations for the E24 mega-scale sweep.
    pub mega_users: Vec<u64>,
    /// Closed-loop populations for the E28 shard-scaling sweep.
    pub shard_users: Vec<u64>,
    /// Plans the `repro chaos` search samples (shrinking included).
    pub chaos_plans: u64,
    /// Plans per arm of the E29 mitigation-grid sweep (no shrinking).
    pub chaos_sweep_plans: u64,
    /// Open-loop measurement window of the chaos runs.
    pub chaos_measure: SimDuration,
}

impl Config {
    /// The full 2P/256-CPU configuration the headline numbers use.
    pub fn paper(seed: u64) -> Self {
        Config {
            lab: Lab::paper_machine(seed).with_users(4096),
            store: TeaStore::browse(),
            baseline_budget: 64,
            cpu_counts: vec![8, 16, 32, 64, 96, 128, 160, 192, 224, 256],
            user_sweep: vec![128, 256, 512, 1024, 2048, 4096],
            replica_sweep: vec![1, 2, 4, 8, 16, 24],
            mega_users: vec![1_000, 10_000, 100_000, 1_000_000],
            shard_users: vec![1_000_000, 10_000_000],
            chaos_plans: 48,
            chaos_sweep_plans: 24,
            chaos_measure: SimDuration::from_secs(6),
        }
    }

    /// A fast desktop-scale configuration with the same experiment shapes.
    pub fn quick(seed: u64) -> Self {
        Config {
            lab: Lab::small(seed).with_users(128),
            store: TeaStore::with_demand_scale(0.25),
            baseline_budget: 12,
            cpu_counts: vec![2, 4, 8, 16],
            user_sweep: vec![16, 32, 64, 128],
            replica_sweep: vec![1, 2, 4],
            mega_users: vec![1_000, 10_000, 100_000],
            shard_users: vec![10_000, 100_000],
            chaos_plans: 24,
            chaos_sweep_plans: 10,
            chaos_measure: SimDuration::from_secs(4),
        }
    }

    /// The tuned per-service replica counts used as the baseline everywhere.
    pub fn baseline_replicas(&self) -> Vec<usize> {
        tuner::proportional_replicas(self.store.app(), self.baseline_budget)
    }
}

fn ratio_pct(new: f64, old: f64) -> f64 {
    100.0 * (new / old - 1.0)
}

// ------------------------------------------------------------------ E1 / E2

/// E1 — the platform-configuration table.
pub fn e1(config: &Config) -> String {
    format!(
        "E1: platform configuration\n{}\n",
        config.lab.topo.summary()
    )
}

/// E2 — TeaStore services, profiles and the request mix.
pub fn e2(config: &Config) -> String {
    let mut out = format!("E2: TeaStore services\n{}", config.store.service_table());
    out.push_str("\nrequest mix (browse profile):\n");
    for class in config.store.app().classes() {
        let _ = writeln!(out, "  {:<12} {:>5.1}%", class.name, class.weight * 100.0);
    }
    out
}

// ---------------------------------------------------------------------- E3

/// E3 result: throughput/latency vs. closed-loop users.
#[derive(Debug, Clone)]
pub struct LoadCurve {
    /// `(users, report)` pairs in sweep order.
    pub points: Vec<(u64, RunReport)>,
    /// Rendered table.
    pub table: String,
}

/// E3 — throughput and latency vs. offered closed-loop load (tuned baseline).
pub fn e3(config: &Config) -> LoadCurve {
    let replicas = config.baseline_replicas();
    let points: Vec<(u64, RunReport)> = scaleup::par::map(config.user_sweep.clone(), |users| {
        let lab = config.lab.clone().with_users(users);
        (users, lab.run_policy(&config.store, Policy::Unpinned, &replicas))
    });
    let mut table = String::from(
        "E3: load curve (tuned unpinned baseline)\n users       req/s     mean      p95      p99   util%\n",
    );
    for (users, report) in &points {
        let _ = writeln!(
            table,
            "{:>6} {:>11.0} {:>8} {:>8} {:>8} {:>6.1}",
            users,
            report.throughput_rps,
            report.mean_latency,
            report.latency_p95,
            report.latency_p99,
            report.cpu_utilization * 100.0
        );
    }
    LoadCurve { points, table }
}

// ---------------------------------------------------------------------- E4

/// E4 result: the scale-up curve with its USL fit.
#[derive(Debug, Clone)]
pub struct ScaleupCurve {
    /// Points of the sweep.
    pub points: Vec<ScalePoint>,
    /// USL fit over the points.
    pub fit: UslFit,
    /// Rendered table.
    pub table: String,
}

/// E4 — throughput vs. enabled logical CPUs (cores-first enumeration).
pub fn e4(config: &Config) -> ScaleupCurve {
    let replicas = config.baseline_replicas();
    let order = enumerate::cores_first(&config.lab.topo);
    let points: Vec<ScalePoint> = scaleup::par::map(config.cpu_counts.clone(), |count| {
        // Scale offered load with machine size so small masks saturate
        // without drowning in queueing.
        let users = (count as u64 * 24).clamp(64, config.lab.users);
        let lab = config.lab.clone().with_users(users);
        let mut pts =
            scaling::throughput_vs_cpus(&lab, config.store.app(), &order, &[count], &replicas);
        pts.remove(0)
    });
    let fit = scaling::fit_curve(&points);
    let mut table = scaling::curve_table("E4: scale-up — throughput vs logical CPUs", &points);
    let _ = writeln!(
        table,
        "USL fit: λ={:.1} req/s/cpu σ={:.4} κ={:.6} R²={:.3} peak≈{}",
        fit.lambda,
        fit.sigma,
        fit.kappa,
        fit.r_squared,
        fit.peak()
            .map(|p| format!("{p:.0} cpus"))
            .unwrap_or_else(|| "monotone".to_owned()),
    );
    ScaleupCurve { points, fit, table }
}

// ---------------------------------------------------------------------- E5

/// E5 — per-service CPU utilization vs. load.
pub fn e5(config: &Config) -> String {
    let replicas = config.baseline_replicas();
    let names: Vec<String> = config
        .store
        .app()
        .services()
        .iter()
        .map(|s| s.name.clone())
        .collect();
    let mut out = String::from("E5: per-service busy CPUs vs load\n users ");
    for n in &names {
        let _ = write!(out, "{:>12}", n);
    }
    out.push('\n');
    let reports = scaleup::par::map(config.user_sweep.clone(), |users| {
        let lab = config.lab.clone().with_users(users);
        lab.run_policy(&config.store, Policy::Unpinned, &replicas)
    });
    for (&users, report) in config.user_sweep.iter().zip(&reports) {
        let _ = write!(out, "{users:>6} ");
        for s in &report.services {
            let _ = write!(out, "{:>12.1}", s.avg_busy_cpus);
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------- E6

/// E6 result: per-service scaling curves and fits.
#[derive(Debug, Clone)]
pub struct ServiceScaling {
    /// `(service name, points, fit)` per scaled service.
    pub services: Vec<(String, Vec<ScalePoint>, UslFit)>,
    /// Rendered table.
    pub table: String,
}

/// E6 — per-service scaling: replicate one service at a time, fit the USL.
pub fn e6(config: &Config) -> ServiceScaling {
    let base = config.baseline_replicas();
    let s = config.store.services();
    let scaled: Vec<(&str, ServiceId)> = vec![
        ("webui", s.webui),
        ("auth", s.auth),
        ("persistence", s.persistence),
        ("recommender", s.recommender),
        ("image", s.image),
    ];
    let mut services = Vec::new();
    let mut table = String::from(
        "E6: per-service scaling (USL per service)\nservice        λ(req/s/repl)        σ          κ       R²   peak\n",
    );
    for (name, id) in scaled {
        let points = scaling::service_scaling(
            &config.lab,
            config.store.app(),
            id,
            &config.replica_sweep,
            &base,
        );
        let fit = scaling::fit_curve(&points);
        let _ = writeln!(
            table,
            "{:<14} {:>12.1} {:>10.4} {:>10.6} {:>8.3}   {}",
            name,
            fit.lambda,
            fit.sigma,
            fit.kappa,
            fit.r_squared,
            fit.peak()
                .map(|p| format!("{p:.0}"))
                .unwrap_or_else(|| "—".to_owned()),
        );
        services.push((name.to_owned(), points, fit));
    }
    ServiceScaling { services, table }
}

// ---------------------------------------------------------------------- E7

/// E7 — replica tuning of the bottleneck service (WebUI sweep + tuner run).
pub fn e7(config: &Config) -> String {
    let base = config.baseline_replicas();
    let webui = config.store.services().webui;
    let b = base[webui.index()];
    let mut counts: Vec<usize> = [b / 4, b / 2, (3 * b) / 4, b, b + b / 4, b + b / 2]
        .into_iter()
        .map(|c| c.max(1))
        .collect();
    counts.dedup();
    let points = scaling::service_scaling(&config.lab, config.store.app(), webui, &counts, &base);
    let mut out = scaling::curve_table("E7: WebUI replica sweep (others at baseline)", &points);
    // The measured-feedback tuner, starting from a deliberately small seed.
    let seed = tuner::proportional_replicas(config.store.app(), config.baseline_budget / 2);
    let outcome = tuner::tune(&config.lab, &config.store, &seed, 4);
    let _ = writeln!(
        out,
        "tuner: seed {:?} -> tuned {:?}\n       throughput trajectory: {:?}",
        seed,
        outcome.replicas,
        outcome
            .throughput_history
            .iter()
            .map(|t| t.round())
            .collect::<Vec<_>>(),
    );
    out
}

// ---------------------------------------------------------------------- E8

/// E8 result: the placement-policy comparison (headline).
#[derive(Debug, Clone)]
pub struct PlacementComparison {
    /// `(policy name, first-seed report)` rows.
    pub rows: Vec<(String, RunReport)>,
    /// Replicated throughput summaries (mean ± CI over the seed set).
    pub throughput: Vec<scaleup::replicate::Summary>,
    /// Throughput uplift of topology-aware over the tuned baseline, percent
    /// (on replicated means).
    pub uplift_pct: f64,
    /// Mean-latency reduction of topology-aware over the baseline, percent.
    pub latency_reduction_pct: f64,
    /// Rendered table.
    pub table: String,
}

/// E8 — placement policies at saturation (headline: ≈ +22% throughput).
///
/// Each policy is replicated under three seeds (run in parallel); the table
/// reports the mean with a 95% confidence half-width.
pub fn e8(config: &Config) -> PlacementComparison {
    let replicas = config.baseline_replicas();
    let seeds = [config.lab.seed, config.lab.seed + 1, config.lab.seed + 2];
    let policies: Vec<(Policy, Vec<usize>)> = vec![
        (Policy::Unpinned, replicas.clone()),
        (Policy::Packed, replicas.clone()),
        (Policy::SpreadSockets, replicas.clone()),
        (Policy::CcxAware, replicas.clone()),
        (Policy::NumaAware, replicas.clone()),
        (Policy::TopologyAware { ccxs: None }, vec![]),
    ];
    let mut rows = Vec::new();
    let mut throughput = Vec::new();
    let mut latency_means = Vec::new();
    for (policy, reps) in policies {
        let reports =
            scaleup::replicate::run_seeds(&config.lab, &config.store, policy, &reps, &seeds);
        let x: Vec<f64> = reports.iter().map(|r| r.throughput_rps).collect();
        let lat: Vec<f64> = reports
            .iter()
            .map(|r| r.mean_latency.as_micros_f64())
            .collect();
        throughput.push(scaleup::replicate::Summary::of(&x));
        latency_means.push(scaleup::replicate::Summary::of(&lat));
        rows.push((
            policy.name().to_owned(),
            reports.into_iter().next().expect("at least one seed"),
        ));
    }
    let uplift_pct = ratio_pct(
        throughput.last().expect("has rows").mean,
        throughput[0].mean,
    );
    let latency_reduction_pct = -ratio_pct(
        latency_means.last().expect("has rows").mean,
        latency_means[0].mean,
    );
    let mut table = String::from(
        "E8: placement policies at saturation (3 seeds each)\npolicy                        req/s        mean µs      p95    util%   vs baseline\n",
    );
    for (i, (name, r)) in rows.iter().enumerate() {
        let _ = writeln!(
            table,
            "{:<18} {:>16} {:>14} {:>8} {:>7.1} {:>+11.1}%",
            name,
            throughput[i].display(""),
            latency_means[i].display(""),
            r.latency_p95,
            r.cpu_utilization * 100.0,
            ratio_pct(throughput[i].mean, throughput[0].mean),
        );
    }
    let _ = writeln!(
        table,
        "headline: throughput {uplift_pct:+.1}%, mean latency {:+.1}% (paper: +22%, −18%)",
        -latency_reduction_pct
    );
    PlacementComparison {
        rows,
        throughput,
        uplift_pct,
        latency_reduction_pct,
        table,
    }
}

// ---------------------------------------------------------------------- E9

/// E9 result: latency percentiles at matched offered load.
#[derive(Debug, Clone)]
pub struct LatencyComparison {
    /// `(fraction of baseline saturation, baseline report, optimized report)`.
    pub points: Vec<(f64, RunReport, RunReport)>,
    /// Mean latency reduction at the highest swept load, percent.
    pub mean_reduction_pct: f64,
    /// Rendered table.
    pub table: String,
}

/// E9 — latency vs. matched offered load (open loop), baseline vs.
/// topology-aware. Thread-pool pooling keeps baseline latency flat until
/// ~90% of saturation; the headline −18% appears near the peak operating
/// point (95%), where the baseline queues and the optimized placement still
/// has headroom.
pub fn e9(config: &Config) -> LatencyComparison {
    let replicas = config.baseline_replicas();
    let sat = config
        .lab
        .run_policy(&config.store, Policy::Unpinned, &replicas)
        .throughput_rps;

    let fractions = [0.70, 0.85, 0.95];
    let points: Vec<(f64, RunReport, RunReport)> =
        scaleup::par::map(fractions.to_vec(), |f| {
            let rate = sat * f;
            let base_placed =
                Policy::Unpinned.deploy(config.store.app(), &config.lab.topo, &replicas);
            let baseline = config.lab.run_app_open(
                config.store.app(),
                base_placed.deployment,
                base_placed.lb,
                rate,
            );
            let topo_placed = Policy::TopologyAware { ccxs: None }.deploy(
                config.store.app(),
                &config.lab.topo,
                &[],
            );
            let optimized = config.lab.run_app_open(
                config.store.app(),
                topo_placed.deployment,
                topo_placed.lb,
                rate,
            );
            (f, baseline, optimized)
        });
    let mut table = format!(
        "E9: latency at matched open load (baseline saturation {sat:.0} req/s)\n  load   config               mean      p50      p95      p99\n"
    );
    for (f, baseline, optimized) in &points {
        for (name, r) in [("baseline", baseline), ("topology-aware", optimized)] {
            let _ = writeln!(
                table,
                "  {:>3.0}%   {:<18} {:>8} {:>8} {:>8} {:>8}",
                f * 100.0,
                name,
                r.mean_latency,
                r.latency_p50,
                r.latency_p95,
                r.latency_p99
            );
        }
    }
    let (_, base_hi, opt_hi) = points.last().expect("swept at least one load");
    let mean_reduction_pct = -ratio_pct(
        opt_hi.mean_latency.as_secs_f64(),
        base_hi.mean_latency.as_secs_f64(),
    );
    let _ = writeln!(
        table,
        "headline at 95% load: mean latency {:+.1}% (paper: −18%)",
        -mean_reduction_pct
    );
    LatencyComparison {
        points,
        mean_reduction_pct,
        table,
    }
}

// --------------------------------------------------------------------- E10

/// E10 result: the SMT study.
#[derive(Debug, Clone)]
pub struct SmtStudy {
    /// TeaStore throughput with SMT2 (tuned baseline placement).
    pub smt2_rps: f64,
    /// TeaStore throughput with SMT off.
    pub smt1_rps: f64,
    /// Compute-bound contrast throughput with SMT2.
    pub compute_smt2_rps: f64,
    /// Compute-bound contrast throughput with SMT off.
    pub compute_smt1_rps: f64,
    /// Rendered table.
    pub table: String,
}

fn smt_off_variant(topo: &cputopo::Topology) -> Arc<cputopo::Topology> {
    let spec = topo.spec().clone();
    Arc::new(
        TopologyBuilder::new(&format!("{} (SMT off)", spec.name))
            .sockets(spec.sockets)
            .numa_per_socket(spec.numa_per_socket)
            .ccds_per_numa(spec.ccds_per_numa)
            .ccxs_per_ccd(spec.ccxs_per_ccd)
            .cores_per_ccx(spec.cores_per_ccx)
            .threads_per_core(1)
            .freq_ghz(spec.freq_ghz)
            .caches(spec.caches)
            .build(),
    )
}

/// A CPU-bound single-service contrast workload (SPECint-rate-like).
fn compute_bound_app() -> AppSpec {
    let mut app = AppSpec::new();
    let svc =
        app.add_service(ServiceSpec::new("kernel", comparison::spec_int_like()).with_threads(4));
    app.add_class("unit", 1.0, CallNode::leaf(svc, Demand::fixed_us(500.0)));
    app
}

/// E10 — SMT on vs. off at equal core count: TeaStore (tuned placement)
/// vs. a compute-bound contrast. Microservices bank much less of SMT's
/// nominal ~1.24× than compute kernels do.
pub fn e10(config: &Config) -> SmtStudy {
    let smt1_topo = smt_off_variant(&config.lab.topo);
    // TeaStore rows use the topology-aware placement so the comparison is
    // not polluted by unpinned-scheduler noise.
    let tea = |topo: &Arc<cputopo::Topology>| {
        let mut lab = config.lab.clone();
        lab.topo = topo.clone();
        lab.run_policy(&config.store, Policy::TopologyAware { ccxs: None }, &[])
            .throughput_rps
    };
    let smt2_rps = tea(&config.lab.topo);
    let smt1_rps = tea(&smt1_topo);
    // Unpinned contrast: without placement control, SMT's extra threads are
    // burned on cache interference and migrations.
    let replicas = config.baseline_replicas();
    let tea_unpinned = |topo: &Arc<cputopo::Topology>| {
        let mut lab = config.lab.clone();
        lab.topo = topo.clone();
        lab.run_policy(&config.store, Policy::Unpinned, &replicas)
            .throughput_rps
    };
    let unpinned_smt2 = tea_unpinned(&config.lab.topo);
    let unpinned_smt1 = tea_unpinned(&smt1_topo);

    // Compute contrast: one instance per CCX, pool = its logical CPUs.
    let compute = |topo: &Arc<cputopo::Topology>| {
        let app = compute_bound_app();
        let per_ccx = topo.num_cpus() / topo.num_ccxs();
        let mut deployment = Deployment::empty(&app);
        for ccx in 0..topo.num_ccxs() as u32 {
            deployment.add_instance(
                ServiceId(0),
                InstanceConfig {
                    affinity: topo.cpus_in_ccx(cputopo::CcxId(ccx)).clone(),
                    threads: per_ccx,
                    mem_node: None,
                },
            );
        }
        let mut lab = config.lab.clone();
        lab.topo = topo.clone();
        lab.run_app(&app, deployment, LbPolicy::LeastOutstanding)
            .throughput_rps
    };
    let compute_smt2_rps = compute(&config.lab.topo);
    let compute_smt1_rps = compute(&smt1_topo);

    let table = format!(
        "E10: SMT study at equal core count\nworkload               SMT1 req/s   SMT2 req/s   SMT gain\n{:<20} {:>12.0} {:>12.0} {:>9.2}×\n{:<20} {:>12.0} {:>12.0} {:>9.2}×\n{:<20} {:>12.0} {:>12.0} {:>9.2}×\n(nominal SMT2 core throughput is ~1.24× in the µarch model)\n",
        "teastore (unpinned)",
        unpinned_smt1,
        unpinned_smt2,
        unpinned_smt2 / unpinned_smt1,
        "teastore (topo)",
        smt1_rps,
        smt2_rps,
        smt2_rps / smt1_rps,
        "compute-bound",
        compute_smt1_rps,
        compute_smt2_rps,
        compute_smt2_rps / compute_smt1_rps,
    );
    SmtStudy {
        smt2_rps,
        smt1_rps,
        compute_smt2_rps,
        compute_smt1_rps,
        table,
    }
}

// --------------------------------------------------------------------- E11

/// E11 result: the NUMA locality study.
#[derive(Debug, Clone)]
pub struct NumaStudy {
    /// Throughput with memory local to the compute socket.
    pub local_rps: f64,
    /// Throughput with memory on the remote socket.
    pub remote_rps: f64,
    /// Rendered table.
    pub table: String,
}

/// E11 — local vs. remote memory for a memory-sensitive tier pinned to one
/// socket. Requires a multi-NUMA machine (skipped with a note otherwise).
pub fn e11(config: &Config) -> NumaStudy {
    let topo = &config.lab.topo;
    if topo.num_numas() < 2 {
        return NumaStudy {
            local_rps: 0.0,
            remote_rps: 0.0,
            table: "E11: skipped — machine has a single NUMA node\n".to_owned(),
        };
    }
    // A data-tier-only application pinned to socket 0.
    let mut app = AppSpec::new();
    let svc = app.add_service(
        ServiceSpec::new("datatier", uarch::ServiceProfile::database("datatier")).with_threads(16),
    );
    app.add_class(
        "query",
        1.0,
        CallNode::leaf(svc, Demand::lognormal_us(600.0, 0.35)),
    );
    let socket0 = topo.cpus_in_socket(cputopo::SocketId(0)).clone();
    let run_with_mem = |node: u32| {
        let mut deployment = Deployment::empty(&app);
        for _ in 0..8 {
            deployment.add_instance(
                ServiceId(0),
                InstanceConfig {
                    affinity: socket0.clone(),
                    threads: 32,
                    mem_node: Some(cputopo::NumaId(node)),
                },
            );
        }
        let lab = config.lab.clone().with_users(1024);
        lab.run_app(&app, deployment, LbPolicy::LeastOutstanding)
    };
    let local = run_with_mem(0);
    let remote = run_with_mem((topo.num_numas() - 1) as u32);
    let slowdown = local.throughput_rps / remote.throughput_rps;
    let table = format!(
        "E11: NUMA locality (data tier pinned to socket 0)\nlocal memory:  {:>8.0} req/s  mean {}\nremote memory: {:>8.0} req/s  mean {}\nlocal/remote speedup: {slowdown:.3}×\n",
        local.throughput_rps, local.mean_latency, remote.throughput_rps, remote.mean_latency,
    );
    NumaStudy {
        local_rps: local.throughput_rps,
        remote_rps: remote.throughput_rps,
        table,
    }
}

// --------------------------------------------------------------------- E12

/// E12 — microarchitectural characterization: TeaStore services under load
/// vs. conventional reference workloads.
pub fn e12(config: &Config) -> String {
    let replicas = config.baseline_replicas();
    let report = config
        .lab
        .run_policy(&config.store, Policy::Unpinned, &replicas);
    let mut out = String::from(
        "E12: microarchitectural characterization\nworkload             IPC   L2MPKI   L3MPKI   BRMPKI   FE-bound%  kernel%\n",
    );
    for s in &report.services {
        if s.counters.instructions == 0 {
            continue;
        }
        let m = s.metrics;
        let _ = writeln!(
            out,
            "{:<18} {:>5.2} {:>8.1} {:>8.2} {:>8.1} {:>10.1} {:>8.1}",
            s.name,
            m.ipc,
            m.l2_mpki,
            m.l3_mpki,
            m.branch_mpki,
            m.frontend_bound * 100.0,
            m.kernel_frac * 100.0
        );
    }
    out.push_str("--- reference workloads (solo, reference conditions) ---\n");
    let params = config.lab.engine_params.uarch.clone();
    for profile in comparison::all_reference_workloads() {
        let m = comparison::solo_run(&profile, 1_000_000_000, &params).derive();
        let _ = writeln!(
            out,
            "{:<18} {:>5.2} {:>8.1} {:>8.2} {:>8.1} {:>10.1} {:>8.1}",
            profile.name,
            m.ipc,
            m.l2_mpki,
            m.l3_mpki,
            m.branch_mpki,
            m.frontend_bound * 100.0,
            m.kernel_frac * 100.0
        );
    }
    out
}

// --------------------------------------------------------------------- E13

/// E13 — OS-level behaviour per placement policy.
pub fn e13(config: &Config) -> String {
    let replicas = config.baseline_replicas();
    let policies: Vec<(Policy, Vec<usize>)> = vec![
        (Policy::Unpinned, replicas.clone()),
        (Policy::CcxAware, replicas.clone()),
        (Policy::NumaAware, replicas),
        (Policy::TopologyAware { ccxs: None }, vec![]),
    ];
    let mut out = String::from(
        "E13: scheduler behaviour\npolicy               csw/s      mig/s    steals/s   wakeups/s\n",
    );
    let rows = scaleup::par::map(policies, |(policy, reps)| {
        (policy, config.lab.run_policy(&config.store, policy, &reps))
    });
    for (policy, r) in rows {
        let secs = r.window.as_secs_f64();
        let _ = writeln!(
            out,
            "{:<18} {:>8.0} {:>10.0} {:>11.0} {:>11.0}",
            policy.name(),
            r.sched.context_switches as f64 / secs,
            r.sched.migrations as f64 / secs,
            r.sched.steals as f64 / secs,
            r.sched.wakeups as f64 / secs,
        );
    }
    out
}

// ----------------------------------------------------------- E14 / E15

/// E14 — opportunistic frequency boost: does it change the scale-up story?
///
/// Runs the tuned baseline and the topology-aware placement, each with the
/// boost model off (calibrated default) and with a Rome-like curve, at a
/// moderate and a saturating load. Boost helps exactly where the machine is
/// underused — it cannot rescue a saturated configuration.
pub fn e14(config: &Config) -> String {
    let replicas = config.baseline_replicas();
    let moderate_users = config.lab.users / 8;
    let mut out = String::from(
        "E14: frequency boost (extension)\nload       config               boost      req/s       mean\n",
    );
    let mut cells = Vec::new();
    for (load_name, users) in [
        ("moderate", moderate_users),
        ("saturating", config.lab.users),
    ] {
        for (policy_name, policy, reps) in [
            ("baseline", Policy::Unpinned, replicas.clone()),
            ("topo", Policy::TopologyAware { ccxs: None }, vec![]),
        ] {
            for (boost_name, boost) in [
                ("flat", uarch::BoostModel::Flat),
                ("zen2", uarch::BoostModel::zen2_like()),
            ] {
                cells.push((load_name, users, policy_name, policy, reps.clone(), boost_name, boost));
            }
        }
    }
    let rows = scaleup::par::map(cells, |(load_name, users, policy_name, policy, reps, boost_name, boost)| {
        let mut lab = config.lab.clone().with_users(users);
        lab.engine_params.uarch.boost = boost;
        let r = lab.run_policy(&config.store, policy, &reps);
        (load_name, policy_name, boost_name, r)
    });
    for (load_name, policy_name, boost_name, r) in rows {
        let _ = writeln!(
            out,
            "{:<10} {:<18} {:<8} {:>8.0} {:>10}",
            load_name, policy_name, boost_name, r.throughput_rps, r.mean_latency
        );
    }
    out
}

/// E15 result: simulator vs. analytic MVA.
#[derive(Debug, Clone)]
pub struct MvaValidation {
    /// `(users, simulated rps, predicted rps)` per sweep point.
    pub points: Vec<(u64, f64, f64)>,
    /// Maximum relative error over the low-load half of the sweep.
    pub low_load_max_err: f64,
    /// Rendered table.
    pub table: String,
}

/// E15 — validation: the simulator against exact MVA on the same
/// configuration. At low load (no contention) the two must agree closely;
/// at saturation the analytic model over-predicts by exactly the contention
/// effects (SMT, L3, NUMA, switches) the simulator adds.
pub fn e15(config: &Config) -> MvaValidation {
    use scaleup::qnmodel::{ClosedModel, Station};
    let replicas = config.baseline_replicas();
    let app = config.store.app();
    let demand = app.mean_demand_per_service_us();

    // Stations: one per demanded service; servers = the thread-pool total
    // (the binding resource of the unpinned baseline).
    let mut model = ClosedModel::new(config.lab.think);
    for (svc, spec) in app.services().iter().enumerate() {
        if demand[svc] <= 0.0 {
            continue;
        }
        let servers = replicas[svc] * spec.default_threads;
        model = model.station(Station::new(
            &spec.name,
            SimDuration::from_micros_f64(demand[svc]),
            servers,
        ));
    }
    // Pure delay per request: two client legs plus the RPC wire time of the
    // average call tree (same-socket latency both ways per call).
    let calls_per_request: f64 = {
        let total_w: f64 = app.classes().iter().map(|c| c.weight).sum();
        app.classes()
            .iter()
            .map(|c| (c.root.node_count() - 1) as f64 * c.weight)
            .sum::<f64>()
            / total_w
    };
    let rpc_leg = config.lab.engine_params.uarch.rpc_latency_same_socket;
    let delay = config.lab.engine_params.client_net_latency * 2
        + SimDuration::from_nanos((rpc_leg.as_nanos() as f64 * 2.0 * calls_per_request) as u64);
    let model = model.with_delay(delay);

    // The station model captures software pools; the hardware adds a second
    // ceiling the analytic model must respect: the machine can retire at
    // most `effective_cpus / demand_per_request` requests per second
    // (cores × ~1.24 SMT2 aggregate; the utilization law).
    let total_demand_us: f64 = demand.iter().sum();
    let topo = &config.lab.topo;
    let smt_aggregate = if topo.spec().threads_per_core >= 2 {
        1.24
    } else {
        1.0
    };
    let effective_cpus = topo.num_cores() as f64 * smt_aggregate;
    let cpu_bound_rps = effective_cpus / (total_demand_us / 1e6);

    let mut points = Vec::new();
    let mut table = format!(
        "E15: simulator vs analytic MVA (tuned unpinned baseline)\n(CPU capacity bound: {cpu_bound_rps:.0} req/s)\n users    sim req/s    MVA req/s    MVA/sim\n",
    );
    let sims = scaleup::par::map(config.user_sweep.clone(), |users| {
        let lab = config.lab.clone().with_users(users);
        lab.run_policy(&config.store, Policy::Unpinned, &replicas)
            .throughput_rps
    });
    for (&users, &sim) in config.user_sweep.iter().zip(&sims) {
        let mva = model
            .solve(users as usize)
            .throughput_rps
            .min(cpu_bound_rps);
        let _ = writeln!(
            table,
            "{:>6} {:>12.0} {:>12.0} {:>10.2}",
            users,
            sim,
            mva,
            mva / sim
        );
        points.push((users, sim, mva));
    }
    let low_half = points.len().div_ceil(2);
    let low_load_max_err = points[..low_half]
        .iter()
        .map(|&(_, sim, mva)| ((mva - sim) / sim).abs())
        .fold(0.0f64, f64::max);
    let _ = writeln!(
        table,
        "max relative error over the low-load half: {:.1}% (contention-free regime)",
        low_load_max_err * 100.0
    );
    let _ = writeln!(
        table,
        "(the saturated-regime gap is the contention the simulator models and MVA cannot)"
    );
    MvaValidation {
        points,
        low_load_max_err,
        table,
    }
}

// --------------------------------------------------------------------- E16

/// E16 result: mix-sensitivity study.
#[derive(Debug, Clone)]
pub struct MixSensitivity {
    /// `(mix name, baseline rps, topology-aware rps, uplift %)`.
    pub rows: Vec<(String, f64, f64, f64)>,
    /// Rendered table.
    pub table: String,
}

/// E16 — (extension) does the technique survive a different request mix?
///
/// The browse profile makes WebUI the bottleneck; a login storm moves it to
/// Auth (BCrypt), a sale to the order path. The topology-aware policy
/// re-derives demand-proportional replication from each mix, so the uplift
/// over a per-mix-tuned unpinned baseline should persist.
pub fn e16(config: &Config) -> MixSensitivity {
    use teastore::MixProfile;
    let mut rows = Vec::new();
    let mut table = String::from(
        "E16: workload-mix sensitivity\nmix           baseline req/s   topo req/s     uplift\n",
    );
    let scale = config
        .store
        .app()
        .mean_demand_per_service_us()
        .iter()
        .sum::<f64>()
        / TeaStore::browse()
            .app()
            .mean_demand_per_service_us()
            .iter()
            .sum::<f64>();
    let mixes = vec![
        ("browse", MixProfile::Browse),
        ("buy-heavy", MixProfile::BuyHeavy),
        ("login-storm", MixProfile::LoginStorm),
    ];
    let measured = scaleup::par::map(mixes, |(name, mix)| {
        let store = TeaStore::with_options(mix, scale);
        let replicas = tuner::proportional_replicas(store.app(), config.baseline_budget);
        let baseline = config
            .lab
            .run_policy(&store, Policy::Unpinned, &replicas)
            .throughput_rps;
        let topo = config
            .lab
            .run_policy(&store, Policy::TopologyAware { ccxs: None }, &[])
            .throughput_rps;
        (name, baseline, topo)
    });
    for (name, baseline, topo) in measured {
        let uplift = ratio_pct(topo, baseline);
        let _ = writeln!(
            table,
            "{:<12} {:>14.0} {:>12.0} {:>+9.1}%",
            name, baseline, topo, uplift
        );
        rows.push((name.to_owned(), baseline, topo, uplift));
    }
    MixSensitivity { rows, table }
}

// --------------------------------------------------------------------- E17

/// E17 — (extension) which CPUs should a half-machine mask contain?
///
/// "Give the app 64 CPUs" is ambiguous: 64 distinct cores across both
/// sockets, 32 cores with both hyperthreads, one socket's worth, …
/// Practitioners build these masks with `taskset`; this experiment runs the
/// tuned baseline confined to the first 64 CPUs of each enumeration order.
pub fn e17(config: &Config) -> String {
    use cputopo::enumerate;
    let replicas = config.baseline_replicas();
    let topo = &config.lab.topo;
    let n = (topo.num_cpus() / 4).max(2);
    let users = config.lab.users / 2;
    let lab = config.lab.clone().with_users(users);
    let mut out = format!(
        "E17: enumeration order of a {n}-CPU mask (tuned baseline, {users} users)\norder                req/s     mean     util%   distinct cores\n"
    );
    let orders: Vec<(&str, Vec<cputopo::CpuId>)> = vec![
        ("linear", enumerate::linear(topo)),
        ("cores-first", enumerate::cores_first(topo)),
        ("smt-packed", enumerate::smt_packed(topo)),
        ("ccx-round-robin", enumerate::ccx_round_robin(topo)),
        ("socket-round-robin", enumerate::socket_round_robin(topo)),
    ];
    let rows = scaleup::par::map(orders, |(name, order)| {
        let mask = enumerate::take_mask(&order, n);
        let mut cores: Vec<_> = mask.iter().map(|c| topo.core_of(c)).collect();
        cores.sort_unstable();
        cores.dedup();
        let points = scaling::throughput_vs_cpus(&lab, config.store.app(), &order, &[n], &replicas);
        (name, cores.len(), points)
    });
    for (name, distinct_cores, points) in rows {
        let p = &points[0];
        let _ = writeln!(
            out,
            "{:<18} {:>8.0} {:>8.0}µs {:>7.1} {:>14}",
            name,
            p.throughput_rps,
            p.mean_latency_us,
            p.cpu_utilization * 100.0,
            distinct_cores,
        );
    }
    out.push_str(
        "(one thread per core beats sibling-packed masks: SMT pairs deliver ~1.24x, two cores 2x)\n",
    );
    out
}

// --------------------------------------------------------------- E18 / E19

/// The first instance index of the most-replicated service under the tuned
/// baseline — the natural victim for single-replica fault injection: the
/// tier has spare replicas, so resilience has somewhere to route around.
fn fault_victim(replicas: &[usize]) -> (usize, InstanceId) {
    let service = replicas
        .iter()
        .enumerate()
        .max_by_key(|(_, &r)| r)
        .map(|(s, _)| s)
        .expect("baseline has services");
    let first_instance: usize = replicas[..service].iter().sum();
    (service, InstanceId(first_instance as u32))
}

/// A resilience configuration derived from the fault-free baseline: calls
/// time out at 4× the baseline's end-to-end p99 — a budget generous enough
/// that healthy calls (even whole healthy requests) never exhaust it, so
/// only pathologically slow or lost calls trip it. Deriving it from the
/// measured baseline keeps the experiment meaningful under both `--quick`
/// and paper configurations without hand-tuned constants.
fn derived_resilience(baseline: &RunReport, with_breaker: bool) -> ResilienceParams {
    let timeout = baseline.latency_p99.mul_f64(4.0);
    // The breaker stays open for several timeout budgets: long enough that
    // half-open probes against a persistently sick replica stay below the
    // p99 population share, short enough that recovery after a restart is
    // detected within a fraction of a second.
    let breaker = with_breaker.then(|| BreakerPolicy {
        open_for: timeout.mul_f64(8.0),
        ..BreakerPolicy::default()
    });
    ResilienceParams::default()
        .with_timeout(timeout)
        .with_breaker(breaker)
}

/// The lab for the fault studies (plus its fault-free baseline report). The
/// scale-up experiments drive the machine to saturation; there a lost replica
/// barely moves window throughput, because the surviving capacity is still
/// the bottleneck and the remaining users still fill it. The fault studies
/// need a *user-bound* regime, where stranded users and ejected replicas show
/// up directly in throughput and tail latency: probe at half the tuned
/// population and, if that still saturates the machine, resize for ~60%
/// utilization using the measured capacity.
fn fault_lab(config: &Config) -> (Lab, RunReport) {
    let replicas = config.baseline_replicas();
    let half = config.lab.clone().with_users(config.lab.users / 2);
    let report = half.run_policy(&config.store, Policy::Unpinned, &replicas);
    if report.cpu_utilization < 0.8 {
        return (half, report);
    }
    let capacity_rps = report.throughput_rps / report.cpu_utilization;
    let users = ((0.6 * capacity_rps * config.lab.think.as_secs_f64()) as u64).max(16);
    let lab = config.lab.clone().with_users(users);
    let report = lab.run_policy(&config.store, Policy::Unpinned, &replicas);
    (lab, report)
}

/// E18/E19 result: one run per fault/resilience configuration.
#[derive(Debug, Clone)]
pub struct FaultStudy {
    /// `(configuration name, report)` in presentation order.
    pub rows: Vec<(String, RunReport)>,
    /// Rendered table.
    pub table: String,
}

fn fault_study_table(title: &str, note: &str, rows: &[(String, RunReport)]) -> String {
    let mut out = format!(
        "{title}\nconfig                         req/s     mean      p99   timeout    shed\n"
    );
    for (name, r) in rows {
        let _ = writeln!(
            out,
            "{:<26} {:>10.0} {:>8} {:>8} {:>9} {:>7}",
            name, r.throughput_rps, r.mean_latency, r.latency_p99, r.requests_timed_out,
            r.requests_shed,
        );
    }
    out.push_str(note);
    out.push('\n');
    out
}

/// E18 — (extension) slow-replica tail amplification.
///
/// A third of the most-replicated tier serves every request 40× slower
/// (a die-off GC loop, a throttled rack). Least-outstanding balancing alone
/// cannot save the tail: the slow replicas still receive traffic. Timeouts
/// and retries bound the damage per request; the circuit breaker ejects
/// the sick replicas entirely and restores the tail to near-baseline.
pub fn e18(config: &Config) -> FaultStudy {
    let replicas = config.baseline_replicas();
    let (victim_service, victim) = fault_victim(&replicas);
    let (fault_lab, baseline) = fault_lab(config);
    let n_slow = (replicas[victim_service] / 3).max(1);
    let mut faults = FaultPlan::none();
    for k in 0..n_slow as u32 {
        faults = faults.slowdown(InstanceId(victim.0 + k), SimTime::ZERO, SimTime::MAX, 40.0);
    }
    let run = |faults: FaultPlan, resilience: Option<ResilienceParams>| {
        let mut lab = fault_lab.clone();
        lab.engine_params.faults = faults;
        lab.engine_params.resilience = resilience;
        lab.run_policy(&config.store, Policy::Unpinned, &replicas)
    };
    let rows = vec![
        ("no faults".to_owned(), baseline.clone()),
        ("slow replica".to_owned(), run(faults.clone(), None)),
        (
            "slow + timeout/retry".to_owned(),
            run(faults.clone(), Some(derived_resilience(&baseline, false))),
        ),
        (
            "slow + retry + breaker".to_owned(),
            run(faults, Some(derived_resilience(&baseline, true))),
        ),
    ];
    let table = fault_study_table(
        &format!(
            "E18: slow-replica tail amplification ({n_slow} of {} {} replicas 40× slower)",
            replicas[victim_service],
            config.store.app().services()[victim_service].name,
        ),
        "(timeout+retry alone is metastable near saturation: abandoned work still burns CPU\n\
         and every retry adds load, so the tier congests until no attempt beats the timeout\n\
         — a retry storm. The breaker ejects the sick replicas and the tail returns toward\n\
         the fault-free p99.)",
        &rows,
    );
    FaultStudy { rows, table }
}

/// E19 — (extension) crash and recovery under load.
///
/// One replica of the most-replicated tier crashes a third into the
/// measurement window and restarts after a sixth of it. Without resilience,
/// its queued and in-flight requests are simply lost — closed-loop users
/// blocked on them never come back, permanently deflating throughput. With
/// timeouts + retries the lost calls are replayed against the survivors and
/// the throughput dip recovers with the replica.
pub fn e19(config: &Config) -> FaultStudy {
    let replicas = config.baseline_replicas();
    let (_, victim) = fault_victim(&replicas);
    let (fault_lab, baseline) = fault_lab(config);
    let crash_at = SimTime::ZERO + fault_lab.warmup + fault_lab.measure.mul_f64(1.0 / 3.0);
    let down_for = fault_lab.measure.mul_f64(1.0 / 6.0);
    let faults = FaultPlan::none().crash(victim, crash_at, down_for);
    let run = |resilience: Option<ResilienceParams>| {
        let mut lab = fault_lab.clone();
        lab.engine_params.faults = faults.clone();
        lab.engine_params.resilience = resilience;
        lab.run_policy(&config.store, Policy::Unpinned, &replicas)
    };
    let rows = vec![
        ("no faults".to_owned(), baseline.clone()),
        ("crash, no resilience".to_owned(), run(None)),
        (
            "crash + resilience".to_owned(),
            run(Some(derived_resilience(&baseline, true))),
        ),
    ];
    let mut table = fault_study_table(
        &format!(
            "E19: crash and recovery ({victim} down at +{} for {})",
            fault_lab.measure.mul_f64(1.0 / 3.0),
            down_for
        ),
        "(lost work: see the dropped replies / rejected arrivals in the fault counters)",
        &rows,
    );
    for (name, r) in &rows {
        let _ = writeln!(
            table,
            "  {:<26} {} dropped replies, {} rejected arrivals, min bucket {:.0} req/s",
            name,
            r.replies_dropped,
            r.rejected_arrivals,
            min_throughput_bucket(r),
        );
    }
    FaultStudy { rows, table }
}

/// The lowest whole-bucket throughput inside the measurement window — the
/// depth of a crash-induced dip. Ignores the last (possibly partial) bucket.
pub fn min_throughput_bucket(report: &RunReport) -> f64 {
    let series = &report.throughput_series;
    if series.len() < 2 {
        return 0.0;
    }
    series[..series.len() - 1]
        .iter()
        .map(|&(_, rps)| rps)
        .fold(f64::INFINITY, f64::min)
}

// --------------------------------------------------------------- E20 … E23
//
// The overload studies run on a dedicated one-service application rather
// than the full TeaStore: queue growth, retry storms and priority shedding
// are properties of a single saturated tier, and a one-service app keeps
// capacity, offered load and shed accounting exactly interpretable. The lab
// is always the desktop machine — the phenomena do not need 256 CPUs, and
// the paper configuration would only multiply event counts.

/// Fixed per-request CPU demand of the overload app (µs).
const OVERLOAD_DEMAND_US: f64 = 5_000.0;
/// Replicas × worker threads of the overload deployment.
const OVERLOAD_REPLICAS: usize = 4;
const OVERLOAD_THREADS: usize = 4;

/// The single-class overload application (E20, E21, E23).
fn overload_app() -> AppSpec {
    let mut app = AppSpec::new();
    let svc = app.add_service(
        ServiceSpec::new("api", uarch::ServiceProfile::light_rpc("api"))
            .with_threads(OVERLOAD_THREADS),
    );
    app.add_class(
        "browse",
        1.0,
        CallNode::leaf(svc, Demand::fixed_us(OVERLOAD_DEMAND_US)),
    );
    app
}

/// The brownout variant (E22): three request classes of the same service
/// with identical demand, so per-class goodput differences are purely the
/// shedding policy's doing.
fn brownout_app() -> AppSpec {
    let mut app = AppSpec::new();
    let svc = app.add_service(
        ServiceSpec::new("api", uarch::ServiceProfile::light_rpc("api"))
            .with_threads(OVERLOAD_THREADS),
    );
    let demand = || CallNode::leaf(svc, Demand::fixed_us(OVERLOAD_DEMAND_US));
    app.add_class("browse", 0.7, demand());
    app.add_class("checkout", 0.1, demand());
    app.add_class("recommend", 0.2, demand());
    app
}

/// The lab the overload studies share: desktop machine, explicit windows.
fn overload_lab(config: &Config, warmup: SimDuration, measure: SimDuration) -> Lab {
    let mut lab = Lab::small(config.lab.seed);
    lab.warmup = warmup;
    lab.measure = measure;
    // Inherit the checkpoint flag so the overload studies participate in
    // the snapshot/resume differential battery (tests/snapshot.rs), and the
    // shard knobs so `--shards` reaches the overload battery (E22 is part
    // of the sharded golden set).
    lab.checkpoint = config.lab.checkpoint;
    lab.shards = config.lab.shards;
    lab.shard_cross_permille = config.lab.shard_cross_permille;
    lab.shard_latency = config.lab.shard_latency;
    lab.shard_workers = config.lab.shard_workers;
    lab
}

fn overload_deployment(app: &AppSpec, topo: &Arc<cputopo::Topology>) -> Deployment {
    Deployment::uniform(app, topo, OVERLOAD_REPLICAS, OVERLOAD_THREADS)
}

/// Measured saturation throughput of the overload deployment: a short
/// closed-loop probe with far more users than worker threads.
fn overload_capacity(lab: &Lab, app: &AppSpec) -> f64 {
    let mut probe = lab.clone();
    probe.users = 256;
    probe.think = SimDuration::from_millis(2);
    probe.warmup = SimDuration::from_millis(300);
    probe.measure = SimDuration::from_millis(700);
    probe
        .run_app(
            app,
            overload_deployment(app, &probe.topo),
            LbPolicy::LeastOutstanding,
        )
        .throughput_rps
}

/// One open-loop overload run with the given policy knobs.
fn run_overload(
    lab: &Lab,
    app: &AppSpec,
    rate_rps: f64,
    overload: Option<OverloadParams>,
    resilience: Option<ResilienceParams>,
    faults: FaultPlan,
) -> RunReport {
    let mut lab = lab.clone();
    lab.engine_params.overload = overload;
    lab.engine_params.resilience = resilience;
    lab.engine_params.faults = faults;
    lab.run_app_open(
        app,
        overload_deployment(app, &lab.topo),
        LbPolicy::LeastOutstanding,
        rate_rps,
    )
}

/// A slowdown of every overload-app replica over an absolute time interval —
/// the "trigger" of the metastability and recovery studies.
fn overload_burst(from: SimTime, until: SimTime, factor: f64) -> FaultPlan {
    let mut faults = FaultPlan::none();
    for i in 0..OVERLOAD_REPLICAS as u32 {
        faults = faults.slowdown(InstanceId(i), from, until, factor);
    }
    faults
}

/// Mean of the series values with `a <= t < b` (seconds from window start).
fn series_mean(series: &[(f64, f64)], a: f64, b: f64) -> f64 {
    let vals: Vec<f64> = series
        .iter()
        .filter(|&&(t, _)| t >= a && t < b)
        .map(|&(_, v)| v)
        .collect();
    if vals.is_empty() {
        return 0.0;
    }
    vals.iter().sum::<f64>() / vals.len() as f64
}

/// Peak of the report's machine-wide pending-queue depth series.
pub fn max_queue_depth(report: &RunReport) -> f64 {
    report
        .queue_depth_series
        .iter()
        .map(|&(_, d)| d)
        .fold(0.0, f64::max)
}

/// Seconds from `t0` until the series first sustains `threshold` for
/// `sustain` consecutive buckets (ignoring the final, possibly partial
/// bucket); `None` if it never does.
fn time_to_reach(series: &[(f64, f64)], t0: f64, threshold: f64, sustain: usize) -> Option<f64> {
    let whole = &series[..series.len().saturating_sub(1)];
    let mut run_start: Option<f64> = None;
    let mut run_len = 0usize;
    for &(t, v) in whole.iter().filter(|&&(t, _)| t >= t0) {
        if v >= threshold {
            if run_start.is_none() {
                run_start = Some(t);
            }
            run_len += 1;
            if run_len >= sustain {
                return Some((run_start.expect("run started") - t0).max(0.0));
            }
        } else {
            run_start = None;
            run_len = 0;
        }
    }
    None
}

/// How long the series stays below `threshold` after `t0`: seconds until
/// the first bucket at or above it, or until `window_end` if none is. The
/// series is sparse — buckets with no completions are simply absent — so a
/// missing bucket counts as zero, not as recovery.
fn pinned_secs(series: &[(f64, f64)], t0: f64, threshold: f64, window_end: f64) -> f64 {
    for &(t, v) in series.iter().filter(|&&(t, _)| t >= t0) {
        if v >= threshold {
            return (t - t0).max(0.0);
        }
    }
    (window_end - t0).max(0.0)
}

/// Seconds from `t0` until the queue-depth series first drops to `limit`
/// jobs or fewer; `None` if it never drains inside the window.
fn time_to_drain(series: &[(f64, f64)], t0: f64, limit: f64) -> Option<f64> {
    series
        .iter()
        .find(|&&(t, d)| t >= t0 && d <= limit)
        .map(|&(t, _)| (t - t0).max(0.0))
}

fn sum_retries(report: &RunReport) -> u64 {
    report.services.iter().map(|s| s.retries).sum()
}

/// E20 result: goodput and tail latency across an offered-load sweep, with
/// and without admission control.
#[derive(Debug, Clone)]
pub struct OverloadSweep {
    /// Measured saturation throughput of the deployment.
    pub capacity_rps: f64,
    /// `(offered multiple of capacity, unbounded report, admission report)`.
    pub rows: Vec<(f64, RunReport, RunReport)>,
    /// Rendered table.
    pub table: String,
}

/// E20 — the overload sweep. Offered load runs from half capacity to 3×;
/// the unbounded arm lets queues grow without limit, the admission arm
/// bounds each instance queue (reject-new at 64) and sheds stale work at
/// dequeue (5 ms queue deadline). Under overload, admission control trades
/// a bounded goodput loss for orders of magnitude of tail latency.
pub fn e20(config: &Config) -> OverloadSweep {
    let app = overload_app();
    let lab = overload_lab(
        config,
        SimDuration::from_millis(500),
        SimDuration::from_secs(4),
    );
    let capacity_rps = overload_capacity(&lab, &app);
    let admission = OverloadParams::default()
        .with_admission(AdmissionPolicy::RejectNew { bound: 64 })
        .with_queue_deadline(SimDuration::from_millis(5));
    let mults = vec![0.5, 1.0, 1.5, 2.0, 3.0];
    let rows: Vec<(f64, RunReport, RunReport)> = scaleup::par::map(mults, |m| {
        let rate = m * capacity_rps;
        let unbounded = run_overload(
            &lab,
            &app,
            rate,
            Some(OverloadParams::default()),
            None,
            FaultPlan::none(),
        );
        let admitted = run_overload(
            &lab,
            &app,
            rate,
            Some(admission.clone()),
            None,
            FaultPlan::none(),
        );
        (m, unbounded, admitted)
    });
    let mut table = format!(
        "E20: overload sweep — unbounded queues vs admission control (capacity ≈ {capacity_rps:.0} req/s)\n load  config          goodput      p99      shed   max queue\n"
    );
    for (m, unbounded, admitted) in &rows {
        for (name, r) in [("unbounded", unbounded), ("admission", admitted)] {
            let _ = writeln!(
                table,
                " {m:>3.1}×  {:<12} {:>8.0} {:>9} {:>8} {:>10.0}",
                name,
                r.throughput_rps,
                r.latency_p99,
                r.overload.total_sheds(),
                max_queue_depth(r),
            );
        }
    }
    let (_, over_unbounded, over_admitted) = rows.last().expect("swept at least one load");
    let _ = writeln!(
        table,
        "at 3× offered load: admission keeps p99 at {} vs {} unbounded ({}× lower)",
        over_admitted.latency_p99,
        over_unbounded.latency_p99,
        (over_unbounded.latency_p99.as_secs_f64() / over_admitted.latency_p99.as_secs_f64())
            .round(),
    );
    OverloadSweep {
        capacity_rps,
        rows,
        table,
    }
}

/// E21 result: the retry-storm metastability study.
#[derive(Debug, Clone)]
pub struct MetastabilityStudy {
    /// Measured saturation throughput of the deployment.
    pub capacity_rps: f64,
    /// Offered open-loop load (0.65 × capacity).
    pub rate_rps: f64,
    /// `(configuration name, report)`: no budget, then retry budget.
    pub rows: Vec<(String, RunReport)>,
    /// Pre-trigger goodput of the no-budget arm (req/s).
    pub pre_goodput_rps: f64,
    /// How long the no-budget arm stays below 10% of pre-trigger goodput
    /// after the burst ends (the metastable failure).
    pub no_budget_pinned_secs: f64,
    /// Goodput of the budget arm over the last 5 s, as % of pre-trigger.
    pub budget_recovered_pct: f64,
    /// Seconds after the burst until the budget arm sustains ≥90% of
    /// pre-trigger goodput for 3 consecutive buckets.
    pub budget_recovery_secs: Option<f64>,
    /// Rendered table.
    pub table: String,
}

/// Burst window of the E21 trigger, in seconds relative to the measurement
/// window start: `[2.5 s, 3.0 s)`.
const E21_BURST_START_REL: f64 = 2.5;
const E21_BURST_END_REL: f64 = 3.0;

/// E21 — retry-storm metastability, and the retry budget that prevents it.
///
/// A moderate open-loop load (65% of capacity) runs with timeouts + 3
/// retries. A half-second slowdown of every replica (×10 — a GC storm, a
/// packet-loss burst) pushes queue waits past the timeout; every queued call
/// is abandoned and retried, quadrupling the offered attempt rate past
/// capacity — and because abandoned work still burns CPU, the queue never
/// gets back under the timeout. The system stays saturated-but-useless long
/// after the trigger is gone: a metastable failure sustained purely by the
/// retries (the slowed work itself drains within ~2 s). A retry budget (10%
/// of successes, small burst allowance) caps the amplification at ~1.1× and
/// the backlog drains at the spare-capacity rate instead.
pub fn e21(config: &Config) -> MetastabilityStudy {
    let app = overload_app();
    let lab = overload_lab(config, SimDuration::from_secs(1), SimDuration::from_secs(40));
    let capacity_rps = overload_capacity(&lab, &app);
    let rate_rps = 0.65 * capacity_rps;

    // Calibrate the call timeout from a short fault-free run at the same
    // load, exactly like the E18/E19 fault studies do.
    let mut probe = lab.clone();
    probe.warmup = SimDuration::from_millis(500);
    probe.measure = SimDuration::from_secs(2);
    let baseline = run_overload(&probe, &app, rate_rps, None, None, FaultPlan::none());
    let resilience = derived_resilience(&baseline, false).with_retry(RetryPolicy {
        max_retries: 3,
        ..RetryPolicy::default()
    });

    let burst = overload_burst(
        SimTime::ZERO + lab.warmup + SimDuration::from_secs_f64(E21_BURST_START_REL),
        SimTime::ZERO + lab.warmup + SimDuration::from_secs_f64(E21_BURST_END_REL),
        10.0,
    );
    let budget = RetryBudgetPolicy {
        refill_per_success: 0.1,
        cap: 50.0,
        initial: 50.0,
    };
    let arms: Vec<(&str, OverloadParams)> = vec![
        ("no retry budget", OverloadParams::default()),
        (
            "retry budget 10%",
            OverloadParams::default().with_retry_budget(budget),
        ),
    ];
    let rows: Vec<(String, RunReport)> = scaleup::par::map(arms, |(name, overload)| {
        let r = run_overload(
            &lab,
            &app,
            rate_rps,
            Some(overload),
            Some(resilience.clone()),
            burst.clone(),
        );
        (name.to_owned(), r)
    });

    // Series timestamps are absolute (seconds since run start, warm-up
    // included); shift the window-relative landmarks accordingly.
    let t0 = lab.warmup.as_secs_f64();
    let window_end = t0 + lab.measure.as_secs_f64();
    let burst_start = t0 + E21_BURST_START_REL;
    let burst_end = t0 + E21_BURST_END_REL;
    let no_budget = &rows[0].1;
    let with_budget = &rows[1].1;
    let pre_goodput_rps = series_mean(&no_budget.throughput_series, t0 + 0.5, burst_start - 0.1);
    let pre_budget = series_mean(&with_budget.throughput_series, t0 + 0.5, burst_start - 0.1);
    let no_budget_pinned_secs = pinned_secs(
        &no_budget.throughput_series,
        burst_end,
        0.10 * pre_goodput_rps,
        window_end,
    );
    let budget_recovery_secs = time_to_reach(
        &with_budget.throughput_series,
        burst_end,
        0.90 * pre_budget,
        3,
    );
    let budget_recovered_pct =
        100.0 * series_mean(&with_budget.throughput_series, window_end - 5.0, window_end)
            / pre_budget;

    let mut table = format!(
        "E21: retry-storm metastability (open loop at {rate_rps:.0} req/s = 65% of capacity,\n     all replicas 10× slower over [{E21_BURST_START_REL}s, {E21_BURST_END_REL}s), timeouts + 3 retries)\nconfig               goodput   timed out    retries   budget-denied   max queue\n"
    );
    for (name, r) in &rows {
        let _ = writeln!(
            table,
            "{:<18} {:>8.0} {:>11} {:>10} {:>15} {:>11.0}",
            name,
            r.throughput_rps,
            r.requests_timed_out,
            sum_retries(r),
            r.overload.budget_denied,
            max_queue_depth(r),
        );
    }
    let _ = writeln!(
        table,
        "no-budget arm: goodput pinned below 10% of pre-trigger for {no_budget_pinned_secs:.1}s after the burst (metastable)",
    );
    let _ = writeln!(
        table,
        "e21 headline: retry budget recovered goodput to {budget_recovered_pct:.1}% of pre-trigger in {} (no-budget arm: pinned)",
        budget_recovery_secs
            .map(|s| format!("{s:.1}s"))
            .unwrap_or_else(|| "∞".to_owned()),
    );
    MetastabilityStudy {
        capacity_rps,
        rate_rps,
        rows,
        pre_goodput_rps,
        no_budget_pinned_secs,
        budget_recovered_pct,
        budget_recovery_secs,
        table,
    }
}

/// One request class's outcome in an E22 arm:
/// `(class name, submitted, failed, goodput fraction)`.
pub type ClassGoodput = (String, u64, u64, f64);

/// E22 result: the brownout / graceful-degradation study.
#[derive(Debug, Clone)]
pub struct BrownoutStudy {
    /// Measured saturation throughput of the deployment.
    pub capacity_rps: f64,
    /// Offered open-loop load (1.6 × capacity).
    pub rate_rps: f64,
    /// `(configuration name, report)`: class-blind, then priority shedding.
    pub rows: Vec<(String, RunReport)>,
    /// Per arm: `(arm name, per-class outcomes)`.
    pub class_goodput: Vec<(String, Vec<ClassGoodput>)>,
    /// Checkout goodput fraction under priority shedding (the headline).
    pub checkout_goodput: f64,
    /// Browse goodput fraction under priority shedding (the sacrifice).
    pub browse_goodput: f64,
    /// Rendered table.
    pub table: String,
}

/// E22 — brownout: graceful degradation under sustained 1.6× overload.
///
/// Three request classes share one saturated tier. A class-blind bounded
/// queue sheds every class equally — checkout loses the same ~40% as
/// browse. Priority shedding (checkout > recommend > browse, WRED-style
/// per-priority depth thresholds on the shared queue) starves the
/// best-effort classes first and keeps checkout goodput near 100%.
pub fn e22(config: &Config) -> BrownoutStudy {
    let app = brownout_app();
    let lab = overload_lab(
        config,
        SimDuration::from_millis(500),
        SimDuration::from_secs(4),
    );
    let capacity_rps = overload_capacity(&lab, &app);
    let rate_rps = 1.6 * capacity_rps;
    // Class priorities follow class order (browse, checkout, recommend):
    // checkout is priority 0 (protected), recommend 1, browse 2. Depth
    // thresholds per priority: checkout queues up to 4096 (effectively
    // never shed), recommend up to 64, browse up to 32.
    let arms: Vec<(&str, OverloadParams)> = vec![
        (
            "class-blind bound 64",
            OverloadParams::default().with_admission(AdmissionPolicy::RejectNew { bound: 64 }),
        ),
        (
            "priority shedding",
            OverloadParams::default()
                .with_priority(PriorityPolicy::new(vec![2, 0, 1], vec![4096, 64, 32])),
        ),
    ];
    let rows: Vec<(String, RunReport)> = scaleup::par::map(arms, |(name, overload)| {
        let r = run_overload(
            &lab,
            &app,
            rate_rps,
            Some(overload),
            None,
            FaultPlan::none(),
        );
        (name.to_owned(), r)
    });
    let class_names: Vec<String> = app.classes().iter().map(|c| c.name.clone()).collect();
    let class_goodput: Vec<(String, Vec<ClassGoodput>)> = rows
        .iter()
        .map(|(arm, r)| {
            let per_class = class_names
                .iter()
                .enumerate()
                .map(|(c, name)| {
                    let submitted = r.per_class_submitted[c];
                    let failed = r.per_class_failed[c];
                    let goodput = if submitted == 0 {
                        0.0
                    } else {
                        1.0 - failed as f64 / submitted as f64
                    };
                    (name.clone(), submitted, failed, goodput)
                })
                .collect();
            (arm.clone(), per_class)
        })
        .collect();
    let priority_arm = &class_goodput[1].1;
    let checkout_goodput = priority_arm[1].3;
    let browse_goodput = priority_arm[0].3;
    let mut table = format!(
        "E22: brownout — graceful degradation at {rate_rps:.0} req/s (1.6× capacity)\nconfig                 class        submitted     shed   goodput\n"
    );
    for (arm, classes) in &class_goodput {
        for (class, submitted, failed, goodput) in classes {
            let _ = writeln!(
                table,
                "{:<22} {:<12} {:>9} {:>8} {:>8.1}%",
                arm,
                class,
                submitted,
                failed,
                goodput * 100.0,
            );
        }
    }
    let _ = writeln!(
        table,
        "e22 headline: priority shedding keeps checkout goodput at {:.1}% while browse sheds to {:.1}%",
        checkout_goodput * 100.0,
        browse_goodput * 100.0,
    );
    BrownoutStudy {
        capacity_rps,
        rate_rps,
        rows,
        class_goodput,
        checkout_goodput,
        browse_goodput,
        table,
    }
}

/// E23 result: the recovery-hysteresis study.
#[derive(Debug, Clone)]
pub struct RecoveryStudy {
    /// Measured saturation throughput of the deployment.
    pub capacity_rps: f64,
    /// Offered open-loop load (0.75 × capacity).
    pub rate_rps: f64,
    /// `(configuration name, report, seconds after the burst until the
    /// backlog drains to ≤8 queued jobs — `None` if it never does)`.
    pub rows: Vec<(String, RunReport, Option<f64>)>,
    /// Rendered table.
    pub table: String,
}

/// Absolute burst window of the E23 trigger, relative to the measurement
/// window start: `[1.0 s, 2.0 s)`.
const E23_BURST_START_REL: f64 = 1.0;
const E23_BURST_END_REL: f64 = 2.0;

/// E23 — recovery hysteresis: how long the backlog outlives its trigger.
///
/// A 1 s slowdown at 75% load leaves a queue of stale work behind. With
/// unbounded queues the backlog drains only at the spare-capacity rate and
/// latency stays elevated long after the trigger (hysteresis); a bounded
/// queue never builds the backlog; drop-oldest keeps the freshest work;
/// a queue deadline (CoDel-style) discards exactly the work that is already
/// too old to matter and recovers fastest.
pub fn e23(config: &Config) -> RecoveryStudy {
    let app = overload_app();
    let lab = overload_lab(
        config,
        SimDuration::from_millis(500),
        SimDuration::from_secs(30),
    );
    let capacity_rps = overload_capacity(&lab, &app);
    let rate_rps = 0.75 * capacity_rps;
    let burst = overload_burst(
        SimTime::ZERO + lab.warmup + SimDuration::from_secs_f64(E23_BURST_START_REL),
        SimTime::ZERO + lab.warmup + SimDuration::from_secs_f64(E23_BURST_END_REL),
        10.0,
    );
    let arms: Vec<(&str, OverloadParams)> = vec![
        ("unbounded", OverloadParams::default()),
        (
            "reject-new 128",
            OverloadParams::default().with_admission(AdmissionPolicy::RejectNew { bound: 128 }),
        ),
        (
            "drop-oldest 128",
            OverloadParams::default().with_admission(AdmissionPolicy::DropOldest { bound: 128 }),
        ),
        (
            "deadline 5ms",
            OverloadParams::default().with_queue_deadline(SimDuration::from_millis(5)),
        ),
    ];
    // Queue-depth timestamps are absolute (seconds since run start).
    let burst_end = lab.warmup.as_secs_f64() + E23_BURST_END_REL;
    let rows: Vec<(String, RunReport, Option<f64>)> = scaleup::par::map(arms, |(name, overload)| {
        let r = run_overload(
            &lab,
            &app,
            rate_rps,
            Some(overload),
            None,
            burst.clone(),
        );
        let drain = time_to_drain(&r.queue_depth_series, burst_end, 8.0);
        (name.to_owned(), r, drain)
    });
    let mut table = format!(
        "E23: recovery hysteresis (open loop at {rate_rps:.0} req/s = 75% of capacity,\n     all replicas 10× slower over [{E23_BURST_START_REL}s, {E23_BURST_END_REL}s))\nconfig              goodput      p99      shed   max queue   drain after burst\n"
    );
    for (name, r, drain) in &rows {
        let _ = writeln!(
            table,
            "{:<18} {:>8.0} {:>9} {:>8} {:>10.0} {:>14}",
            name,
            r.throughput_rps,
            r.latency_p99,
            r.overload.total_sheds(),
            max_queue_depth(r),
            drain
                .map(|s| format!("{s:.1}s"))
                .unwrap_or_else(|| "never".to_owned()),
        );
    }
    table.push_str(
        "(the backlog, not the trigger, sets the recovery time: bounded and deadline\n queues shed the stale work and the tail returns as soon as the trigger ends)\n",
    );
    RecoveryStudy {
        capacity_rps,
        rate_rps,
        rows,
        table,
    }
}

// ------------------------------------------------- E24–E26 (mega scale)

/// Wake-coalescing grain for the mega-scale runs: an eighth of the think
/// time, clamped to [1 ms, 10 ms]. Small enough to leave think-time jitter
/// intact, large enough that a million parked users share O(window/grain)
/// calendar events instead of one timer each.
fn mega_grain(think: SimDuration) -> SimDuration {
    SimDuration::from_nanos((think.as_nanos() / 8).clamp(1_000_000, 10_000_000))
}

/// Think time that holds the lab's nominal offered rate (`users / think`)
/// constant while the population scales — 10× the users, 10× the think.
fn mega_think(config: &Config, users: u64) -> SimDuration {
    SimDuration::from_nanos(
        config.lab.think.as_nanos().saturating_mul(users) / config.lab.users.max(1),
    )
}

/// One coalesced closed-loop run of the tuned TeaStore baseline plus the
/// measurements E24/E25 report on top of the [`RunReport`].
struct MegaRun {
    report: RunReport,
    /// Engine + load-generator heap bytes (capacities, not lengths).
    footprint_bytes: u64,
    /// Host wall-clock seconds of the simulation loop (display only —
    /// never feed this into anything that must be deterministic).
    wall_secs: f64,
    /// p99 latency estimated from the retained traces, if any completed.
    trace_p99: Option<SimDuration>,
}

/// Like [`Lab::run_app`] for the tuned unpinned baseline, but with wake
/// coalescing enabled (which `Lab` deliberately does not model: the exact
/// timer path is what the E1–E23 golden hashes pin down) and with wall
/// clock, footprint, and trace quantiles captured.
fn mega_run(
    config: &Config,
    users: u64,
    think: SimDuration,
    patch: impl FnOnce(&mut EngineParams),
) -> MegaRun {
    let lab = &config.lab;
    let replicas = config.baseline_replicas();
    let placed = Policy::Unpinned.deploy(config.store.app(), &lab.topo, &replicas);
    let app = config.store.app().clone();
    let mix: Vec<f64> = app.classes().iter().map(|c| c.weight).collect();
    let mut params = lab.engine_params.clone();
    params.lb = placed.lb;
    patch(&mut params);
    let mut engine = Engine::new(lab.topo.clone(), params, app, placed.deployment, lab.seed);
    let mut load = ClosedLoop::new(users)
        .think_time(think)
        .coalesce(mega_grain(think))
        .mix(&mix)
        .warmup(lab.warmup)
        .measure(lab.measure);
    let horizon = SimTime::ZERO + (lab.warmup + lab.measure) * 4;
    let start = std::time::Instant::now();
    engine.run(&mut load, horizon);
    let wall_secs = start.elapsed().as_secs_f64();
    let mut latencies: Vec<u64> = engine
        .traces()
        .iter()
        .filter_map(|t| t.latency())
        .map(|d| d.as_nanos())
        .collect();
    latencies.sort_unstable();
    let trace_p99 = (!latencies.is_empty()).then(|| {
        SimDuration::from_nanos(latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)])
    });
    let report = engine.report();
    let footprint_bytes = report.engine_footprint_bytes + load.footprint_bytes() as u64;
    MegaRun {
        report,
        footprint_bytes,
        wall_secs,
        trace_p99,
    }
}

/// One row of the E24 population sweep.
#[derive(Debug, Clone)]
pub struct PopulationPoint {
    /// Closed-loop population.
    pub users: u64,
    /// Think time used (scaled with the population).
    pub think: SimDuration,
    /// The run.
    pub report: RunReport,
    /// Engine + generator heap bytes divided by the population.
    pub bytes_per_user: f64,
    /// Simulation events per host wall-clock second. Host-dependent —
    /// display only, excluded from determinism checks.
    pub events_per_sec: f64,
}

/// E24 result: the population scale-up curve.
#[derive(Debug, Clone)]
pub struct PopulationScale {
    /// One row per population, in sweep order.
    pub rows: Vec<PopulationPoint>,
    /// Rendered table.
    pub table: String,
}

/// E24 — user-population scale-up: 1k → 1M closed-loop users against the
/// tuned baseline, think time scaled with the population so the nominal
/// offered rate stays fixed. With think ≫ window the measured arrivals are
/// the stagger wave (spread over think/2), so offered load stays bounded
/// at roughly 2× nominal while the population — and therefore generator
/// state — grows by three orders of magnitude. The deliverables are the
/// memory and event-throughput columns: bytes/user must stay flat and
/// events/s must not collapse as users scale.
pub fn e24(config: &Config) -> PopulationScale {
    let rate_rps = config.lab.users as f64 / config.lab.think.as_secs_f64();
    let rows: Vec<PopulationPoint> = scaleup::par::map(config.mega_users.clone(), |users| {
        let think = mega_think(config, users);
        let run = mega_run(config, users, think, |_| {});
        PopulationPoint {
            users,
            think,
            bytes_per_user: run.footprint_bytes as f64 / users as f64,
            events_per_sec: run.report.events_processed as f64 / run.wall_secs.max(1e-9),
            report: run.report,
        }
    });
    let mut table = format!(
        "E24: population scale-up (nominal offered load {rate_rps:.0} req/s, coalesced wakeups)\n   users    think      req/s      p99     events   Mevents/s   B/user\n"
    );
    for p in &rows {
        let _ = writeln!(
            table,
            "{:>8} {:>8} {:>10.0} {:>8} {:>10} {:>11.2} {:>8.1}",
            p.users,
            p.think,
            p.report.throughput_rps,
            p.report.latency_p99,
            p.report.events_processed,
            p.events_per_sec / 1e6,
            p.bytes_per_user,
        );
    }
    let (first, last) = (rows.first().expect("rows"), rows.last().expect("rows"));
    let _ = writeln!(
        table,
        "{}× the users costs {:.1}× the per-user bytes ({:.1} → {:.1} B/user)",
        last.users / first.users.max(1),
        last.bytes_per_user / first.bytes_per_user.max(1e-9),
        first.bytes_per_user,
        last.bytes_per_user,
    );
    PopulationScale { rows, table }
}

/// One arm of the E25 tracing comparison.
#[derive(Debug, Clone)]
pub struct TraceArm {
    /// Arm name: `off`, `head` (every request, head-capped), `reservoir`.
    pub mode: &'static str,
    /// The run (identical simulation results across arms by construction).
    pub report: RunReport,
    /// p99 latency estimated from the retained traces.
    pub trace_p99: Option<SimDuration>,
}

/// E25 result: memory vs fidelity of the tracing modes.
#[derive(Debug, Clone)]
pub struct TraceFidelity {
    /// Population used for all three arms.
    pub users: u64,
    /// `off`, `head`, `reservoir` in that order.
    pub rows: Vec<TraceArm>,
    /// Rendered table.
    pub table: String,
}

/// E25 — memory vs fidelity of request tracing at a fixed 10k-user
/// population. Three arms: tracing off, every-request tracing (which caps
/// at [`Tracer::MAX_TRACES`] and therefore keeps only the *head* of the
/// run), and a same-capacity uniform reservoir (Algorithm R). Both modes
/// pay O(capacity) memory; only the reservoir's p99 estimate tracks the
/// true p99, because the head sample is biased toward the cold start. The
/// simulation itself is byte-identical across arms — tracing draws from a
/// dedicated RNG stream.
pub fn e25(config: &Config) -> TraceFidelity {
    let users = 10_000;
    let think = mega_think(config, users);
    type Patch = fn(&mut EngineParams);
    let arms: Vec<(&'static str, Patch)> = vec![
        ("off", |_| {}),
        ("head", |p| p.trace_sample_every = Some(1)),
        ("reservoir", |p| p.trace_reservoir = Some(Tracer::MAX_TRACES)),
    ];
    let rows: Vec<TraceArm> = scaleup::par::map(arms, |(mode, patch)| {
        let run = mega_run(config, users, think, patch);
        TraceArm {
            mode,
            report: run.report,
            trace_p99: run.trace_p99,
        }
    });
    let off = &rows[0];
    let true_p99 = off.report.latency_p99;
    let mut table = format!(
        "E25: trace memory vs fidelity at {users} users (capacity {} traces)\n mode        retained   trace KiB   est p99   true p99   err%\n",
        Tracer::MAX_TRACES
    );
    for arm in &rows {
        let trace_bytes = arm
            .report
            .engine_footprint_bytes
            .saturating_sub(off.report.engine_footprint_bytes);
        let (est, err) = match arm.trace_p99 {
            Some(p) => (
                p.to_string(),
                format!(
                    "{:+.1}",
                    ratio_pct(p.as_secs_f64(), true_p99.as_secs_f64())
                ),
            ),
            None => ("-".to_owned(), "-".to_owned()),
        };
        let _ = writeln!(
            table,
            " {:<10} {:>9} {:>11.1} {:>9} {:>10} {:>6}",
            arm.mode,
            arm.report.traces_retained,
            trace_bytes as f64 / 1024.0,
            est,
            true_p99,
            err,
        );
    }
    let identical = rows
        .iter()
        .all(|a| a.report.completed == off.report.completed && a.report.latency_p99 == true_p99);
    let _ = writeln!(
        table,
        "simulation results {} across arms (tracing uses its own RNG stream)",
        if identical { "identical" } else { "DIVERGED" },
    );
    TraceFidelity { users, rows, table }
}

/// E26 result: the admission-control sweep at a 100k-user population.
#[derive(Debug, Clone)]
pub struct MegaOverload {
    /// Closed-loop population of every run.
    pub users: u64,
    /// Measured saturation throughput of the overload deployment.
    pub capacity_rps: f64,
    /// `(offered multiple of capacity, unbounded report, admission report)`.
    pub rows: Vec<(f64, RunReport, RunReport)>,
    /// Rendered table.
    pub table: String,
}

/// One closed-loop coalesced run against the overload deployment.
fn run_overload_closed(
    lab: &Lab,
    app: &AppSpec,
    users: u64,
    think: SimDuration,
    overload: Option<OverloadParams>,
) -> RunReport {
    let mix: Vec<f64> = app.classes().iter().map(|c| c.weight).collect();
    let mut params = lab.engine_params.clone();
    params.lb = LbPolicy::LeastOutstanding;
    params.overload = overload;
    let mut engine = Engine::new(
        lab.topo.clone(),
        params,
        app.clone(),
        overload_deployment(app, &lab.topo),
        lab.seed,
    );
    let mut load = ClosedLoop::new(users)
        .think_time(think)
        .coalesce(mega_grain(think))
        .mix(&mix)
        .warmup(lab.warmup)
        .measure(lab.measure);
    engine.run(&mut load, SimTime::ZERO + (lab.warmup + lab.measure) * 4);
    engine.report()
}

/// E26 — E20's admission-control comparison rerun at mega scale: a 100k
/// closed-loop population instead of an open-loop Poisson source. Think
/// times are chosen so the stagger wave offers `m × capacity`; with think
/// far beyond the window, the population behaves like an open-loop source
/// of that rate while the engine carries 100k live users. Admission
/// control must deliver the same verdict as E20 — bounded goodput loss for
/// orders of magnitude of tail latency — at three orders of magnitude more
/// generator state.
pub fn e26(config: &Config) -> MegaOverload {
    let users: u64 = 100_000;
    let app = overload_app();
    let lab = overload_lab(
        config,
        SimDuration::from_millis(500),
        SimDuration::from_millis(2500),
    );
    let capacity_rps = overload_capacity(&lab, &app);
    let admission = OverloadParams::default()
        .with_admission(AdmissionPolicy::RejectNew { bound: 64 })
        .with_queue_deadline(SimDuration::from_millis(5));
    let mults = vec![0.5, 1.5, 3.0];
    let rows: Vec<(f64, RunReport, RunReport)> = scaleup::par::map(mults, |m| {
        // Stagger spreads arrivals over think/2, so think = 2·users/rate
        // makes the wave offer exactly `m × capacity`.
        let think =
            SimDuration::from_nanos((2.0 * users as f64 / (m * capacity_rps) * 1e9) as u64);
        let unbounded = run_overload_closed(
            &lab,
            &app,
            users,
            think,
            Some(OverloadParams::default()),
        );
        let admitted = run_overload_closed(&lab, &app, users, think, Some(admission.clone()));
        (m, unbounded, admitted)
    });
    let mut table = format!(
        "E26: overload at mega scale — {users} closed-loop users (capacity ≈ {capacity_rps:.0} req/s)\n load  config          goodput      p99      shed   max queue\n"
    );
    for (m, unbounded, admitted) in &rows {
        for (name, r) in [("unbounded", unbounded), ("admission", admitted)] {
            let _ = writeln!(
                table,
                " {m:>3.1}×  {:<12} {:>8.0} {:>9} {:>8} {:>10.0}",
                name,
                r.throughput_rps,
                r.latency_p99,
                r.overload.total_sheds(),
                max_queue_depth(r),
            );
        }
    }
    let (_, over_unbounded, over_admitted) = rows.last().expect("swept at least one load");
    let _ = writeln!(
        table,
        "at 3× offered load: admission keeps p99 at {} vs {} unbounded — same verdict as E20\n with 100k live users instead of an open-loop source",
        over_admitted.latency_p99,
        over_unbounded.latency_p99,
    );
    MegaOverload {
        users,
        capacity_rps,
        rows,
        table,
    }
}

// ---------------------------------------------------------------------- E27

/// E27 result: the same measurement grid run cold and warm-started.
#[derive(Debug, Clone)]
pub struct WarmStartStudy {
    /// `(users, horizon extent past warm-up, report)` cells, cold arm.
    pub cold: Vec<(u64, SimDuration, RunReport)>,
    /// The same cells warm-started from one checkpoint per population.
    pub warm: Vec<(u64, SimDuration, RunReport)>,
    /// Wall-clock seconds of the cold arm (every cell replays warm-up).
    pub cold_secs: f64,
    /// Wall-clock seconds of the warm arm (one warm-up per population).
    pub warm_secs: f64,
    /// `true` when both arms agree bit-for-bit on every reported figure.
    pub identical: bool,
    /// Rendered table.
    pub table: String,
}

/// Builds one E27 grid cell: the tuned unpinned deployment under a
/// closed-loop population. No `.measure(..)` — the run horizon bounds each
/// cell instead of a STOP timer, so every extent of the grid can resume
/// from the same warm-up checkpoint.
fn warm_grid_build(config: &Config, users: u64) -> (Engine, ClosedLoop) {
    let lab = &config.lab;
    let app = config.store.app();
    let replicas = config.baseline_replicas();
    let placed = Policy::Unpinned.deploy(app, &lab.topo, &replicas);
    let mix: Vec<f64> = app.classes().iter().map(|c| c.weight).collect();
    let mut params = lab.engine_params.clone();
    params.lb = placed.lb;
    let engine = Engine::new(
        lab.topo.clone(),
        params,
        app.clone(),
        placed.deployment,
        lab.seed,
    );
    let load = ClosedLoop::new(users)
        .think_time(lab.think)
        .mix(&mix)
        .warmup(lab.warmup);
    (engine, load)
}

/// The deterministic fields of one grid cell, for the cold-vs-warm check.
fn warm_grid_fingerprint(
    rows: &[(u64, SimDuration, RunReport)],
) -> Vec<(u64, u64, u64, u64, u64)> {
    rows.iter()
        .map(|(users, extent, r)| {
            (
                *users,
                extent.as_nanos(),
                r.completed,
                r.events_processed,
                r.throughput_rps.to_bits(),
            )
        })
        .collect()
}

/// E27 — warm-started sweeps: one shared checkpoint per closed-loop
/// population serves every measurement extent of the grid. The cold arm
/// replays the warm-up prefix for each cell; the warm arm pays it once,
/// snapshots the full simulation state, and resumes per cell. The two arms
/// must agree bit-for-bit — the snapshot layer's end-to-end guarantee —
/// while the warm arm skips the shared prefix.
pub fn e27(config: &Config) -> WarmStartStudy {
    // Two populations keep the grid honest (a checkpoint is per-population:
    // the user table it captures cannot be reshaped) without dominating the
    // suite's runtime; the extents share one warm-up each.
    let populations: Vec<u64> = config.user_sweep.iter().copied().take(2).collect();
    let extents: Vec<SimDuration> = [1u32, 2, 4]
        .iter()
        .map(|&k| config.lab.measure.mul_f64(0.25 * k as f64))
        .collect();
    let t_warm = SimTime::ZERO + config.lab.warmup;

    let cold_t0 = Instant::now();
    let mut cold = Vec::new();
    for &users in &populations {
        for &extent in &extents {
            let (mut engine, mut load) = warm_grid_build(config, users);
            engine.run(&mut load, t_warm + extent);
            cold.push((users, extent, engine.report()));
        }
    }
    let cold_secs = cold_t0.elapsed().as_secs_f64();

    let warm_t0 = Instant::now();
    let mut warm = Vec::new();
    let mut checkpoint_bytes = 0usize;
    for &users in &populations {
        let (mut engine, mut load) = warm_grid_build(config, users);
        engine.run(&mut load, t_warm);
        let mut w = SnapWriter::new();
        engine.snap_save(&mut w);
        load.snap_save(&mut w);
        let checkpoint = w.finish();
        checkpoint_bytes = checkpoint.len();
        for &extent in &extents {
            let (mut engine, mut load) = warm_grid_build(config, users);
            let mut r = SnapReader::new(&checkpoint)
                .expect("the checkpoint written above is well-formed");
            engine
                .snap_restore(&mut r)
                .expect("the checkpoint restores into the engine that wrote it");
            load.snap_restore(&mut r)
                .expect("the checkpoint restores into the driver that wrote it");
            engine.run_resumed(&mut load, t_warm + extent);
            warm.push((users, extent, engine.report()));
        }
    }
    let warm_secs = warm_t0.elapsed().as_secs_f64();

    let identical = warm_grid_fingerprint(&cold) == warm_grid_fingerprint(&warm);

    let mut table = String::from(
        "E27: warm-started sweep from one shared checkpoint per population\n users  extent      req/s  completed      p99\n",
    );
    for (users, extent, r) in &warm {
        let _ = writeln!(
            table,
            "{:>6} {:>7} {:>10.0} {:>10} {:>8}",
            users,
            extent.to_string(),
            r.throughput_rps,
            r.completed,
            r.latency_p99,
        );
    }
    let _ = writeln!(
        table,
        "cold arm: {cold_secs:.2}s wall ({} cells, each replaying the {} warm-up)",
        cold.len(),
        config.lab.warmup,
    );
    let _ = writeln!(
        table,
        "warm arm: {warm_secs:.2}s wall (one warm-up + {checkpoint_bytes}-byte checkpoint per population, resumed per cell)",
    );
    let _ = writeln!(
        table,
        "warm start saved {:.0}% wall time; cold vs warm reports: {}",
        100.0 * (1.0 - warm_secs / cold_secs.max(1e-9)),
        if identical { "identical" } else { "DIVERGED" },
    );
    WarmStartStudy {
        cold,
        warm,
        cold_secs,
        warm_secs,
        identical,
        table,
    }
}

// ---------------------------------------------------------------------- E28

/// One row of the E28 shard-count scaling sweep.
#[derive(Debug, Clone)]
pub struct ShardScalePoint {
    /// Closed-loop population, summed over all cells.
    pub users: u64,
    /// Shard (cell) count of this run.
    pub shards: u32,
    /// The run (merged across cells for `shards > 1`).
    pub report: RunReport,
    /// Host wall-clock seconds of the simulation loop. Host-dependent —
    /// display only, excluded from determinism checks.
    pub wall_secs: f64,
    /// Simulation events per host wall-clock second (host-dependent).
    pub events_per_sec: f64,
    /// Event rate relative to the 1-shard arm of the same population
    /// (host-dependent; 1.0 for the 1-shard arm by construction).
    pub speedup: f64,
}

/// E28 result: the shard-count scaling curve.
#[derive(Debug, Clone)]
pub struct ShardScaling {
    /// One row per (population, shard count), populations outermost.
    pub rows: Vec<ShardScalePoint>,
    /// Rendered table.
    pub table: String,
}

/// One coalesced closed-loop run of the tuned baseline, sharded into
/// `shards` conservative-lookahead cells (the sharded twin of
/// [`mega_run`]). Returns the merged report and the wall-clock seconds of
/// the simulation loop.
fn mega_run_sharded(
    config: &Config,
    users: u64,
    think: SimDuration,
    shards: u32,
) -> (RunReport, f64) {
    let lab = &config.lab;
    let replicas = config.baseline_replicas();
    let placed = Policy::Unpinned.deploy(config.store.app(), &lab.topo, &replicas);
    let app = config.store.app().clone();
    let mix: Vec<f64> = app.classes().iter().map(|c| c.weight).collect();
    let spec = ShardSpec {
        cells: shards,
        cross_permille: 50,
        latency: SimDuration::from_millis(1),
    };
    let cells: Vec<(Engine, ClosedLoop)> = (0..shards)
        .map(|c| {
            let mut params = lab.engine_params.clone();
            params.lb = placed.lb;
            let engine = Engine::new(
                lab.topo.clone(),
                params,
                app.clone(),
                placed.deployment.clone(),
                mix_seed(lab.seed, c),
            );
            let share = users / u64::from(shards)
                + u64::from(u64::from(c) < users % u64::from(shards));
            let load = ClosedLoop::new(share)
                .think_time(think)
                .coalesce(mega_grain(think))
                .mix(&mix)
                .warmup(lab.warmup)
                .measure(lab.measure);
            (engine, load)
        })
        .collect();
    let mut run = ShardedRun::new(cells, spec);
    let horizon = SimTime::ZERO + (lab.warmup + lab.measure) * 4;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let start = Instant::now();
    run.run(horizon, workers);
    (run.report(), start.elapsed().as_secs_f64())
}

/// E28 — shard-count scaling: event rate and speedup vs shard count for the
/// coalesced mega-scale baseline, at each population in
/// [`Config::shard_users`]. The arms run *sequentially* — each sharded run
/// already owns every host core, so nesting them in the sweep pool would
/// double-subscribe the machine and corrupt the wall-clock columns. The
/// simulated figures (req/s, events) are deterministic per shard count; the
/// events/s and speedup columns are host measurements, display only.
pub fn e28(config: &Config) -> ShardScaling {
    let shard_counts = [1u32, 2, 4, 8];
    let mut rows = Vec::new();
    let mut table = format!(
        "E28: shard-count scaling (coalesced closed loop, {:.1}% cross-cell traffic, 1ms lookahead)\n    users  shards      req/s       events   Mevents/s   speedup\n",
        0.1 * 50.0
    );
    for &users in &config.shard_users {
        let think = mega_think(config, users);
        let mut serial_eps = 0.0;
        for &shards in &shard_counts {
            let (report, wall_secs) = mega_run_sharded(config, users, think, shards);
            let events_per_sec = report.events_processed as f64 / wall_secs.max(1e-9);
            if shards == 1 {
                serial_eps = events_per_sec;
            }
            let speedup = events_per_sec / serial_eps.max(1e-9);
            let _ = writeln!(
                table,
                "{:>9} {:>7} {:>10.0} {:>12} {:>11.2} {:>8.2}×",
                users,
                shards,
                report.throughput_rps,
                report.events_processed,
                events_per_sec / 1e6,
                speedup,
            );
            rows.push(ShardScalePoint {
                users,
                shards,
                report,
                wall_secs,
                events_per_sec,
                speedup,
            });
        }
    }
    let best = rows
        .iter()
        .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
        .expect("at least one row");
    let _ = writeln!(
        table,
        "best speedup: {:.2}× at {} shards / {} users on {} host cores\n(speedup is wall-clock and host-dependent; the simulated columns are deterministic per shard count)",
        best.speedup,
        best.shards,
        best.users,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    ShardScaling { rows, table }
}

/// `repro snap` — end-to-end snapshot/resume identity self-check. Runs the
/// configured TeaStore cell straight and checkpointed, compares the
/// reports bit-for-bit, and returns the rendered verdict plus the snapshot
/// bytes (the CLI writes them to `results/snapshot_quick.bin`). `Err`
/// carries the diagnostic when identity is violated.
pub fn snap_check(config: &Config) -> Result<(String, Vec<u8>), String> {
    let lab = &config.lab;
    let app = config.store.app();
    let replicas = config.baseline_replicas();
    let placed = Policy::Unpinned.deploy(app, &lab.topo, &replicas);
    let straight = lab.run_app(app, placed.deployment.clone(), placed.lb);
    let bytes = lab.snapshot_app(
        app,
        placed.deployment.clone(),
        placed.lb,
        SimTime::ZERO + lab.warmup,
    );
    let resumed = lab
        .resume_app(app, placed.deployment, placed.lb, &bytes)
        .map_err(|e| format!("snap: resume failed: {e}"))?;
    let same = straight.completed == resumed.completed
        && straight.events_processed == resumed.events_processed
        && straight.mean_latency == resumed.mean_latency
        && straight.latency_p99 == resumed.latency_p99
        && straight.throughput_rps.to_bits() == resumed.throughput_rps.to_bits();
    if !same {
        return Err(format!(
            "snap: snapshot identity FAILED\n straight: {} done, {} events, mean {}, p99 {}\n resumed:  {} done, {} events, mean {}, p99 {}",
            straight.completed,
            straight.events_processed,
            straight.mean_latency,
            straight.latency_p99,
            resumed.completed,
            resumed.events_processed,
            resumed.mean_latency,
            resumed.latency_p99,
        ));
    }
    let table = format!(
        "snap: snapshot identity: OK\n {} requests, {} events, p99 {} — run-to-warmup → snapshot → resume matches the straight run bit-for-bit\n checkpoint: {} bytes of serialized simulation state at t = {}\n",
        resumed.completed,
        resumed.events_processed,
        resumed.latency_p99,
        bytes.len(),
        lab.warmup,
    );
    Ok((table, bytes))
}

// ----------------------------------------------------------- chaos search

/// `repro chaos` / E29 result: the search report plus presentation forms.
#[derive(Debug, Clone)]
pub struct ChaosStudy {
    /// Measured saturation throughput of the chaos deployment.
    pub capacity_rps: f64,
    /// Offered open-loop load (70% of capacity).
    pub rate_rps: f64,
    /// The full deterministic search report.
    pub report: scaleup::ChaosReport,
    /// Rendered table.
    pub table: String,
}

/// E29 result: the mitigation-grid chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosSweep {
    /// Per arm: `(name, violations, plans, per-invariant counts)`.
    pub rows: Vec<(String, scaleup::ChaosReport)>,
    /// Rendered table.
    pub table: String,
}

/// The mitigation arms of the chaos studies, in presentation order. The
/// resilience knobs are calibrated from the fault-free baseline exactly
/// like E18/E19/E21 (timeout = 4 × baseline p99; breaker open for 8
/// timeouts); the retry budget matches E21's recovering arm.
fn chaos_mitigations(
    baseline: &RunReport,
) -> Vec<(&'static str, Option<ResilienceParams>, Option<OverloadParams>)> {
    let plain = derived_resilience(baseline, false).with_retry(RetryPolicy {
        max_retries: 3,
        ..RetryPolicy::default()
    });
    let breaker = derived_resilience(baseline, true).with_retry(RetryPolicy {
        max_retries: 3,
        ..RetryPolicy::default()
    });
    let budget = OverloadParams::default().with_retry_budget(RetryBudgetPolicy {
        refill_per_success: 0.1,
        cap: 50.0,
        initial: 50.0,
    });
    vec![
        ("none", None, None),
        ("timeout+retry", Some(plain), None),
        ("breaker", Some(breaker.clone()), None),
        ("breaker+budget", Some(breaker), Some(budget)),
    ]
}

/// Builds the chaos harness for one mitigation arm: the overload app at
/// 70% of measured capacity, open loop, with the fault window in the
/// middle of the measurement window and SLO thresholds derived from the
/// arm's own fault-free baseline.
fn chaos_lab(
    config: &Config,
    resilience: Option<ResilienceParams>,
    overload: Option<OverloadParams>,
) -> scaleup::ChaosLab {
    let app = overload_app();
    let mut lab = overload_lab(config, SimDuration::from_millis(500), config.chaos_measure);
    // Probes fan out across plans (and findings); the engine itself stays
    // serial so forked snapshots restore bit-identically.
    lab.shards = 1;
    let capacity_rps = overload_capacity(&lab, &app);
    let rate_rps = 0.7 * capacity_rps;
    lab.engine_params.resilience = resilience;
    lab.engine_params.overload = overload;

    // Thresholds come from a short fault-free probe of *this* arm, so a
    // violation always means "the faults broke this configuration", never
    // "the mitigation has different fault-free behaviour".
    let mut probe = lab.clone();
    probe.warmup = SimDuration::from_millis(500);
    probe.measure = SimDuration::from_secs(2);
    let deployment = overload_deployment(&app, &lab.topo);
    let baseline = probe.run_app_open(&app, deployment.clone(), LbPolicy::LeastOutstanding, rate_rps);

    let space = microsvc::PlanSpace {
        instances: OVERLOAD_REPLICAS as u32,
        from: SimTime::ZERO + lab.warmup + SimDuration::from_millis(500),
        until: SimTime::ZERO + lab.warmup + SimDuration::from_millis(2000),
        events_min: 4,
        events_max: 8,
    };
    let slo = microsvc::SloPolicy {
        p99_ceiling: baseline.latency_p99.mul_f64(8.0),
        goodput_floor: 0.85,
        recovery_frac: 0.9,
        recovery_within: SimDuration::from_secs(1),
        metastable_frac: 0.5,
    };
    scaleup::ChaosLab::new(
        lab,
        app,
        deployment,
        LbPolicy::LeastOutstanding,
        rate_rps,
        space,
        slo,
    )
}

/// `repro chaos` — fault-space search + shrink against the hardened
/// configuration (breaker + retry budget). Samples `config.chaos_plans`
/// plans from the labeled substream `("chaos.plan", index)` under the
/// lab seed, checks each against the SLO oracle by forking one warm
/// snapshot at the trigger instant, and delta-debugs every violation to a
/// minimal reproducer.
pub fn chaos_search(config: &Config) -> ChaosStudy {
    let lab = chaos_harness(config);
    let capacity_rps = lab.rate_rps() / 0.7;
    let rate_rps = lab.rate_rps();
    let report = lab.search(
        config.lab.seed,
        &scaleup::SearchOptions {
            plans: config.chaos_plans,
            shrink: true,
        },
    );
    let mut table = format!(
        "chaos search (breaker+budget arm, open loop at {rate_rps:.0} req/s = 70% of capacity)\n{} plans sampled from substream (\"chaos.plan\", i), seed {}\n",
        report.plans, report.seed,
    );
    let _ = writeln!(
        table,
        "violations: {} / {} plans",
        report.findings.len(),
        report.plans
    );
    for (slo, n) in report.by_invariant() {
        if n > 0 {
            let _ = writeln!(table, "  {slo:<14} {n}");
        }
    }
    for f in &report.findings {
        let s = f.shrunk.as_ref().expect("chaos search shrinks");
        let _ = writeln!(
            table,
            "plan {:04}: size {} -> minimal {} ({} probes, target {})",
            f.index,
            f.plan.size(),
            s.minimal.size(),
            s.probes,
            f.target,
        );
        for line in s.minimal.describe().lines() {
            let _ = writeln!(table, "    {line}");
        }
    }
    let _ = writeln!(
        table,
        "chaos: plans={} violations={} trajectory={:#018x} minimal={:#018x}",
        report.plans,
        report.findings.len(),
        report.trajectory_hash,
        report.minimal_hash,
    );
    ChaosStudy {
        capacity_rps,
        rate_rps,
        report,
        table,
    }
}

/// The `repro chaos` harness: the hardened (breaker + retry-budget) arm of
/// the mitigation grid, ready to probe candidate plans. Public so the
/// determinism and fork-vs-straight differential tests drive the very
/// harness the CLI uses.
pub fn chaos_harness(config: &Config) -> scaleup::ChaosLab {
    let (resilience, overload) = chaos_mitigations_hardened(config);
    chaos_lab(config, resilience, overload)
}

/// The hardened (breaker + budget) arm's knobs, derived from its own
/// baseline — shared by `repro chaos` and the chaos tests.
fn chaos_mitigations_hardened(
    config: &Config,
) -> (Option<ResilienceParams>, Option<OverloadParams>) {
    // Calibrate from a fault-free probe of the *unmitigated* overload lab
    // (mitigations change p99; the timeout must come from somewhere fixed).
    let app = overload_app();
    let mut probe = overload_lab(config, SimDuration::from_millis(500), SimDuration::from_secs(2));
    probe.shards = 1;
    let capacity_rps = overload_capacity(&probe, &app);
    let baseline = probe.run_app_open(
        &app,
        overload_deployment(&app, &probe.topo),
        LbPolicy::LeastOutstanding,
        0.7 * capacity_rps,
    );
    let mut arms = chaos_mitigations(&baseline);
    let (_, resilience, overload) = arms.remove(3);
    (resilience, overload)
}

/// E29 — chaos sweep over the mitigation grid: the same sampled fault
/// space run against no mitigation, timeout+retry, breaker, and
/// breaker+budget. The per-invariant split is the story: naive retries
/// *grow* the violating region (retry storms turn transient faults into
/// recovery/metastability violations — E21 rediscovered by search), while
/// the breaker arms eliminate the p99 and metastability violations and
/// leave only the goodput dents that lost capacity makes unavoidable.
/// No shrinking — the sweep only sizes the violating region per arm.
pub fn e29(config: &Config) -> ChaosSweep {
    let app = overload_app();
    let mut probe = overload_lab(config, SimDuration::from_millis(500), SimDuration::from_secs(2));
    probe.shards = 1;
    let capacity_rps = overload_capacity(&probe, &app);
    let baseline = probe.run_app_open(
        &app,
        overload_deployment(&app, &probe.topo),
        LbPolicy::LeastOutstanding,
        0.7 * capacity_rps,
    );
    let arms = chaos_mitigations(&baseline);
    let opts = scaleup::SearchOptions {
        plans: config.chaos_sweep_plans,
        shrink: false,
    };
    // Arms run sequentially: each arm's search already fans its probes out
    // across the worker pool.
    let rows: Vec<(String, scaleup::ChaosReport)> = arms
        .into_iter()
        .map(|(name, resilience, overload)| {
            let lab = chaos_lab(config, resilience, overload);
            (name.to_owned(), lab.search(config.lab.seed, &opts))
        })
        .collect();

    let mut table = format!(
        "E29: chaos sweep over the mitigation grid ({} plans per arm, seed {})\nconfig            violations      p99     goodput   recovery   metastable\n",
        config.chaos_sweep_plans, config.lab.seed,
    );
    for (name, report) in &rows {
        let by = report.by_invariant();
        let _ = writeln!(
            table,
            "{:<16} {:>6}/{:<6} {:>6} {:>11} {:>10} {:>12}",
            name,
            report.findings.len(),
            report.plans,
            by[0].1,
            by[1].1,
            by[2].1,
            by[3].1,
        );
    }
    table.push_str(
        "each fault plan is replayable from (seed, index) alone; counts are per violated invariant\n",
    );
    ChaosSweep { rows, table }
}

/// CSV of the E29 sweep.
pub fn csv_e29(sweep: &ChaosSweep) -> String {
    let mut csv = String::from(
        "config,plans,violations,p99_ceiling,goodput_floor,recovery,metastable,trajectory_hash\n",
    );
    for (name, report) in &sweep.rows {
        let by = report.by_invariant();
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{},{},{:#018x}",
            name,
            report.plans,
            report.findings.len(),
            by[0].1,
            by[1].1,
            by[2].1,
            by[3].1,
            report.trajectory_hash,
        );
    }
    csv
}

// ------------------------------------------------------- experiment catalog

/// One entry of the experiment catalog: id, one-line title, and coarse
/// wall-clock estimates for CI budgeting (release build, default jobs).
#[derive(Debug, Clone, Copy)]
pub struct CatalogEntry {
    /// Experiment id as the `repro` binary accepts it (`e3`, `a1`, …).
    pub id: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Estimated `--quick` runtime in seconds.
    pub quick_secs: f64,
    /// Estimated full (paper-scale) runtime in seconds.
    pub full_secs: f64,
    /// Whether the experiment honors `repro --shards N` (its runs route
    /// through the lab's sharded parallel-in-run path). The CI smoke uses
    /// this to pick experiments to exercise with `--shards 2`.
    pub shardable: bool,
}

/// Every experiment the `repro` binary knows, with a one-line description
/// and runtime estimates — drives `repro list` (and its `--json` mode,
/// which the CI smoke uses to pick experiments) and the usage text.
pub fn catalog() -> Vec<CatalogEntry> {
    const fn e(
        id: &'static str,
        title: &'static str,
        quick_secs: f64,
        full_secs: f64,
    ) -> CatalogEntry {
        CatalogEntry {
            id,
            title,
            quick_secs,
            full_secs,
            shardable: false,
        }
    }
    /// A shardable entry: the experiment's runs honor `--shards N`.
    const fn sh(
        id: &'static str,
        title: &'static str,
        quick_secs: f64,
        full_secs: f64,
    ) -> CatalogEntry {
        CatalogEntry {
            id,
            title,
            quick_secs,
            full_secs,
            shardable: true,
        }
    }
    vec![
        e("e1", "platform configuration table", 0.1, 0.1),
        e("e2", "TeaStore services, profiles and request mix", 0.1, 0.1),
        sh("e3", "throughput/latency vs closed-loop users (load curve)", 1.0, 30.0),
        e("e4", "scale-up curve: throughput vs enabled logical CPUs + USL fit", 1.0, 45.0),
        e("e5", "per-service busy CPUs vs load", 1.0, 30.0),
        e("e6", "per-service scaling: replicate one tier at a time + USL", 2.0, 60.0),
        e("e7", "replica tuning of the bottleneck service", 1.0, 30.0),
        sh("e8", "placement-policy comparison at saturation (+22% headline)", 1.0, 30.0),
        e("e9", "latency at matched open load (−18% headline)", 1.0, 20.0),
        e("e10", "SMT on/off at equal core count vs a compute-bound contrast", 1.0, 20.0),
        e("e11", "NUMA locality: local vs remote memory for the data tier", 1.0, 20.0),
        e("e12", "µarch characterization vs reference workloads", 0.5, 5.0),
        e("e13", "scheduler behaviour per placement policy", 1.0, 20.0),
        e("e14", "opportunistic frequency boost extension", 1.0, 20.0),
        e("e15", "simulator vs analytic MVA validation", 0.5, 10.0),
        e("e16", "workload-mix sensitivity extension", 1.0, 30.0),
        e("e17", "CPU-mask enumeration orders at a fixed CPU budget", 1.0, 30.0),
        sh("e18", "slow-replica tail amplification + resilience (faults)", 1.0, 20.0),
        e("e19", "crash and recovery under load (faults)", 1.0, 20.0),
        sh("e20", "overload sweep: admission control vs unbounded queues", 3.0, 30.0),
        sh("e21", "retry-storm metastability; retry budgets recover it", 3.0, 30.0),
        sh("e22", "brownout: priority shedding keeps checkout goodput high", 2.0, 20.0),
        sh("e23", "recovery hysteresis: queue-bound policy vs backlog drain", 3.0, 30.0),
        e("e24", "population scale-up 1k→1M users: events/s and bytes/user", 5.0, 90.0),
        e("e25", "trace memory vs fidelity: head-capped vs reservoir sampling", 2.0, 20.0),
        e("e26", "mega-scale overload: admission sweep at 100k closed-loop users", 5.0, 45.0),
        e("e27", "warm-started sweeps: one shared checkpoint serves a measurement grid", 2.0, 60.0),
        sh("e28", "shard-count scaling: events/s and speedup vs shards (parallel-in-run)", 20.0, 600.0),
        e("e29", "chaos sweep: sampled fault plans vs the mitigation grid", 30.0, 180.0),
        e("snap", "snapshot/resume identity self-check (writes results/snapshot_quick.bin)", 1.0, 15.0),
        e("chaos", "fault-space search + shrink (writes results/chaos_report.json)", 30.0, 120.0),
        e("lint", "static determinism & invariant pass (simlint)", 0.1, 0.1),
        e("a1", "ablation: topology-aware packing objective", 1.0, 20.0),
        e("a2", "ablation: load-balancer policy under pod placement", 1.0, 20.0),
        e("a3", "ablation: idle-steal scope of the scheduler", 1.0, 20.0),
        e("a4", "ablation: scheduler quantum vs tail latency", 1.0, 20.0),
    ]
}

/// The catalog as machine-readable JSON (for `repro list --json`).
pub fn catalog_json() -> String {
    let mut out = String::from("[\n");
    let entries = catalog();
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"id\": \"{}\", \"title\": \"{}\", \"quick_est_secs\": {:.1}, \"full_est_secs\": {:.1}, \"shardable\": {}}}",
            e.id, e.title, e.quick_secs, e.full_secs, e.shardable
        );
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

// -------------------------------------------------------------- CSV export

/// CSV of a [`ScalePoint`] series (used by E4/E6/E7 exports).
pub fn csv_scale_points(points: &[ScalePoint]) -> String {
    let mut csv = scaleup::report::Csv::new(&[
        "n",
        "throughput_rps",
        "mean_latency_us",
        "p99_latency_us",
        "cpu_utilization",
    ]);
    for p in points {
        csv.row_f64(&[
            p.n as f64,
            p.throughput_rps,
            p.mean_latency_us,
            p.p99_latency_us,
            p.cpu_utilization,
        ]);
    }
    csv.finish()
}

/// CSV of the E3 load curve.
pub fn csv_e3(curve: &LoadCurve) -> String {
    let mut csv = scaleup::report::Csv::new(&[
        "users",
        "throughput_rps",
        "mean_latency_us",
        "p95_latency_us",
        "p99_latency_us",
        "cpu_utilization",
    ]);
    for (users, r) in &curve.points {
        csv.row_f64(&[
            *users as f64,
            r.throughput_rps,
            r.mean_latency.as_micros_f64(),
            r.latency_p95.as_micros_f64(),
            r.latency_p99.as_micros_f64(),
            r.cpu_utilization,
        ]);
    }
    csv.finish()
}

/// CSV of the E6 per-service scaling curves (long format).
pub fn csv_e6(result: &ServiceScaling) -> String {
    let mut csv = scaleup::report::Csv::new(&[
        "service",
        "replicas",
        "throughput_rps",
        "usl_sigma",
        "usl_kappa",
    ]);
    for (name, points, fit) in &result.services {
        for p in points {
            csv.row(&[
                name,
                &p.n.to_string(),
                &format!("{:.3}", p.throughput_rps),
                &format!("{:.6}", fit.sigma),
                &format!("{:.8}", fit.kappa),
            ]);
        }
    }
    csv.finish()
}

/// CSV of the E8 placement comparison.
pub fn csv_e8(result: &PlacementComparison) -> String {
    let mut csv = scaleup::report::Csv::new(&[
        "policy",
        "throughput_rps",
        "mean_latency_us",
        "p95_latency_us",
        "cpu_utilization",
    ]);
    for (name, r) in &result.rows {
        csv.row(&[
            name,
            &format!("{:.1}", r.throughput_rps),
            &format!("{:.1}", r.mean_latency.as_micros_f64()),
            &format!("{:.1}", r.latency_p95.as_micros_f64()),
            &format!("{:.4}", r.cpu_utilization),
        ]);
    }
    csv.finish()
}

/// CSV of the E9 latency-vs-load comparison (long format).
pub fn csv_e9(result: &LatencyComparison) -> String {
    let mut csv = scaleup::report::Csv::new(&[
        "load_fraction",
        "config",
        "mean_latency_us",
        "p50_us",
        "p95_us",
        "p99_us",
    ]);
    for (f, base, opt) in &result.points {
        for (name, r) in [("baseline", base), ("topology-aware", opt)] {
            csv.row(&[
                &format!("{f:.2}"),
                name,
                &format!("{:.1}", r.mean_latency.as_micros_f64()),
                &format!("{:.1}", r.latency_p50.as_micros_f64()),
                &format!("{:.1}", r.latency_p95.as_micros_f64()),
                &format!("{:.1}", r.latency_p99.as_micros_f64()),
            ]);
        }
    }
    csv.finish()
}

/// CSV of the E15 simulator-vs-MVA validation.
pub fn csv_e15(result: &MvaValidation) -> String {
    let mut csv = scaleup::report::Csv::new(&["users", "sim_rps", "mva_rps"]);
    for &(users, sim, mva) in &result.points {
        csv.row_f64(&[users as f64, sim, mva]);
    }
    csv.finish()
}

/// CSV of an E18/E19 fault study (one row per configuration).
pub fn csv_fault_study(result: &FaultStudy) -> String {
    let mut csv = scaleup::report::Csv::new(&[
        "config",
        "throughput_rps",
        "mean_latency_us",
        "p99_latency_us",
        "timed_out",
        "shed",
        "replies_dropped",
        "rejected_arrivals",
    ]);
    for (name, r) in &result.rows {
        csv.row(&[
            name,
            &format!("{:.1}", r.throughput_rps),
            &format!("{:.1}", r.mean_latency.as_micros_f64()),
            &format!("{:.1}", r.latency_p99.as_micros_f64()),
            &r.requests_timed_out.to_string(),
            &r.requests_shed.to_string(),
            &r.replies_dropped.to_string(),
            &r.rejected_arrivals.to_string(),
        ]);
    }
    csv.finish()
}

/// CSV of the E19 per-bucket throughput traces (long format).
pub fn csv_e19_series(result: &FaultStudy) -> String {
    let mut csv = scaleup::report::Csv::new(&["config", "t_secs", "throughput_rps"]);
    for (name, r) in &result.rows {
        for &(t, rps) in &r.throughput_series {
            csv.row(&[name, &format!("{t:.3}"), &format!("{rps:.1}")]);
        }
    }
    csv.finish()
}

/// CSV of the E20 overload sweep (long format, one row per load × arm).
pub fn csv_e20(result: &OverloadSweep) -> String {
    let mut csv = scaleup::report::Csv::new(&[
        "load_multiple",
        "config",
        "goodput_rps",
        "p99_latency_us",
        "shed",
        "max_queue_depth",
    ]);
    for (m, unbounded, admitted) in &result.rows {
        for (name, r) in [("unbounded", unbounded), ("admission", admitted)] {
            csv.row(&[
                &format!("{m:.2}"),
                name,
                &format!("{:.1}", r.throughput_rps),
                &format!("{:.1}", r.latency_p99.as_micros_f64()),
                &r.overload.total_sheds().to_string(),
                &format!("{:.0}", max_queue_depth(r)),
            ]);
        }
    }
    csv.finish()
}

/// CSV of the E21 per-bucket goodput and queue-depth traces (long format).
pub fn csv_e21_series(result: &MetastabilityStudy) -> String {
    let mut csv =
        scaleup::report::Csv::new(&["config", "t_secs", "goodput_rps", "queue_depth"]);
    for (name, r) in &result.rows {
        let depth: simcore::DetHashMap<u64, f64> = r
            .queue_depth_series
            .iter()
            .map(|&(t, d)| ((t * 1000.0).round() as u64, d))
            .collect();
        for &(t, rps) in &r.throughput_series {
            let d = depth
                .get(&((t * 1000.0).round() as u64))
                .copied()
                .unwrap_or(0.0);
            csv.row(&[
                name,
                &format!("{t:.3}"),
                &format!("{rps:.1}"),
                &format!("{d:.0}"),
            ]);
        }
    }
    csv.finish()
}

/// CSV of the E22 per-class goodput (one row per arm × class).
pub fn csv_e22(result: &BrownoutStudy) -> String {
    let mut csv = scaleup::report::Csv::new(&[
        "config",
        "class",
        "submitted",
        "shed",
        "goodput_fraction",
    ]);
    for (arm, classes) in &result.class_goodput {
        for (class, submitted, failed, goodput) in classes {
            csv.row(&[
                arm,
                class,
                &submitted.to_string(),
                &failed.to_string(),
                &format!("{goodput:.4}"),
            ]);
        }
    }
    csv.finish()
}

/// CSV of the E23 recovery study (one row per arm).
pub fn csv_e23(result: &RecoveryStudy) -> String {
    let mut csv = scaleup::report::Csv::new(&[
        "config",
        "goodput_rps",
        "p99_latency_us",
        "shed",
        "max_queue_depth",
        "drain_secs_after_burst",
    ]);
    for (name, r, drain) in &result.rows {
        csv.row(&[
            name,
            &format!("{:.1}", r.throughput_rps),
            &format!("{:.1}", r.latency_p99.as_micros_f64()),
            &r.overload.total_sheds().to_string(),
            &format!("{:.0}", max_queue_depth(r)),
            &drain.map(|s| format!("{s:.2}")).unwrap_or_default(),
        ]);
    }
    csv.finish()
}

/// CSV of the E24 population sweep (one row per population).
pub fn csv_e24(result: &PopulationScale) -> String {
    let mut csv = scaleup::report::Csv::new(&[
        "users",
        "think_ms",
        "throughput_rps",
        "p99_latency_us",
        "events",
        "events_per_sec",
        "bytes_per_user",
    ]);
    for p in &result.rows {
        csv.row(&[
            &p.users.to_string(),
            &format!("{:.1}", p.think.as_secs_f64() * 1e3),
            &format!("{:.1}", p.report.throughput_rps),
            &format!("{:.1}", p.report.latency_p99.as_micros_f64()),
            &p.report.events_processed.to_string(),
            &format!("{:.0}", p.events_per_sec),
            &format!("{:.1}", p.bytes_per_user),
        ]);
    }
    csv.finish()
}

/// CSV of the E25 tracing comparison (one row per arm).
pub fn csv_e25(result: &TraceFidelity) -> String {
    let off_footprint = result.rows[0].report.engine_footprint_bytes;
    let mut csv = scaleup::report::Csv::new(&[
        "mode",
        "traces_retained",
        "trace_bytes",
        "est_p99_us",
        "true_p99_us",
        "completed",
    ]);
    for arm in &result.rows {
        csv.row(&[
            arm.mode,
            &arm.report.traces_retained.to_string(),
            &arm
                .report
                .engine_footprint_bytes
                .saturating_sub(off_footprint)
                .to_string(),
            &arm.trace_p99
                .map(|p| format!("{:.1}", p.as_micros_f64()))
                .unwrap_or_default(),
            &format!("{:.1}", result.rows[0].report.latency_p99.as_micros_f64()),
            &arm.report.completed.to_string(),
        ]);
    }
    csv.finish()
}

/// CSV of the E26 mega-scale overload sweep (same shape as E20's).
pub fn csv_e26(result: &MegaOverload) -> String {
    let mut csv = scaleup::report::Csv::new(&[
        "load_multiple",
        "config",
        "goodput_rps",
        "p99_latency_us",
        "shed",
        "max_queue_depth",
    ]);
    for (m, unbounded, admitted) in &result.rows {
        for (name, r) in [("unbounded", unbounded), ("admission", admitted)] {
            csv.row(&[
                &format!("{m:.2}"),
                name,
                &format!("{:.1}", r.throughput_rps),
                &format!("{:.1}", r.latency_p99.as_micros_f64()),
                &r.overload.total_sheds().to_string(),
                &format!("{:.0}", max_queue_depth(r)),
            ]);
        }
    }
    csv.finish()
}

/// CSV of the E28 shard-scaling sweep (one row per population × shards).
pub fn csv_e28(result: &ShardScaling) -> String {
    let mut csv = scaleup::report::Csv::new(&[
        "users",
        "shards",
        "throughput_rps",
        "events",
        "events_per_sec",
        "speedup",
    ]);
    for p in &result.rows {
        csv.row(&[
            &p.users.to_string(),
            &p.shards.to_string(),
            &format!("{:.1}", p.report.throughput_rps),
            &p.report.events_processed.to_string(),
            &format!("{:.0}", p.events_per_sec),
            &format!("{:.3}", p.speedup),
        ]);
    }
    csv.finish()
}

/// CSV rows of one E27 arm; the cold and warm arms must render identically.
pub fn csv_e27_arm(rows: &[(u64, SimDuration, RunReport)]) -> String {
    let mut csv = scaleup::report::Csv::new(&[
        "users",
        "extent_us",
        "completed",
        "events",
        "throughput_rps",
        "p99_latency_us",
    ]);
    for (users, extent, r) in rows {
        csv.row(&[
            &users.to_string(),
            &format!("{:.0}", extent.as_micros_f64()),
            &r.completed.to_string(),
            &r.events_processed.to_string(),
            &format!("{:.3}", r.throughput_rps),
            &format!("{:.1}", r.latency_p99.as_micros_f64()),
        ]);
    }
    csv.finish()
}

/// CSV of the E27 grid (the warm arm; identical to the cold arm by the
/// study's own check).
pub fn csv_e27(result: &WarmStartStudy) -> String {
    csv_e27_arm(&result.warm)
}

// ---------------------------------------------------------------- ablations

/// Ablation A1 — bin-packing objective of the topology-aware policy.
pub fn ablate_objective(config: &Config) -> String {
    let mut out =
        String::from("A1: topology-aware packing objective\nobjective        req/s     mean\n");
    let rows = scaleup::par::map(
        vec![
            ("cpu-only", Objective::CpuOnly),
            ("cache-only", Objective::CacheOnly),
            ("combined", Objective::Combined),
        ],
        |(name, objective)| {
            let placed =
                placement::topology_aware(config.store.app(), &config.lab.topo, None, objective);
            (name, config.lab.run_placed(config.store.app(), placed))
        },
    );
    for (name, r) in rows {
        let _ = writeln!(
            out,
            "{:<14} {:>7.0} {:>8}",
            name, r.throughput_rps, r.mean_latency
        );
    }
    out
}

/// Ablation A2 — load-balancer policy under the pod placement.
pub fn ablate_lb(config: &Config) -> String {
    let mut out =
        String::from("A2: LB policy under pod placement\nlb                   req/s     mean\n");
    let rows = scaleup::par::map(
        vec![
            ("round-robin", LbPolicy::RoundRobin),
            ("least-outstanding", LbPolicy::LeastOutstanding),
            ("locality-aware", LbPolicy::LocalityAware),
        ],
        |(name, lb)| {
            let mut placed = Policy::TopologyAware { ccxs: None }.deploy(
                config.store.app(),
                &config.lab.topo,
                &[],
            );
            placed.lb = lb;
            (name, config.lab.run_placed(config.store.app(), placed))
        },
    );
    for (name, r) in rows {
        let _ = writeln!(
            out,
            "{:<18} {:>8.0} {:>8}",
            name, r.throughput_rps, r.mean_latency
        );
    }
    out
}

/// Ablation A3 — idle-stealing scope of the scheduler (baseline deployment).
pub fn ablate_balance(config: &Config) -> String {
    let replicas = config.baseline_replicas();
    let mut out = String::from(
        "A3: idle-steal scope (unpinned baseline)\nscope          req/s     mean       mig/s\n",
    );
    let rows = scaleup::par::map(
        vec![
            ("none", 0u8, false),
            ("core", 0, true),
            ("ccx", 1, true),
            ("machine", 5, true),
        ],
        |(name, level, enabled)| {
            let mut lab = config.lab.clone();
            lab.engine_params.sched.steal_enabled = enabled;
            lab.engine_params.sched.steal_max_level = level;
            (name, lab.run_policy(&config.store, Policy::Unpinned, &replicas))
        },
    );
    for (name, r) in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>8.0} {:>8} {:>11.0}",
            name,
            r.throughput_rps,
            r.mean_latency,
            r.sched.migrations as f64 / r.window.as_secs_f64(),
        );
    }
    out
}

/// Ablation A4 — scheduler quantum vs. tail latency (baseline deployment).
pub fn ablate_quantum(config: &Config) -> String {
    let replicas = config.baseline_replicas();
    let mut out = String::from(
        "A4: scheduler quantum (unpinned baseline)\nquantum       req/s      p99       csw/s\n",
    );
    let rows = scaleup::par::map(vec![1u64, 3, 10, 30], |ms| {
        let mut lab = config.lab.clone();
        lab.engine_params.sched.quantum = SimDuration::from_millis(ms);
        (ms, lab.run_policy(&config.store, Policy::Unpinned, &replicas))
    });
    for (ms, r) in rows {
        let _ = writeln!(
            out,
            "{:>5} ms {:>10.0} {:>9} {:>11.0}",
            ms,
            r.throughput_rps,
            r.latency_p99,
            r.sched.context_switches as f64 / r.window.as_secs_f64(),
        );
    }
    out
}

/// Topology sanity used by the `repro` binary's `check` subcommand: the
/// headline gap, quickly, on the full machine with a short window.
pub fn headline_check(seed: u64) -> PlacementComparison {
    let config = Config::paper(seed);
    e8(&config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cputopo::Topology;

    fn quick() -> Config {
        Config::quick(7)
    }

    #[test]
    fn e1_e2_render() {
        let c = quick();
        assert!(e1(&c).contains("logical CPUs"));
        assert!(e2(&c).contains("webui"));
        assert!(e2(&c).contains("product"));
    }

    #[test]
    fn e3_load_curve_rises_then_saturates() {
        let c = quick();
        let curve = e3(&c);
        assert_eq!(curve.points.len(), c.user_sweep.len());
        let first = curve.points.first().expect("points").1.throughput_rps;
        let last = curve.points.last().expect("points").1.throughput_rps;
        assert!(
            last > first,
            "throughput must grow with load: {first} → {last}"
        );
    }

    #[test]
    fn e4_scaleup_is_sublinear_but_rising() {
        let c = quick();
        let curve = e4(&c);
        let first = &curve.points[0];
        let last = curve.points.last().expect("points");
        assert!(last.throughput_rps > 1.5 * first.throughput_rps);
        // Sub-linear: efficiency at the top below 100%.
        let eff = (last.throughput_rps / last.n as f64) / (curve.fit.lambda.max(1e-9));
        assert!(eff < 1.05, "efficiency {eff}");
    }

    #[test]
    fn e6_bottleneck_service_has_higher_contention() {
        let c = quick();
        let result = e6(&c);
        assert_eq!(result.services.len(), 5);
        assert!(result.table.contains("webui"));
        for (_, points, _) in &result.services {
            assert_eq!(points.len(), c.replica_sweep.len());
        }
    }

    #[test]
    fn e8_topology_aware_wins_on_quick_config_too() {
        let c = quick();
        let cmp = e8(&c);
        assert_eq!(cmp.rows.len(), 6);
        // On the small machine the gap is smaller but must not be negative
        // by much — the policy must never be a regression.
        assert!(cmp.uplift_pct > -5.0, "uplift {}", cmp.uplift_pct);
    }

    #[test]
    fn e10_smt_speedup_is_modest() {
        let c = quick();
        let smt = e10(&c);
        let gain = smt.smt2_rps / smt.smt1_rps;
        assert!(gain > 0.9 && gain < 2.0, "SMT gain {gain}");
    }

    #[test]
    fn e11_local_beats_remote() {
        let c = quick();
        let numa = e11(&c);
        // desktop_8c has one NUMA node → experiment reports a skip.
        assert!(numa.table.contains("skipped"));
        let paper = Config {
            lab: Lab {
                topo: Arc::new(Topology::zen2_2p_128c()),
                ..Lab::small(3)
            },
            ..quick()
        };
        let numa = e11(&paper);
        assert!(
            numa.local_rps > numa.remote_rps,
            "{} vs {}",
            numa.local_rps,
            numa.remote_rps
        );
    }

    #[test]
    fn e12_microservices_look_different_from_compute() {
        let c = quick();
        let table = e12(&c);
        assert!(table.contains("spec-int-like"));
        assert!(table.contains("webui"));
    }

    #[test]
    fn ablations_render() {
        let c = quick();
        assert!(ablate_lb(&c).contains("locality-aware"));
        assert!(ablate_quantum(&c).contains("ms"));
    }

    #[test]
    fn e18_breaker_tames_the_tail() {
        let c = quick();
        let study = e18(&c);
        assert_eq!(study.rows.len(), 4);
        let p99 = |i: usize| study.rows[i].1.latency_p99;
        let (healthy, slow, breaker) = (p99(0), p99(1), p99(3));
        // The fault must bite, and the breaker must claw most of it back —
        // the acceptance criterion of the resilience layer.
        assert!(
            slow > healthy.mul_f64(3.0),
            "slow replica did not amplify the tail: {slow} vs {healthy}"
        );
        assert!(
            breaker < slow.mul_f64(0.5),
            "breaker failed to reduce tail amplification: {breaker} vs {slow}"
        );
        assert!(
            study.rows[3].1.throughput_rps > study.rows[1].1.throughput_rps,
            "breaker should also recover throughput"
        );
    }

    #[test]
    fn catalog_covers_every_runnable_experiment() {
        let names: Vec<&str> = catalog().iter().map(|e| e.id).collect();
        for e in 1..=29 {
            assert!(names.contains(&format!("e{e}").as_str()), "missing e{e}");
        }
        for a in 1..=4 {
            assert!(names.contains(&format!("a{a}").as_str()), "missing a{a}");
        }
        for extra in ["lint", "snap", "chaos"] {
            assert!(names.contains(&extra), "missing {extra}");
        }
    }

    #[test]
    fn e27_warm_start_matches_cold_and_skips_the_prefix() {
        let c = quick();
        let study = e27(&c);
        assert_eq!(study.cold.len(), study.warm.len());
        assert!(study.identical, "warm-started grid diverged:\n{}", study.table);
        assert_eq!(
            csv_e27_arm(&study.cold),
            csv_e27_arm(&study.warm),
            "cold and warm CSV must be identical"
        );
        // Every cell completed work after the checkpoint.
        assert!(study.warm.iter().all(|(_, _, r)| r.completed > 0));
    }

    #[test]
    fn snap_check_passes_on_the_quick_config() {
        let (table, bytes) = snap_check(&quick()).expect("identity should hold");
        assert!(table.contains("snapshot identity: OK"));
        assert!(!bytes.is_empty());
    }

    #[test]
    fn e20_admission_control_caps_the_overload_tail() {
        let c = quick();
        let sweep = e20(&c);
        assert!(sweep.capacity_rps > 100.0, "capacity {}", sweep.capacity_rps);
        let (m, unbounded, admitted) = sweep.rows.last().expect("has rows");
        assert!(*m >= 2.0);
        // Unbounded queues under 3× load: tail explodes, nothing is shed.
        assert_eq!(unbounded.overload.total_sheds(), 0);
        assert!(
            unbounded.latency_p99 > admitted.latency_p99.mul_f64(5.0),
            "admission must cut the overload tail: {} vs {}",
            admitted.latency_p99,
            unbounded.latency_p99
        );
        // Admission control sheds the excess instead of queueing it, and
        // still delivers goodput within 25% of the unbounded arm's.
        assert!(admitted.overload.total_sheds() > 0);
        assert!(admitted.throughput_rps > 0.75 * unbounded.throughput_rps);
        // The queue-depth series must reflect the bound.
        assert!(max_queue_depth(admitted) <= 65.0 * OVERLOAD_REPLICAS as f64);
        // At half load the two arms behave identically: no sheds anywhere.
        let (_, low_unbounded, low_admitted) = &sweep.rows[0];
        assert_eq!(low_admitted.overload.total_sheds(), 0);
        assert!((low_admitted.throughput_rps - low_unbounded.throughput_rps).abs() < 1.0);
    }

    #[test]
    fn e21_retry_budget_recovers_the_metastable_failure() {
        let c = quick();
        let study = e21(&c);
        // Without a budget the retry storm outlives its trigger: goodput
        // stays below 10% of pre-trigger for at least 30 simulated seconds.
        assert!(
            study.no_budget_pinned_secs >= 30.0,
            "no-budget arm recovered too fast ({}s) — not metastable",
            study.no_budget_pinned_secs
        );
        // With the budget, goodput recovers past 90% of pre-trigger.
        assert!(
            study.budget_recovered_pct > 90.0,
            "budget arm recovered only to {:.1}%",
            study.budget_recovered_pct
        );
        assert!(
            study.budget_recovery_secs.is_some(),
            "budget arm never sustained 90% of pre-trigger goodput"
        );
        // The budget must actually have denied retries during the storm.
        assert!(study.rows[1].1.overload.budget_denied > 0);
        assert_eq!(study.rows[0].1.overload.budget_denied, 0);
    }

    #[test]
    fn e22_priority_shedding_protects_checkout() {
        let c = quick();
        let study = e22(&c);
        // The brownout headline: checkout goodput stays ≥95% under 1.6×
        // overload while browse is shed.
        assert!(
            study.checkout_goodput >= 0.95,
            "checkout goodput {:.3}",
            study.checkout_goodput
        );
        assert!(
            study.browse_goodput < 0.80,
            "browse was not shed: {:.3}",
            study.browse_goodput
        );
        // The class-blind arm cannot protect checkout: it sheds everyone
        // roughly equally, so checkout lands well below the priority arm.
        let blind_checkout = study.class_goodput[0].1[1].3;
        assert!(
            blind_checkout < 0.90,
            "class-blind checkout goodput {blind_checkout:.3}"
        );
    }

    #[test]
    fn e23_bounded_queues_drain_faster_than_unbounded() {
        let c = quick();
        let study = e23(&c);
        assert_eq!(study.rows.len(), 4);
        let drain = |i: usize| study.rows[i].2;
        let unbounded = drain(0).unwrap_or(f64::INFINITY);
        for i in 1..4 {
            let bounded = drain(i).unwrap_or(f64::INFINITY);
            assert!(
                bounded < unbounded,
                "{} drained in {bounded}s, not faster than unbounded's {unbounded}s",
                study.rows[i].0
            );
        }
        // The backlog is the hysteresis: unbounded must carry one for a
        // meaningful fraction of a second after the trigger ends.
        assert!(unbounded > 0.5, "unbounded drained in {unbounded}s");
    }

    #[test]
    fn e19_resilience_recovers_the_crash_dip() {
        let c = quick();
        let study = e19(&c);
        assert_eq!(study.rows.len(), 3);
        let baseline = &study.rows[0].1;
        let bare = &study.rows[1].1;
        let resilient = &study.rows[2].1;
        // Without resilience the dead replica black-holes closed-loop users.
        assert!(
            bare.throughput_rps < baseline.throughput_rps * 0.7,
            "no-resilience crash should depress throughput: {} vs {}",
            bare.throughput_rps,
            baseline.throughput_rps
        );
        assert!(bare.rejected_arrivals > 0, "crash never refused an arrival");
        // With timeouts+retries+breaker the window average stays close.
        assert!(
            resilient.throughput_rps > baseline.throughput_rps * 0.9,
            "resilience failed to recover the dip: {} vs {}",
            resilient.throughput_rps,
            baseline.throughput_rps
        );
        assert!(
            min_throughput_bucket(resilient) > min_throughput_bucket(bare),
            "resilient dip must be shallower than the bare one"
        );
    }
}
