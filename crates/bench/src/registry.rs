//! The experiment registry: one table drives the `repro` binary.
//!
//! Every experiment is one [`Experiment`] row. The row's `run` turns the
//! typed result of its `experiments::*` function into an [`Outcome`]: the
//! text table, an optional plot-ready CSV, the files it writes under
//! `results/`, and its charts in the HTML report. Dispatch, `repro all`,
//! `repro list` (text and `--json`) and the usage text are all generated
//! from [`STUDIES`] and [`TOOLS`], so adding an experiment is adding a row.

use crate::experiments::{
    self as exp, BrownoutStudy, ChaosSweep, FaultStudy, LatencyComparison, LoadCurve, MegaOverload,
    MetastabilityStudy, MvaValidation, OverloadSweep, PlacementComparison, PopulationScale,
    RecoveryStudy, ServiceScaling, ShardScaling, TraceFidelity, WarmStartStudy,
};
use crate::{perf, Config};
use microsvc::RunReport;
use scaleup::html::{HtmlReport, LineChart};
use scaleup::report::Csv;
use scaleup::scaling::ScalePoint;
use simcore::SimDuration;
use std::fmt::Write as _;
use std::path::Path;

/// What one experiment run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The text table printed to stdout (and embedded in the HTML report).
    pub table: String,
    /// Plot-ready CSV as `(file name, contents)`, written under `--csv DIR`.
    pub csv: Option<(&'static str, String)>,
    /// Artifacts as `(file name, bytes)`, written under `results/`.
    pub files: Vec<(&'static str, Vec<u8>)>,
}

impl Outcome {
    fn text(table: String) -> Result<Self, String> {
        Ok(Outcome {
            table,
            ..Outcome::default()
        })
    }

    fn with_csv(file: &'static str, csv: String, table: String) -> Result<Self, String> {
        Ok(Outcome {
            table,
            csv: Some((file, csv)),
            files: Vec::new(),
        })
    }
}

/// A row's runner: the configuration, the `--quick` flag, the `--gate`
/// baseline path, and the HTML report to add charts to. `Err` carries the
/// diagnostic of a failed self-check; `repro` prints it and exits 1.
pub type Run = fn(&Config, bool, Option<&Path>, &mut HtmlReport) -> Result<Outcome, String>;

/// One registry row.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Id as the `repro` binary accepts it (`e3`, `a1`, `perf`, …).
    pub id: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Estimated `--quick` runtime in seconds (release build, default jobs).
    pub quick_secs: f64,
    /// Estimated full (paper-scale) runtime in seconds.
    pub full_secs: f64,
    /// Whether the experiment honors `repro --shards N` (its runs route
    /// through the lab's sharded parallel-in-run path). The CI smoke uses
    /// this to pick experiments to exercise with `--shards 2`.
    pub shardable: bool,
    /// Runs the experiment.
    pub run: Run,
}

const fn row(
    id: &'static str,
    title: &'static str,
    quick_secs: f64,
    full_secs: f64,
    run: Run,
) -> Experiment {
    Experiment {
        id,
        title,
        quick_secs,
        full_secs,
        shardable: false,
        run,
    }
}

/// A row whose runs honor `--shards N`.
const fn sharded(
    id: &'static str,
    title: &'static str,
    quick_secs: f64,
    full_secs: f64,
    run: Run,
) -> Experiment {
    Experiment {
        shardable: true,
        ..row(id, title, quick_secs, full_secs, run)
    }
}

/// The studies, in `repro all` order: the reconstructed tables and figures
/// (E1–E13), the extensions (E14–E29) and the ablations (A1–A4).
#[rustfmt::skip]
pub static STUDIES: &[Experiment] = &[
    row("e1", "platform configuration table", 0.1, 0.1, |c, _, _, _| Outcome::text(exp::e1(c))),
    row("e2", "TeaStore services, profiles and request mix", 0.1, 0.1, |c, _, _, _| Outcome::text(exp::e2(c))),
    sharded("e3", "throughput/latency vs closed-loop users (load curve)", 1.0, 30.0, e3),
    row("e4", "scale-up curve: throughput vs enabled logical CPUs + USL fit", 1.0, 45.0, e4),
    row("e5", "per-service busy CPUs vs load", 1.0, 30.0, |c, _, _, _| Outcome::text(exp::e5(c))),
    row("e6", "per-service scaling: replicate one tier at a time + USL", 2.0, 60.0, e6),
    row("e7", "replica tuning of the bottleneck service", 1.0, 30.0, |c, _, _, _| Outcome::text(exp::e7(c))),
    sharded("e8", "placement-policy comparison at saturation (+22% headline)", 1.0, 30.0, e8),
    row("e9", "latency at matched open load (−18% headline)", 1.0, 20.0, |c, _, _, _| {
        let r = exp::e9(c);
        Outcome::with_csv("e9_latency.csv", csv_e9(&r), r.table)
    }),
    row("e10", "SMT on/off at equal core count vs a compute-bound contrast", 1.0, 20.0, |c, _, _, _| Outcome::text(exp::e10(c).table)),
    row("e11", "NUMA locality: local vs remote memory for the data tier", 1.0, 20.0, |c, _, _, _| Outcome::text(exp::e11(c).table)),
    row("e12", "µarch characterization vs reference workloads", 0.5, 5.0, |c, _, _, _| Outcome::text(exp::e12(c))),
    row("e13", "scheduler behaviour per placement policy", 1.0, 20.0, |c, _, _, _| Outcome::text(exp::e13(c))),
    row("e14", "opportunistic frequency boost extension", 1.0, 20.0, |c, _, _, _| Outcome::text(exp::e14(c))),
    row("e15", "simulator vs analytic MVA validation", 0.5, 10.0, e15),
    row("e16", "workload-mix sensitivity extension", 1.0, 30.0, |c, _, _, _| Outcome::text(exp::e16(c).table)),
    row("e17", "CPU-mask enumeration orders at a fixed CPU budget", 1.0, 30.0, |c, _, _, _| Outcome::text(exp::e17(c))),
    sharded("e18", "slow-replica tail amplification + resilience (faults)", 1.0, 20.0, e18),
    row("e19", "crash and recovery under load (faults)", 1.0, 20.0, e19),
    sharded("e20", "overload sweep: admission control vs unbounded queues", 3.0, 30.0, e20),
    sharded("e21", "retry-storm metastability; retry budgets recover it", 3.0, 30.0, e21),
    sharded("e22", "brownout: priority shedding keeps checkout goodput high", 2.0, 20.0, e22),
    sharded("e23", "recovery hysteresis: queue-bound policy vs backlog drain", 3.0, 30.0, e23),
    row("e24", "population scale-up 1k→1M users: events/s and bytes/user", 5.0, 90.0, e24),
    row("e25", "trace memory vs fidelity: head-capped vs reservoir sampling", 2.0, 20.0, |c, _, _, _| {
        let r = exp::e25(c);
        Outcome::with_csv("e25_trace_fidelity.csv", csv_e25(&r), r.table)
    }),
    row("e26", "mega-scale overload: admission sweep at 100k closed-loop users", 5.0, 45.0, e26),
    row("e27", "warm-started sweeps: one shared checkpoint serves a measurement grid", 2.0, 60.0, e27),
    sharded("e28", "shard-count scaling: events/s and speedup vs shards (parallel-in-run)", 20.0, 600.0, e28),
    row("e29", "chaos sweep: sampled fault plans vs the mitigation grid", 30.0, 180.0, |c, _, _, _| {
        let r = exp::e29(c);
        Outcome::with_csv("e29_chaos_sweep.csv", csv_e29(&r), r.table)
    }),
    row("a1", "ablation: topology-aware packing objective", 1.0, 20.0, |c, _, _, _| Outcome::text(exp::ablate_objective(c))),
    row("a2", "ablation: load-balancer policy under pod placement", 1.0, 20.0, |c, _, _, _| Outcome::text(exp::ablate_lb(c))),
    row("a3", "ablation: idle-steal scope of the scheduler", 1.0, 20.0, |c, _, _, _| Outcome::text(exp::ablate_balance(c))),
    row("a4", "ablation: scheduler quantum vs tail latency", 1.0, 20.0, |c, _, _, _| Outcome::text(exp::ablate_quantum(c))),
];

/// The self-checks and the simulator self-benchmark: runnable by id, but
/// not part of `repro all`.
#[rustfmt::skip]
pub static TOOLS: &[Experiment] = &[
    row("perf", "simulator self-benchmark (writes results/BENCH_simperf.json)", 5.0, 30.0, run_perf),
    row("lint", "static determinism & invariant pass (simlint)", 0.1, 0.1, lint),
    row("snap", "snapshot/resume identity self-check (writes results/snapshot_quick.bin)", 1.0, 15.0, |c, _, _, _| {
        let (table, bytes) = exp::snap_check(c)?;
        Ok(Outcome { table, csv: None, files: vec![("snapshot_quick.bin", bytes)] })
    }),
    row("chaos", "fault-space search + shrink (writes results/chaos_report.json)", 30.0, 120.0, |c, _, _, _| {
        let r = exp::chaos_search(c);
        Ok(Outcome { table: r.table, csv: None, files: vec![("chaos_report.json", r.report.to_json().into_bytes())] })
    }),
];

/// Every row: the studies, then the tools.
pub fn rows() -> impl Iterator<Item = &'static Experiment> {
    STUDIES.iter().chain(TOOLS)
}

/// The row registered under `id`.
pub fn find(id: &str) -> Option<&'static Experiment> {
    rows().find(|e| e.id == id)
}

/// The rows one command-line word selects: `all` is every study, any other
/// word a single registered id.
pub fn select(word: &str) -> Option<&'static [Experiment]> {
    if word == "all" {
        return Some(STUDIES);
    }
    find(word).map(std::slice::from_ref)
}

/// `repro list`: one line per row.
pub fn list_text() -> String {
    let mut out = String::new();
    for e in rows() {
        let _ = writeln!(
            out,
            "{:<5} {}  (~{:.0}s quick / ~{:.0}s full)",
            e.id, e.title, e.quick_secs, e.full_secs
        );
    }
    out
}

/// `repro list --json`: the registry as machine-readable JSON. The CI smoke
/// selects experiments from it by runtime estimate and shardability.
pub fn list_json() -> String {
    let mut out = String::from("[\n");
    let entries: Vec<&Experiment> = rows().collect();
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

/// The `repro` usage text.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: repro [--quick] [--seed N] [--jobs N] [--shards N] [--csv DIR] [--html FILE] [--gate BASELINE.json] <id | all>...\n\
         \x20      repro list [--json]\n\
         studies (`all` runs every one, in this order):\n",
    );
    for (i, e) in rows().enumerate() {
        if i == STUDIES.len() {
            out.push_str("tools:\n");
        }
        let _ = writeln!(out, "  {:<5} {}", e.id, e.title);
    }
    out.push_str(
        "--shards N runs every shardable experiment (see `list --json`) with N\n\
         \x20          parallel-in-run cells; unshardable experiments ignore it\n\
         --gate BASELINE.json (perf only) fails if events/s regress vs the baseline\n\
         list enumerates every experiment (--json for the machine-readable catalog)",
    );
    out
}

// ------------------------------------------------------------------ runners

fn e3(c: &Config, _: bool, _: Option<&Path>, html: &mut HtmlReport) -> Result<Outcome, String> {
    let r = exp::e3(c);
    html.chart(
        "E3: load curve",
        LineChart::new("throughput vs closed-loop users", "users", "req/s").series(
            "tuned baseline",
            r.points
                .iter()
                .map(|(u, rep)| (*u as f64, rep.throughput_rps))
                .collect(),
        ),
    );
    Outcome::with_csv("e3_load_curve.csv", csv_e3(&r), r.table)
}

fn e4(c: &Config, _: bool, _: Option<&Path>, html: &mut HtmlReport) -> Result<Outcome, String> {
    let r = exp::e4(c);
    let measured: Vec<(f64, f64)> = r
        .points
        .iter()
        .map(|p| (p.n as f64, p.throughput_rps))
        .collect();
    let fitted: Vec<(f64, f64)> = r
        .points
        .iter()
        .map(|p| (p.n as f64, r.fit.predict(p.n as f64)))
        .collect();
    html.chart(
        "E4: scale-up",
        LineChart::new(
            "throughput vs enabled logical CPUs",
            "logical CPUs",
            "req/s",
        )
        .series("measured", measured)
        .series("USL fit", fitted),
    );
    Outcome::with_csv("e4_scaleup.csv", csv_scale_points(&r.points), r.table)
}

fn e6(c: &Config, _: bool, _: Option<&Path>, html: &mut HtmlReport) -> Result<Outcome, String> {
    let r = exp::e6(c);
    let mut chart = LineChart::new("throughput vs replicas of one service", "replicas", "req/s");
    for (name, points, _) in &r.services {
        chart = chart.series(
            name,
            points
                .iter()
                .map(|p| (p.n as f64, p.throughput_rps))
                .collect(),
        );
    }
    html.chart("E6: per-service scaling", chart);
    Outcome::with_csv("e6_service_scaling.csv", csv_e6(&r), r.table)
}

fn e8(c: &Config, _: bool, _: Option<&Path>, html: &mut HtmlReport) -> Result<Outcome, String> {
    let r = exp::e8(c);
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .zip(&r.throughput)
        .map(|((name, rep), x)| {
            vec![
                name.clone(),
                x.display(" req/s"),
                rep.mean_latency.to_string(),
                format!("{:.1}%", rep.cpu_utilization * 100.0),
                format!("{:+.1}%", 100.0 * (x.mean / r.throughput[0].mean - 1.0)),
            ]
        })
        .collect();
    html.table(
        "E8: placement policies (headline)",
        &[
            "policy",
            "throughput",
            "mean latency",
            "util",
            "vs baseline",
        ],
        rows,
    );
    Outcome::with_csv("e8_placement.csv", csv_e8(&r), r.table)
}

fn e15(c: &Config, _: bool, _: Option<&Path>, html: &mut HtmlReport) -> Result<Outcome, String> {
    let r = exp::e15(c);
    html.chart(
        "E15: simulator vs analytic MVA",
        LineChart::new("simulated vs predicted throughput", "users", "req/s")
            .series(
                "simulator",
                r.points.iter().map(|&(u, s, _)| (u as f64, s)).collect(),
            )
            .series(
                "MVA",
                r.points.iter().map(|&(u, _, m)| (u as f64, m)).collect(),
            ),
    );
    Outcome::with_csv("e15_mva.csv", csv_e15(&r), r.table)
}

fn e18(c: &Config, _: bool, _: Option<&Path>, html: &mut HtmlReport) -> Result<Outcome, String> {
    let r = exp::e18(c);
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|(name, rep)| {
            vec![
                name.clone(),
                format!("{:.0}", rep.throughput_rps),
                rep.mean_latency.to_string(),
                rep.latency_p99.to_string(),
                rep.requests_timed_out.to_string(),
                rep.requests_shed.to_string(),
            ]
        })
        .collect();
    html.table(
        "E18: slow-replica tail amplification",
        &["config", "req/s", "mean", "p99", "timed out", "shed"],
        rows,
    );
    Outcome::with_csv("e18_slow_replica.csv", csv_fault_study(&r), r.table)
}

fn e19(c: &Config, _: bool, _: Option<&Path>, html: &mut HtmlReport) -> Result<Outcome, String> {
    let r = exp::e19(c);
    let mut chart = LineChart::new(
        "throughput through a crash/restart of one replica",
        "seconds since measurement start",
        "req/s",
    );
    for (name, rep) in &r.rows {
        chart = chart.series(name, rep.throughput_series.clone());
    }
    html.chart("E19: crash and recovery", chart);
    Outcome::with_csv("e19_crash_recovery.csv", csv_e19_series(&r), r.table)
}

/// Goodput and p99 charts of an unbounded-vs-admission sweep (E20, E26).
fn overload_series(
    rows: &[(f64, RunReport, RunReport)],
    pick: fn(&RunReport) -> f64,
) -> [(&'static str, Vec<(f64, f64)>); 2] {
    [
        (
            "unbounded",
            rows.iter().map(|(m, u, _)| (*m, pick(u))).collect(),
        ),
        (
            "admission control",
            rows.iter().map(|(m, _, a)| (*m, pick(a))).collect(),
        ),
    ]
}

fn e20(c: &Config, _: bool, _: Option<&Path>, html: &mut HtmlReport) -> Result<Outcome, String> {
    let r = exp::e20(c);
    let mut goodput = LineChart::new(
        "goodput vs offered load (multiple of capacity)",
        "offered load (× capacity)",
        "req/s",
    );
    for (name, pts) in overload_series(&r.rows, |rep| rep.throughput_rps) {
        goodput = goodput.series(name, pts);
    }
    let mut p99 = LineChart::new(
        "p99 latency vs offered load",
        "offered load (× capacity)",
        "p99 µs",
    );
    for (name, pts) in overload_series(&r.rows, |rep| rep.latency_p99.as_micros_f64()) {
        p99 = p99.series(name, pts);
    }
    html.chart("E20: overload sweep — goodput", goodput);
    html.chart("E20: overload sweep — tail latency", p99);
    Outcome::with_csv("e20_overload_sweep.csv", csv_e20(&r), r.table)
}

/// Goodput and queue-depth charts over time, one series per arm (E21, E23).
fn goodput_and_depth<'a>(
    arms: impl Iterator<Item = (&'a String, &'a RunReport)>,
    goodput_title: &str,
    depth_title: &str,
) -> (LineChart, LineChart) {
    let mut goodput = LineChart::new(goodput_title, "seconds since measurement start", "req/s");
    let mut depth = LineChart::new(
        depth_title,
        "seconds since measurement start",
        "queued jobs",
    );
    for (name, rep) in arms {
        goodput = goodput.series(name, rep.throughput_series.clone());
        depth = depth.series(name, rep.queue_depth_series.clone());
    }
    (goodput, depth)
}

fn e21(c: &Config, _: bool, _: Option<&Path>, html: &mut HtmlReport) -> Result<Outcome, String> {
    let r = exp::e21(c);
    let (goodput, depth) = goodput_and_depth(
        r.rows.iter().map(|(n, rep)| (n, rep)),
        "goodput through the retry storm",
        "pending-queue depth through the retry storm",
    );
    html.chart("E21: retry-storm metastability — goodput", goodput);
    html.chart("E21: retry-storm metastability — queue depth", depth);
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|(name, rep)| {
            vec![
                name.clone(),
                format!("{:.0}", rep.throughput_rps),
                rep.requests_timed_out.to_string(),
                rep.overload.budget_denied.to_string(),
                rep.overload.total_sheds().to_string(),
                rep.overload.deferred.to_string(),
            ]
        })
        .collect();
    html.table(
        "E21: overload counters",
        &[
            "config",
            "goodput",
            "timed out",
            "budget-denied",
            "shed",
            "deferred",
        ],
        rows,
    );
    Outcome::with_csv("e21_metastability.csv", csv_e21_series(&r), r.table)
}

fn e22(c: &Config, _: bool, _: Option<&Path>, html: &mut HtmlReport) -> Result<Outcome, String> {
    let r = exp::e22(c);
    let mut chart = LineChart::new(
        "per-class goodput under 1.6× overload (priority shedding)",
        "seconds since measurement start",
        "req/s",
    );
    let (arm, rep) = &r.rows[1];
    for (class, series) in &rep.per_class_series {
        chart = chart.series(&format!("{arm}: {class}"), series.clone());
    }
    html.chart("E22: brownout — per-class goodput", chart);
    let rows: Vec<Vec<String>> = r
        .class_goodput
        .iter()
        .flat_map(|(arm, classes)| {
            classes
                .iter()
                .map(move |(class, submitted, failed, goodput)| {
                    vec![
                        arm.clone(),
                        class.clone(),
                        submitted.to_string(),
                        failed.to_string(),
                        format!("{:.1}%", goodput * 100.0),
                    ]
                })
        })
        .collect();
    html.table(
        "E22: per-class goodput",
        &["config", "class", "submitted", "shed", "goodput"],
        rows,
    );
    Outcome::with_csv("e22_brownout.csv", csv_e22(&r), r.table)
}

fn e23(c: &Config, _: bool, _: Option<&Path>, html: &mut HtmlReport) -> Result<Outcome, String> {
    let r = exp::e23(c);
    let (goodput, depth) = goodput_and_depth(
        r.rows.iter().map(|(n, rep, _)| (n, rep)),
        "goodput through a 1s slowdown burst",
        "pending-queue depth through the burst",
    );
    html.chart("E23: recovery hysteresis — goodput", goodput);
    html.chart("E23: recovery hysteresis — queue depth", depth);
    Outcome::with_csv("e23_recovery.csv", csv_e23(&r), r.table)
}

fn e24(c: &Config, _: bool, _: Option<&Path>, html: &mut HtmlReport) -> Result<Outcome, String> {
    let r = exp::e24(c);
    html.chart(
        "E24: population scale-up — per-user memory",
        LineChart::new(
            "engine + generator bytes per closed-loop user",
            "users",
            "B/user",
        )
        .series(
            "bytes/user",
            r.rows
                .iter()
                .map(|p| (p.users as f64, p.bytes_per_user))
                .collect(),
        ),
    );
    html.chart(
        "E24: population scale-up — simulator speed",
        LineChart::new(
            "calendar events per host wall-clock second",
            "users",
            "events/s",
        )
        .series(
            "events/s",
            r.rows
                .iter()
                .map(|p| (p.users as f64, p.events_per_sec))
                .collect(),
        ),
    );
    Outcome::with_csv("e24_population_scaleup.csv", csv_e24(&r), r.table)
}

fn e26(c: &Config, _: bool, _: Option<&Path>, html: &mut HtmlReport) -> Result<Outcome, String> {
    let r = exp::e26(c);
    let mut p99 = LineChart::new(
        "p99 latency vs offered load (100k closed-loop users)",
        "offered load (× capacity)",
        "p99 µs",
    );
    for (name, pts) in overload_series(&r.rows, |rep| rep.latency_p99.as_micros_f64()) {
        p99 = p99.series(name, pts);
    }
    html.chart("E26: mega-scale overload — tail latency", p99);
    Outcome::with_csv("e26_mega_overload.csv", csv_e26(&r), r.table)
}

fn e27(c: &Config, _: bool, _: Option<&Path>, _: &mut HtmlReport) -> Result<Outcome, String> {
    let r = exp::e27(c);
    if !r.identical {
        return Err(format!(
            "{}\ne27 FAILED: warm-started grid diverged from the cold run",
            r.table
        ));
    }
    Outcome::with_csv("e27_warm_start.csv", csv_e27(&r), r.table)
}

fn e28(c: &Config, _: bool, _: Option<&Path>, html: &mut HtmlReport) -> Result<Outcome, String> {
    let r = exp::e28(c);
    let mut eps = LineChart::new("event rate vs shard count", "shards", "events/s");
    let mut speedup = LineChart::new(
        "speedup over the 1-shard arm vs shard count",
        "shards",
        "speedup",
    );
    let mut populations: Vec<u64> = r.rows.iter().map(|p| p.users).collect();
    populations.dedup();
    for users in populations {
        let pts: Vec<&exp::ShardScalePoint> = r.rows.iter().filter(|p| p.users == users).collect();
        eps = eps.series(
            &format!("{users} users"),
            pts.iter()
                .map(|p| (f64::from(p.shards), p.events_per_sec))
                .collect(),
        );
        speedup = speedup.series(
            &format!("{users} users"),
            pts.iter()
                .map(|p| (f64::from(p.shards), p.speedup))
                .collect(),
        );
    }
    html.chart("E28: shard-count scaling — event rate", eps);
    html.chart("E28: shard-count scaling — speedup", speedup);
    Outcome::with_csv("e28_shard_scaling.csv", csv_e28(&r), r.table)
}

fn run_perf(
    _: &Config,
    quick: bool,
    gate: Option<&Path>,
    _: &mut HtmlReport,
) -> Result<Outcome, String> {
    // Read the baseline up front: a missing or unreadable file fails before
    // the benchmark runs, not after.
    let committed = gate
        .map(|p| perf::read_baseline(p).map_err(|msg| format!("{msg}\nperf gate FAILED")))
        .transpose()?;
    let (mut table, json) = perf::run(quick);
    if let Some(committed) = committed {
        let report = perf::gate(&committed, &json, 0.5)
            .map_err(|report| format!("{report}perf gate FAILED"))?;
        table = format!("{report}\n{table}");
    }
    Ok(Outcome {
        table,
        csv: None,
        files: vec![("BENCH_simperf.json", json.into_bytes())],
    })
}

/// Static determinism & invariant pass (see DESIGN.md "Static analysis").
/// Same engine as `cargo run -p simlint` and the tier-1 gate in
/// tests/simlint.rs.
fn lint(_: &Config, _: bool, _: Option<&Path>, _: &mut HtmlReport) -> Result<Outcome, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    let report = simlint::lint_workspace(&simlint::find_root(&cwd));
    let text = simlint::render_text(&report);
    if report.gating_count() > 0 || !report.stale_baseline.is_empty() {
        return Err(format!("{text}repro lint FAILED"));
    }
    Outcome::text(text)
}

// -------------------------------------------------------------- CSV export

/// CSV of a [`ScalePoint`] series (used by E4/E6/E7 exports).
fn csv_scale_points(points: &[ScalePoint]) -> String {
    let mut csv = Csv::new(&[
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
fn csv_e3(curve: &LoadCurve) -> String {
    let mut csv = Csv::new(&[
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
fn csv_e6(result: &ServiceScaling) -> String {
    let mut csv = Csv::new(&[
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
fn csv_e8(result: &PlacementComparison) -> String {
    let mut csv = Csv::new(&[
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
fn csv_e9(result: &LatencyComparison) -> String {
    let mut csv = Csv::new(&[
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
fn csv_e15(result: &MvaValidation) -> String {
    let mut csv = Csv::new(&["users", "sim_rps", "mva_rps"]);
    for &(users, sim, mva) in &result.points {
        csv.row_f64(&[users as f64, sim, mva]);
    }
    csv.finish()
}

/// CSV of an E18/E19 fault study (one row per configuration).
fn csv_fault_study(result: &FaultStudy) -> String {
    let mut csv = Csv::new(&[
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
fn csv_e19_series(result: &FaultStudy) -> String {
    let mut csv = Csv::new(&["config", "t_secs", "throughput_rps"]);
    for (name, r) in &result.rows {
        for &(t, rps) in &r.throughput_series {
            csv.row(&[name, &format!("{t:.3}"), &format!("{rps:.1}")]);
        }
    }
    csv.finish()
}

/// CSV of the E20 overload sweep (long format, one row per load × arm).
fn csv_e20(result: &OverloadSweep) -> String {
    let mut csv = Csv::new(&[
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
                &format!("{:.0}", exp::max_queue_depth(r)),
            ]);
        }
    }
    csv.finish()
}

/// CSV of the E21 per-bucket goodput and queue-depth traces (long format).
fn csv_e21_series(result: &MetastabilityStudy) -> String {
    let mut csv = Csv::new(&["config", "t_secs", "goodput_rps", "queue_depth"]);
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
fn csv_e22(result: &BrownoutStudy) -> String {
    let mut csv = Csv::new(&["config", "class", "submitted", "shed", "goodput_fraction"]);
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
fn csv_e23(result: &RecoveryStudy) -> String {
    let mut csv = Csv::new(&[
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
            &format!("{:.0}", exp::max_queue_depth(r)),
            &drain.map(|s| format!("{s:.2}")).unwrap_or_default(),
        ]);
    }
    csv.finish()
}

/// CSV of the E24 population sweep (one row per population).
fn csv_e24(result: &PopulationScale) -> String {
    let mut csv = Csv::new(&[
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
fn csv_e25(result: &TraceFidelity) -> String {
    let off_footprint = result.rows[0].report.engine_footprint_bytes;
    let mut csv = Csv::new(&[
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
            &arm.report
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
fn csv_e26(result: &MegaOverload) -> String {
    let mut csv = Csv::new(&[
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
                &format!("{:.0}", exp::max_queue_depth(r)),
            ]);
        }
    }
    csv.finish()
}

/// CSV of the E28 shard-scaling sweep (one row per population × shards).
fn csv_e28(result: &ShardScaling) -> String {
    let mut csv = Csv::new(&[
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
pub(crate) fn csv_e27_arm(rows: &[(u64, SimDuration, RunReport)]) -> String {
    let mut csv = Csv::new(&[
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
fn csv_e27(result: &WarmStartStudy) -> String {
    csv_e27_arm(&result.warm)
}

/// CSV of the E29 sweep.
fn csv_e29(sweep: &ChaosSweep) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_across_studies_and_tools() {
        let ids: Vec<&str> = rows().map(|e| e.id).collect();
        for (i, id) in ids.iter().enumerate() {
            assert!(!ids[i + 1..].contains(id), "{id} is registered twice");
            assert_ne!(*id, "all", "`all` is reserved for the study slice");
            assert_ne!(*id, "list", "`list` is reserved for the catalog");
        }
    }

    #[test]
    fn all_selects_exactly_the_studies_in_order() {
        let all: Vec<&str> = select("all").expect("all").iter().map(|e| e.id).collect();
        let studies: Vec<&str> = STUDIES.iter().map(|e| e.id).collect();
        assert_eq!(all, studies);
        for e in rows() {
            let picked = select(e.id).expect("every id selects its row");
            assert_eq!(picked.len(), 1);
            assert_eq!(picked[0].id, e.id);
        }
        assert!(select("e99").is_none());
    }

    #[test]
    fn every_list_json_line_carries_the_catalog_fields() {
        let json = list_json();
        let lines: Vec<&str> = json
            .lines()
            .filter(|l| l.trim_start().starts_with('{'))
            .collect();
        assert_eq!(lines.len(), rows().count());
        for (line, e) in lines.iter().zip(rows()) {
            assert!(line.contains(&format!("\"id\": \"{}\"", e.id)), "{line}");
            for key in ["title", "quick_est_secs", "full_est_secs", "shardable"] {
                assert!(
                    line.contains(&format!("\"{key}\": ")),
                    "{key} missing: {line}"
                );
            }
        }
    }

    #[test]
    fn usage_and_list_name_every_row() {
        let (usage, list) = (usage(), list_text());
        for e in rows() {
            assert!(
                usage.contains(&format!("  {:<5} {}\n", e.id, e.title)),
                "usage: {}",
                e.id
            );
            assert!(
                list.contains(&format!("{:<5} {}  ", e.id, e.title)),
                "list: {}",
                e.id
            );
        }
    }
}
