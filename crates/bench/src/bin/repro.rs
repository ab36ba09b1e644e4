//! `repro` — regenerates every table and figure of the study.
//!
//! ```text
//! repro [--quick] [--seed N] [--jobs N] [--csv DIR] [--html FILE] <experiment>...
//! repro all                    # everything, in order
//! repro list                   # enumerate every experiment with a description
//! repro list --json            # the catalog as JSON (id, title, runtime estimates)
//! repro e8 e9                  # just the headline pair
//! repro --csv results e4 e8    # also write plot-ready CSV files
//! repro --jobs 1 all           # force a sequential sweep (byte-identical)
//! repro perf                   # simulator self-benchmark -> results/BENCH_simperf.json
//! repro lint                   # static determinism & invariant pass (simlint)
//! repro snap                   # snapshot/resume identity check -> results/snapshot_quick.bin
//! repro chaos                  # fault-space search + shrink -> results/chaos_report.json
//! ```
//!
//! Experiments: e1 … e27 (e14–e19 are extensions/validation, e20–e23 the
//! overload & metastability studies, e24–e26 the mega-scale studies, e27
//! the warm-started checkpoint sweep),
//! ablations: a1 (packing objective) a2 (LB) a3 (steal scope) a4 (quantum),
//! plus `perf`, the simulator self-benchmark.
//!
//! Sweeps run on the work-stealing pool in `scaleup::par`; `--jobs N` caps
//! the workers (default: all CPUs). Results are merged in sweep order, so
//! any `--jobs` value produces byte-identical reports.

use scaleup_bench::experiments as exp;
use scaleup_bench::Config;
use std::time::Instant;

const ALL: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20", "e21", "e22", "e23", "e24", "e25", "e26", "e27", "e28",
    "e29", "a1", "a2", "a3", "a4",
];

fn list(json: bool) -> ! {
    if json {
        print!("{}", exp::catalog_json());
    } else {
        for e in exp::catalog() {
            println!("{:<5} {}  (~{:.0}s quick / ~{:.0}s full)", e.id, e.title, e.quick_secs, e.full_secs);
        }
        println!("perf  simulator self-benchmark (writes results/BENCH_simperf.json)");
    }
    std::process::exit(0);
}

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] [--seed N] [--jobs N] [--shards N] [--csv DIR] [--html FILE] [--gate BASELINE.json] <e1..e29 | a1..a4 | perf | snap | chaos | all>...\n\
         e1  platform table          e8  placement comparison (+22% headline)\n\
         e2  TeaStore table          e9  latency at fixed load (−18% headline)\n\
         e3  load curve              e10 SMT study\n\
         e4  scale-up curve          e11 NUMA locality\n\
         e5  per-service util        e12 µarch characterization\n\
         e6  per-service USL         e13 scheduler behaviour\n\
         e7  replica tuning          e14 frequency-boost extension\n\
         e15 MVA validation          e16 mix-sensitivity extension\n\
         e17 enumeration orders      e18 slow-replica tail (faults)\n\
         e19 crash & recovery       e20 overload sweep (admission control)\n\
         e21 retry-storm metastability  e22 brownout / priority shedding\n\
         e23 recovery hysteresis     e24 population scale-up 1k..1M\n\
         e25 trace memory/fidelity   e26 mega-scale overload (100k users)\n\
         e27 warm-started sweeps     e28 shard-count scaling (events/s vs shards)\n\
         e29 chaos sweep: sampled fault plans vs the mitigation grid\n\
         a1..a4 ablations\n\
         --shards N runs every shardable experiment (see `list --json`) with\n\
              N parallel-in-run cells; unshardable experiments ignore it\n\
         perf simulator self-benchmark (writes results/BENCH_simperf.json;\n\
              with --gate, fail if events/s regress vs the committed baseline)\n\
         lint static determinism & invariant pass (simlint; fails on findings)
         snap snapshot/resume identity check (writes results/snapshot_quick.bin)\n\
         chaos fault-space search + shrink (writes results/chaos_report.json)\n\
         list enumerate every experiment (--json for the machine-readable catalog)"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut seed = 42u64;
    let mut shards = 1u32;
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut html_path: Option<std::path::PathBuf> = None;
    let mut gate_path: Option<std::path::PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut list_mode = false;
    let mut json = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--seed" => {
                seed = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--jobs" => {
                let jobs: usize = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                scaleup::par::set_jobs(jobs.max(1));
            }
            "--shards" => {
                shards = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--csv" => {
                csv_dir = Some(iter.next().map(Into::into).unwrap_or_else(|| usage()));
            }
            "--gate" => {
                gate_path = Some(iter.next().map(Into::into).unwrap_or_else(|| usage()));
            }
            "--html" => {
                html_path = Some(iter.next().map(Into::into).unwrap_or_else(|| usage()));
            }
            "all" => wanted.extend(ALL.iter().map(|s| s.to_string())),
            "list" => list_mode = true,
            "perf" => wanted.push("perf".to_owned()),
            "lint" => wanted.push("lint".to_owned()),
            "snap" => wanted.push("snap".to_owned()),
            "chaos" => wanted.push("chaos".to_owned()),
            e if ALL.contains(&e) => wanted.push(e.to_owned()),
            _ => usage(),
        }
    }
    if list_mode {
        list(json);
    }
    if wanted.is_empty() {
        usage();
    }
    // --gate without the perf experiment used to parse and then silently do
    // nothing; fail up front instead.
    if let Err(msg) = scaleup_bench::perf::gate_requires_perf(&wanted, gate_path.is_some()) {
        eprintln!("{msg}");
        std::process::exit(2);
    }
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create CSV output directory");
    }

    let mut config = if quick {
        Config::quick(seed)
    } else {
        Config::paper(seed)
    };
    // Thread the shard count through the shared lab: every experiment whose
    // runs route through `Lab::run_app`/`run_app_open` (the catalog's
    // `shardable` entries) picks it up from there.
    config.lab.shards = shards;
    println!(
        "# repro: {} configuration, seed {seed}{}\n",
        if quick { "quick" } else { "paper" },
        if shards > 1 {
            format!(", {shards} shards")
        } else {
            String::new()
        }
    );
    let mut html = html_path.as_ref().map(|_| {
        scaleup::html::HtmlReport::new(&format!(
            "TeaStore scale-up reproduction ({} configuration, seed {seed})",
            if quick { "quick" } else { "paper" }
        ))
    });

    for name in wanted {
        let t0 = Instant::now();
        let mut csv: Option<(String, String)> = None; // (filename, contents)
        let output = match name.as_str() {
            "e1" => exp::e1(&config),
            "e2" => exp::e2(&config),
            "e3" => {
                let r = exp::e3(&config);
                csv = Some(("e3_load_curve.csv".into(), exp::csv_e3(&r)));
                if let Some(report) = html.as_mut() {
                    report.chart(
                        "E3: load curve",
                        scaleup::html::LineChart::new(
                            "throughput vs closed-loop users",
                            "users",
                            "req/s",
                        )
                        .series(
                            "tuned baseline",
                            r.points
                                .iter()
                                .map(|(u, rep)| (*u as f64, rep.throughput_rps))
                                .collect(),
                        ),
                    );
                }
                r.table
            }
            "e4" => {
                let r = exp::e4(&config);
                csv = Some(("e4_scaleup.csv".into(), exp::csv_scale_points(&r.points)));
                if let Some(report) = html.as_mut() {
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
                    report.chart(
                        "E4: scale-up",
                        scaleup::html::LineChart::new(
                            "throughput vs enabled logical CPUs",
                            "logical CPUs",
                            "req/s",
                        )
                        .series("measured", measured)
                        .series("USL fit", fitted),
                    );
                }
                r.table
            }
            "e5" => exp::e5(&config),
            "e6" => {
                let r = exp::e6(&config);
                csv = Some(("e6_service_scaling.csv".into(), exp::csv_e6(&r)));
                if let Some(report) = html.as_mut() {
                    let mut chart = scaleup::html::LineChart::new(
                        "throughput vs replicas of one service",
                        "replicas",
                        "req/s",
                    );
                    for (name, points, _) in &r.services {
                        chart = chart.series(
                            name,
                            points
                                .iter()
                                .map(|p| (p.n as f64, p.throughput_rps))
                                .collect(),
                        );
                    }
                    report.chart("E6: per-service scaling", chart);
                }
                r.table
            }
            "e7" => exp::e7(&config),
            "e8" => {
                let r = exp::e8(&config);
                csv = Some(("e8_placement.csv".into(), exp::csv_e8(&r)));
                if let Some(report) = html.as_mut() {
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
                    report.table(
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
                }
                r.table
            }
            "e9" => {
                let r = exp::e9(&config);
                csv = Some(("e9_latency.csv".into(), exp::csv_e9(&r)));
                r.table
            }
            "e10" => exp::e10(&config).table,
            "e11" => exp::e11(&config).table,
            "e12" => exp::e12(&config),
            "e13" => exp::e13(&config),
            "e14" => exp::e14(&config),
            "e16" => exp::e16(&config).table,
            "e17" => exp::e17(&config),
            "e15" => {
                let r = exp::e15(&config);
                csv = Some(("e15_mva.csv".into(), exp::csv_e15(&r)));
                if let Some(report) = html.as_mut() {
                    report.chart(
                        "E15: simulator vs analytic MVA",
                        scaleup::html::LineChart::new(
                            "simulated vs predicted throughput",
                            "users",
                            "req/s",
                        )
                        .series(
                            "simulator",
                            r.points.iter().map(|&(u, s, _)| (u as f64, s)).collect(),
                        )
                        .series(
                            "MVA",
                            r.points.iter().map(|&(u, _, m)| (u as f64, m)).collect(),
                        ),
                    );
                }
                r.table
            }
            "e18" => {
                let r = exp::e18(&config);
                csv = Some(("e18_slow_replica.csv".into(), exp::csv_fault_study(&r)));
                if let Some(report) = html.as_mut() {
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
                    report.table(
                        "E18: slow-replica tail amplification",
                        &["config", "req/s", "mean", "p99", "timed out", "shed"],
                        rows,
                    );
                }
                r.table
            }
            "e19" => {
                let r = exp::e19(&config);
                csv = Some(("e19_crash_recovery.csv".into(), exp::csv_e19_series(&r)));
                if let Some(report) = html.as_mut() {
                    let mut chart = scaleup::html::LineChart::new(
                        "throughput through a crash/restart of one replica",
                        "seconds since measurement start",
                        "req/s",
                    );
                    for (name, rep) in &r.rows {
                        chart = chart.series(name, rep.throughput_series.clone());
                    }
                    report.chart("E19: crash and recovery", chart);
                }
                r.table
            }
            "e20" => {
                let r = exp::e20(&config);
                csv = Some(("e20_overload_sweep.csv".into(), exp::csv_e20(&r)));
                if let Some(report) = html.as_mut() {
                    let mut goodput = scaleup::html::LineChart::new(
                        "goodput vs offered load (multiple of capacity)",
                        "offered load (× capacity)",
                        "req/s",
                    );
                    let mut p99 = scaleup::html::LineChart::new(
                        "p99 latency vs offered load",
                        "offered load (× capacity)",
                        "p99 µs",
                    );
                    for (name, pick) in [
                        ("unbounded", 0usize),
                        ("admission control", 1usize),
                    ] {
                        let arm = |i: usize, m: &f64, u: &microsvc::RunReport, a: &microsvc::RunReport| {
                            let r = if i == 0 { u } else { a };
                            (*m, r.throughput_rps, r.latency_p99.as_micros_f64())
                        };
                        let pts: Vec<_> = r
                            .rows
                            .iter()
                            .map(|(m, u, a)| arm(pick, m, u, a))
                            .collect();
                        goodput = goodput
                            .series(name, pts.iter().map(|&(m, g, _)| (m, g)).collect());
                        p99 = p99.series(name, pts.iter().map(|&(m, _, p)| (m, p)).collect());
                    }
                    report.chart("E20: overload sweep — goodput", goodput);
                    report.chart("E20: overload sweep — tail latency", p99);
                }
                r.table
            }
            "e21" => {
                let r = exp::e21(&config);
                csv = Some(("e21_metastability.csv".into(), exp::csv_e21_series(&r)));
                if let Some(report) = html.as_mut() {
                    let mut goodput = scaleup::html::LineChart::new(
                        "goodput through the retry storm",
                        "seconds since measurement start",
                        "req/s",
                    );
                    let mut depth = scaleup::html::LineChart::new(
                        "pending-queue depth through the retry storm",
                        "seconds since measurement start",
                        "queued jobs",
                    );
                    for (name, rep) in &r.rows {
                        goodput = goodput.series(name, rep.throughput_series.clone());
                        depth = depth.series(name, rep.queue_depth_series.clone());
                    }
                    report.chart("E21: retry-storm metastability — goodput", goodput);
                    report.chart("E21: retry-storm metastability — queue depth", depth);
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
                    report.table(
                        "E21: overload counters",
                        &["config", "goodput", "timed out", "budget-denied", "shed", "deferred"],
                        rows,
                    );
                }
                r.table
            }
            "e22" => {
                let r = exp::e22(&config);
                csv = Some(("e22_brownout.csv".into(), exp::csv_e22(&r)));
                if let Some(report) = html.as_mut() {
                    let mut chart = scaleup::html::LineChart::new(
                        "per-class goodput under 1.6× overload (priority shedding)",
                        "seconds since measurement start",
                        "req/s",
                    );
                    let (arm, rep) = &r.rows[1];
                    for (class, series) in &rep.per_class_series {
                        chart = chart.series(&format!("{arm}: {class}"), series.clone());
                    }
                    report.chart("E22: brownout — per-class goodput", chart);
                    let rows: Vec<Vec<String>> = r
                        .class_goodput
                        .iter()
                        .flat_map(|(arm, classes)| {
                            classes.iter().map(move |(class, submitted, failed, goodput)| {
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
                    report.table(
                        "E22: per-class goodput",
                        &["config", "class", "submitted", "shed", "goodput"],
                        rows,
                    );
                }
                r.table
            }
            "e23" => {
                let r = exp::e23(&config);
                csv = Some(("e23_recovery.csv".into(), exp::csv_e23(&r)));
                if let Some(report) = html.as_mut() {
                    let mut goodput = scaleup::html::LineChart::new(
                        "goodput through a 1s slowdown burst",
                        "seconds since measurement start",
                        "req/s",
                    );
                    let mut depth = scaleup::html::LineChart::new(
                        "pending-queue depth through the burst",
                        "seconds since measurement start",
                        "queued jobs",
                    );
                    for (name, rep, _) in &r.rows {
                        goodput = goodput.series(name, rep.throughput_series.clone());
                        depth = depth.series(name, rep.queue_depth_series.clone());
                    }
                    report.chart("E23: recovery hysteresis — goodput", goodput);
                    report.chart("E23: recovery hysteresis — queue depth", depth);
                }
                r.table
            }
            "e24" => {
                let r = exp::e24(&config);
                csv = Some(("e24_population_scaleup.csv".into(), exp::csv_e24(&r)));
                if let Some(report) = html.as_mut() {
                    report.chart(
                        "E24: population scale-up — per-user memory",
                        scaleup::html::LineChart::new(
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
                    report.chart(
                        "E24: population scale-up — simulator speed",
                        scaleup::html::LineChart::new(
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
                }
                r.table
            }
            "e25" => {
                let r = exp::e25(&config);
                csv = Some(("e25_trace_fidelity.csv".into(), exp::csv_e25(&r)));
                r.table
            }
            "e26" => {
                let r = exp::e26(&config);
                csv = Some(("e26_mega_overload.csv".into(), exp::csv_e26(&r)));
                if let Some(report) = html.as_mut() {
                    let mut p99 = scaleup::html::LineChart::new(
                        "p99 latency vs offered load (100k closed-loop users)",
                        "offered load (× capacity)",
                        "p99 µs",
                    );
                    for (name, pick) in [("unbounded", 0usize), ("admission control", 1usize)] {
                        p99 = p99.series(
                            name,
                            r.rows
                                .iter()
                                .map(|(m, u, a)| {
                                    let rep = if pick == 0 { u } else { a };
                                    (*m, rep.latency_p99.as_micros_f64())
                                })
                                .collect(),
                        );
                    }
                    report.chart("E26: mega-scale overload — tail latency", p99);
                }
                r.table
            }
            "e27" => {
                let r = exp::e27(&config);
                csv = Some(("e27_warm_start.csv".into(), exp::csv_e27(&r)));
                if !r.identical {
                    eprintln!("{}", r.table);
                    eprintln!("e27 FAILED: warm-started grid diverged from the cold run");
                    std::process::exit(1);
                }
                r.table
            }
            "e28" => {
                let r = exp::e28(&config);
                csv = Some(("e28_shard_scaling.csv".into(), exp::csv_e28(&r)));
                if let Some(report) = html.as_mut() {
                    let mut eps = scaleup::html::LineChart::new(
                        "event rate vs shard count",
                        "shards",
                        "events/s",
                    );
                    let mut speedup = scaleup::html::LineChart::new(
                        "speedup over the 1-shard arm vs shard count",
                        "shards",
                        "speedup",
                    );
                    let populations: Vec<u64> = {
                        let mut v: Vec<u64> = r.rows.iter().map(|p| p.users).collect();
                        v.dedup();
                        v
                    };
                    for users in populations {
                        let pts: Vec<&exp::ShardScalePoint> =
                            r.rows.iter().filter(|p| p.users == users).collect();
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
                    report.chart("E28: shard-count scaling — event rate", eps);
                    report.chart("E28: shard-count scaling — speedup", speedup);
                }
                r.table
            }
            "e29" => {
                let r = exp::e29(&config);
                csv = Some(("e29_chaos_sweep.csv".into(), exp::csv_e29(&r)));
                r.table
            }
            "chaos" => {
                let r = exp::chaos_search(&config);
                std::fs::create_dir_all("results").expect("create results directory");
                std::fs::write("results/chaos_report.json", r.report.to_json())
                    .expect("write results/chaos_report.json");
                println!("[wrote results/chaos_report.json]");
                r.table
            }
            "snap" => match exp::snap_check(&config) {
                Ok((table, bytes)) => {
                    std::fs::create_dir_all("results").expect("create results directory");
                    std::fs::write("results/snapshot_quick.bin", &bytes)
                        .expect("write results/snapshot_quick.bin");
                    println!("[wrote results/snapshot_quick.bin]");
                    table
                }
                Err(msg) => {
                    eprintln!("{msg}");
                    std::process::exit(1);
                }
            },
            "a1" => exp::ablate_objective(&config),
            "a2" => exp::ablate_lb(&config),
            "a3" => exp::ablate_balance(&config),
            "a4" => exp::ablate_quantum(&config),
            "perf" => {
                // Read the committed baseline before the fresh results
                // overwrite it (the gate file is usually the same path).
                let committed = gate_path.as_ref().map(|p| {
                    scaleup_bench::perf::read_baseline(p).unwrap_or_else(|msg| {
                        eprintln!("{msg}\nperf gate FAILED");
                        std::process::exit(1);
                    })
                });
                let (table, json) = scaleup_bench::perf::run(quick);
                std::fs::create_dir_all("results").expect("create results directory");
                std::fs::write("results/BENCH_simperf.json", &json)
                    .expect("write results/BENCH_simperf.json");
                println!("[wrote results/BENCH_simperf.json]");
                if let Some(committed) = committed {
                    match scaleup_bench::perf::gate(&committed, &json, 0.5) {
                        Ok(report) => println!("{report}"),
                        Err(report) => {
                            eprintln!("{report}perf gate FAILED");
                            std::process::exit(1);
                        }
                    }
                }
                table
            }
            "lint" => {
                // Static determinism & invariant pass (see DESIGN.md
                // "Static analysis"). Same engine as `cargo run -p simlint`
                // and the tier-1 gate in tests/simlint.rs.
                let root = simlint::find_root(
                    &std::env::current_dir().expect("current directory"),
                );
                let report = simlint::lint_workspace(&root);
                if report.gating_count() > 0 || !report.stale_baseline.is_empty() {
                    eprint!("{}", simlint::render_text(&report));
                    eprintln!("repro lint FAILED");
                    std::process::exit(1);
                }
                simlint::render_text(&report)
            }
            _ => unreachable!("validated above"),
        };
        println!("{output}");
        if let Some(report) = html.as_mut() {
            report.pre(&format!("{name} (text table)"), output.trim_end());
        }
        if let (Some(dir), Some((file, contents))) = (&csv_dir, csv) {
            let path = dir.join(file);
            std::fs::write(&path, contents).expect("write CSV");
            println!("[wrote {}]", path.display());
        }
        println!("[{name} took {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
    if let (Some(path), Some(report)) = (html_path, html) {
        std::fs::write(&path, report.render()).expect("write HTML report");
        println!("[wrote {}]", path.display());
    }
}
