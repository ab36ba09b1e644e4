//! `repro` — regenerates every table and figure of the study.
//!
//! ```text
//! repro [--quick] [--seed N] [--jobs N] [--csv DIR] [--html FILE] <experiment>...
//! repro all                    # every study, in order
//! repro list                   # enumerate every experiment with a description
//! repro list --json            # the catalog as JSON (id, title, runtime estimates)
//! repro e8 e9                  # just the headline pair
//! repro --csv results e4 e8    # also write plot-ready CSV files
//! repro --jobs 1 all           # force a sequential sweep (byte-identical)
//! repro perf                   # simulator self-benchmark -> results/BENCH_simperf.json
//! ```
//!
//! The experiments are the rows of `scaleup_bench::registry`; `repro list`
//! prints them.
//!
//! Sweeps run on the work-stealing pool in `scaleup::par`; `--jobs N` caps
//! the workers (default: all CPUs). Results are merged in sweep order, so
//! any `--jobs` value produces byte-identical reports.

use scaleup_bench::registry::{self, Experiment};
use scaleup_bench::Config;
use std::time::Instant;

fn usage() -> ! {
    eprintln!("{}", registry::usage());
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
    let mut wanted: Vec<&'static Experiment> = Vec::new();
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
            "list" => list_mode = true,
            word => wanted.extend(registry::select(word).unwrap_or_else(|| usage())),
        }
    }
    if list_mode {
        print!(
            "{}",
            if json {
                registry::list_json()
            } else {
                registry::list_text()
            }
        );
        return;
    }
    if wanted.is_empty() {
        usage();
    }
    // --gate without the perf experiment used to parse and then silently do
    // nothing; fail up front instead.
    let ids: Vec<&str> = wanted.iter().map(|e| e.id).collect();
    if let Err(msg) = scaleup_bench::perf::gate_requires_perf(&ids, gate_path.is_some()) {
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
    // runs route through `Lab::run_app`/`run_app_open` (the registry's
    // `shardable` rows) picks it up from there.
    config.lab.shards = shards;
    let setup = if quick { "quick" } else { "paper" };
    println!(
        "# repro: {setup} configuration, seed {seed}{}\n",
        if shards > 1 {
            format!(", {shards} shards")
        } else {
            String::new()
        }
    );
    let mut html = scaleup::html::HtmlReport::new(&format!(
        "TeaStore scale-up reproduction ({setup} configuration, seed {seed})"
    ));

    for e in wanted {
        let t0 = Instant::now();
        let outcome =
            (e.run)(&config, quick, gate_path.as_deref(), &mut html).unwrap_or_else(|msg| {
                eprintln!("{msg}");
                std::process::exit(1);
            });
        for (file, bytes) in &outcome.files {
            let path = std::path::Path::new("results").join(file);
            std::fs::create_dir_all("results").expect("create results directory");
            std::fs::write(&path, bytes).expect("write results file");
            println!("[wrote {}]", path.display());
        }
        println!("{}", outcome.table);
        html.pre(&format!("{} (text table)", e.id), outcome.table.trim_end());
        if let (Some(dir), Some((file, contents))) = (&csv_dir, &outcome.csv) {
            let path = dir.join(file);
            std::fs::write(&path, contents).expect("write CSV");
            println!("[wrote {}]", path.display());
        }
        println!("[{} took {:.1}s]\n", e.id, t0.elapsed().as_secs_f64());
    }
    if let Some(path) = html_path {
        std::fs::write(&path, html.render()).expect("write HTML report");
        println!("[wrote {}]", path.display());
    }
}
