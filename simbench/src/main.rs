//! `simbench`: the repository benchmark.
//!
//! ```text
//! simbench --workload <paper_serial|mega_sharded|fault_branch> --seed <n>
//!          --seconds <s> --trace <0|1> --fingerprints <file> [--record]
//! ```
//!
//! Repeats sections of one workload for `--seconds` (at least two), checks
//! every operation's fingerprint, and prints the metrics: the end-to-end
//! ones with `--trace 0`, the per-layer ones with `--trace 1`. The last line
//! of standard output is one JSON object. `--record` runs one untraced
//! section and prints its fingerprint-table lines instead. See `README.md`.

mod fingerprint;
mod host;
mod metrics;
mod shim;
mod workloads;

use fingerprint::Checker;
use loadgen::{ClosedLoop, OpenLoop};
use metrics::{mean, median, tail, Metric, END_TO_END, PER_LAYER};
use scaleup_bench::perf::{calibrate, peak_rss_bytes};
use shim::Timed;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{guarded, Op, Section, FAULT_BRANCH, MEGA_SHARDED, PAPER_SERIAL};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperSerial,
    MegaSharded,
    FaultBranch,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PaperSerial,
        Workload::MegaSharded,
        Workload::FaultBranch,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperSerial => "paper_serial",
            Workload::MegaSharded => "mega_sharded",
            Workload::FaultBranch => "fault_branch",
        }
    }

    /// Runs one section, traced or not.
    fn section(self, seed: u64, traced: bool) -> Section {
        match (self, traced) {
            (Workload::PaperSerial, false) => workloads::serial::<ClosedLoop>(&PAPER_SERIAL, seed),
            (Workload::PaperSerial, true) => {
                workloads::serial::<Timed<ClosedLoop>>(&PAPER_SERIAL, seed)
            }
            (Workload::MegaSharded, false) => workloads::sharded::<ClosedLoop>(&MEGA_SHARDED, seed),
            (Workload::MegaSharded, true) => {
                workloads::sharded::<Timed<ClosedLoop>>(&MEGA_SHARDED, seed)
            }
            (Workload::FaultBranch, false) => workloads::branches::<OpenLoop>(&FAULT_BRANCH, seed),
            (Workload::FaultBranch, true) => {
                workloads::branches::<Timed<OpenLoop>>(&FAULT_BRANCH, seed)
            }
        }
    }

    /// The section a panic left behind: every operation failed, no timings.
    fn failed_section(self) -> Section {
        let keys: Vec<Option<u64>> = match self {
            Workload::FaultBranch => (0..FAULT_BRANCH.branches).map(Some).collect(),
            _ => vec![None],
        };
        Section {
            setup_s: f64::NAN,
            wall_s: f64::NAN,
            ops: keys
                .into_iter()
                .map(|key| Op {
                    key,
                    ms: f64::NAN,
                    fp: None,
                })
                .collect(),
            ..Section::default()
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    fingerprints: String,
    record: bool,
}

const USAGE: &str = "usage: simbench --workload <paper_serial|mega_sharded|fault_branch> \
                     --seed <n> --seconds <s> --trace <0|1> --fingerprints <file> [--record]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut fingerprints) =
        (None, None, None, None, None);
    let mut record = false;
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(bad)?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--fingerprints" => fingerprints = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        fingerprints: fingerprints.ok_or("--fingerprints is required")?,
        record,
    })
}

/// Sections a run makes however short `--seconds` is: two, so an unrecorded
/// seed is checked for agreement at least once, and a traced run has one
/// untraced section to compare with.
const MIN_SECTIONS: usize = 2;

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let checker = std::fs::read_to_string(&args.fingerprints)
        .map_err(|e| format!("cannot read {}: {e}", args.fingerprints))
        .and_then(|table| Checker::new(&table, args.workload.name(), args.seed));
    let mut checker = match checker {
        Ok(c) => c,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        return record(&args);
    }

    let w = args.workload;
    println!(
        "simbench: workload={} seed={} seconds={} trace={} fingerprints={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if checker.is_recorded() {
            "recorded"
        } else {
            "learned (repeated operations must agree)"
        }
    );
    let calib_s = calibrate();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    // In run order. A traced run alternates untraced and traced sections so
    // both see the same host conditions.
    let mut samples: Vec<Sample> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    while samples.len() < MIN_SECTIONS || Instant::now() < deadline {
        let traced = args.trace && samples.len() % 2 == 1;
        let ref_s = host::reference_s();
        let cpu0 = host::process_cpu_s();
        let sec = guarded(|| w.section(args.seed, traced)).unwrap_or_else(|| w.failed_section());
        let cpu_s = host::process_cpu_s() - cpu0;
        let mut bad = 0;
        for op in &sec.ops {
            attempted += 1;
            if !op.fp.is_some_and(|fp| checker.check(op.key, fp)) {
                bad += 1;
            }
        }
        failed += bad;
        println!(
            "section {}{}: setup {:.4} s, wall {:.4} s, process CPU {cpu_s:.2} s, \
             reference {ref_s:.4} s, {} ops, {bad} failed",
            samples.len() + 1,
            if traced { " (traced)" } else { "" },
            sec.setup_s,
            sec.wall_s,
            sec.ops.len(),
        );
        samples.push(Sample { traced, ref_s, sec });
    }
    if let Some(last) = samples.iter().rev().find(|s| !s.sec.notes.is_empty()) {
        for note in &last.sec.notes {
            println!("  {note}");
        }
    }

    let ref_s = median(&samples.iter().map(|s| s.ref_s).collect::<Vec<_>>());
    let ref_s = ref_s.unwrap_or(f64::NAN);
    let raw_wall_s = stat_of(mean, &samples, false, |s| s.sec.wall_s).unwrap_or(f64::NAN);
    let values: Vec<(Metric, f64)> = if args.trace {
        let overhead = match (
            stat_of(mean, &samples, true, |s| s.sec.wall_s * s.scale()),
            stat_of(mean, &samples, false, |s| s.sec.wall_s * s.scale()),
        ) {
            (Some(t), Some(u)) => (t / u - 1.0) * 100.0,
            _ => f64::NAN,
        };
        PER_LAYER
            .iter()
            .map(|m| {
                let v = match m.name {
                    "host.calib_s" => Some(calib_s),
                    "host.reference_s" => Some(ref_s),
                    "host.raw_wall_s" => Some(raw_wall_s),
                    "trace.overhead_pct" => Some(overhead),
                    name => stat_of(median, &samples, true, |s| {
                        s.sec.layers.get(name).copied().unwrap_or(f64::NAN)
                    }),
                };
                (*m, v.unwrap_or(f64::NAN))
            })
            .collect()
    } else {
        let ops: Vec<f64> = samples
            .iter()
            .flat_map(|s| s.sec.ops.iter().map(|o| o.ms * s.scale()))
            .filter(|x| x.is_finite())
            .collect();
        let (tail_ms, tail_pct) = tail(&ops).unwrap_or((f64::NAN, f64::NAN));
        println!(
            "  {} ops; op_tail_ms is p{tail_pct:.1}; raw wall_s {raw_wall_s:.4} s; \
             host.reference_s median {ref_s:.4} s; host.calib_s {calib_s:.4} s; \
             times below are at reference {REF_S} s",
            ops.len()
        );
        END_TO_END
            .iter()
            .map(|m| {
                let v = match m.name {
                    "setup_s" => stat_of(median, &samples, false, |s| s.sec.setup_s * s.scale()),
                    "wall_s" => stat_of(mean, &samples, false, |s| s.sec.wall_s * s.scale()),
                    "peak_rss_mib" => Some(peak_rss_bytes() as f64 / (1024.0 * 1024.0)),
                    "op_p50_ms" => median(&ops),
                    "op_tail_ms" => Some(tail_ms),
                    other => unreachable!("no rule for end-to-end metric {other}"),
                };
                (*m, v.unwrap_or(f64::NAN))
            })
            .collect()
    };
    for (m, v) in &values {
        println!("  {:<28} {v:>16.6} {}", m.name, m.unit);
    }
    let measured = values.iter().all(|(_, v)| v.is_finite());
    println!(
        "{}",
        result_json(failed == 0 && measured, attempted, failed, &values)
    );
    ExitCode::SUCCESS
}

/// `host::reference_s()` seconds at the reference host speed. End-to-end
/// times are reported at this speed: each section's host seconds are
/// multiplied by `REF_S / ref_s`, with `ref_s` sampled just before the
/// section. A shared host can change speed by 1.6× for minutes at a time;
/// raw host seconds of identical code then spread wider than the
/// benchmark's bounds, and the scaling takes out the part of that drift the
/// reference workload sees.
const REF_S: f64 = 0.2;

/// One section and the reference sample taken just before it.
struct Sample {
    traced: bool,
    ref_s: f64,
    sec: Section,
}

impl Sample {
    /// Factor that converts this section's host seconds to reference ones.
    fn scale(&self) -> f64 {
        REF_S / self.ref_s
    }
}

/// `stat` of `f` over the traced or untraced samples, skipping values a
/// panicked section left unmeasured.
fn stat_of(
    stat: fn(&[f64]) -> Option<f64>,
    samples: &[Sample],
    traced: bool,
    f: impl Fn(&Sample) -> f64,
) -> Option<f64> {
    let xs: Vec<f64> = samples
        .iter()
        .filter(|s| s.traced == traced)
        .map(f)
        .filter(|x| x.is_finite())
        .collect();
    stat(&xs)
}

/// `--record`: one untraced section, printed as fingerprint-table lines.
fn record(args: &Args) -> ExitCode {
    let sec = args.workload.section(args.seed, false);
    for op in &sec.ops {
        let fp = op.fp.expect("a recorded section has no failed operations");
        println!(
            "{}",
            fingerprint::line(args.workload.name(), args.seed, op.key, fp)
        );
    }
    ExitCode::SUCCESS
}

/// The result line. A value that could not be measured is written as 0 and
/// makes the run incorrect.
fn result_json(correct: bool, attempted: u64, failed: u64, values: &[(Metric, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (m, v)) in values.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "fault_branch",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
            "--fingerprints",
            "f.txt",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::FaultBranch);
        assert_eq!((a.seed, a.seconds, a.trace, a.record), (7, 12, true, false));
        assert!(args(&["--workload", "nope", "--seed", "1", "--fingerprints", "f"]).is_err());
        assert!(args(&[
            "--workload",
            "paper_serial",
            "--seed",
            "-1",
            "--fingerprints",
            "f"
        ])
        .is_err());
        assert!(args(&["--workload", "paper_serial", "--seed", "1", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "paper_serial", "--fingerprints", "f"]).is_err());
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let values: Vec<(Metric, f64)> = END_TO_END.iter().map(|m| (*m, 1.25)).collect();
        let line = result_json(true, 3, 0, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        for m in END_TO_END {
            assert!(line.contains(&format!(
                "\"{}\": {{\"value\": 1.25, \"unit\": \"{}\"}}",
                m.name, m.unit
            )));
        }
        let nan = result_json(false, 1, 1, &[(END_TO_END[0], f64::NAN)]);
        assert!(nan.contains("\"value\": 0,"), "{nan}");
    }

    /// The names in `BENCHMARK.json` and the ones this program prints are
    /// the same lists.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[start..].find(']').expect("array end") + start;
            text[start..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("name value").to_owned())
                .collect()
        };
        let names =
            |ms: &[Metric]| -> Vec<String> { ms.iter().map(|m| m.name.to_owned()).collect() };
        assert_eq!(section("end_to_end"), names(END_TO_END));
        assert_eq!(section("per_layer"), names(PER_LAYER));
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(section("workloads"), workloads);
    }
}
