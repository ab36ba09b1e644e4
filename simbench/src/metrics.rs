//! Metric names and units, and the order statistics the benchmark reports.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// A reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("wall_s", "s"),
    m("peak_rss_mib", "MiB"),
    m("op_p50_ms", "ms"),
    m("op_tail_ms", "ms"),
];

/// Printed by a traced run (`--trace 1`). Layers a workload does not reach
/// read 0.
pub const PER_LAYER: &[Metric] = &[
    m("loadgen.start_s", "s"),
    m("loadgen.callback_s", "s"),
    m("loadgen.callbacks", "count"),
    m("loadgen.bytes_per_user", "B"),
    m("engine.events", "count"),
    m("engine.loop_s", "s"),
    m("engine.ns_per_event", "ns"),
    m("engine.events_per_s", "1/s"),
    m("engine.submits", "count"),
    m("engine.submit_s", "s"),
    m("engine.timers", "count"),
    m("engine.footprint_mib", "MiB"),
    m("calendar.high_water", "count"),
    m("sched.wakeups", "count"),
    m("sched.context_switches", "count"),
    m("sched.migrations", "count"),
    m("sched.steals", "count"),
    m("metrics.report_s", "s"),
    m("shard.barriers", "count"),
    m("shard.rounds", "count"),
    m("shard.messages", "count"),
    m("shard.cell_events_spread", "ratio"),
    m("shard.cpu_s", "s"),
    m("shard.parallelism", "ratio"),
    m("snap.bytes", "B"),
    m("snap.save_s", "s"),
    m("snap.restore_s", "s"),
    m("resilience.timeouts", "count"),
    m("resilience.retries", "count"),
    m("resilience.breaker_opened", "count"),
    m("overload.shed", "count"),
    m("fault.replies_dropped", "count"),
    m("host.calib_s", "s"),
    m("host.reference_s", "s"),
    m("host.raw_wall_s", "s"),
    m("trace.overhead_pct", "%"),
];

/// Median (mean of the middle pair for an even count); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// The highest percentile with at least ten samples beyond it, as
/// `(value, percentile)`: the sample of rank `n - 11` (0-based, ascending),
/// at percentile `100 (n - 10) / n`. Below 22 samples that rank is not
/// above the median, so the tail cannot be told apart from it and the
/// median is reported, at percentile 50; the sample count printed beside
/// it says which applies.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 22 {
        return median(xs).map(|m| (m, 50.0));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((v[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
    }

    #[test]
    fn setup_time_is_an_end_to_end_metric() {
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[4.0, 1.0, 1.0]), Some(2.0));
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&[2.0, 5.0, 1.0]), Some((2.0, 50.0)));
        let xs: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((11.0, 50.0)));
        let xs: Vec<f64> = (1..=22).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((12.0, 100.0 * 12.0 / 22.0)));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        // 40 samples: rank 29 (value 30) has ten samples (31..=40) beyond it.
        assert_eq!(tail(&xs), Some((30.0, 75.0)));
    }
}
