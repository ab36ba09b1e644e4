//! Scale-up sweeps: throughput vs. CPU count and per-service scaling.

use crate::lab::Lab;
use crate::usl::{self, UslFit};
use cputopo::CpuId;
use microsvc::{AppSpec, Deployment, InstanceConfig, LbPolicy, RunReport, ServiceId};

/// One point of a scale-up curve.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// The swept quantity (enabled CPUs, or replica count).
    pub n: usize,
    /// Steady-state throughput, requests/s.
    pub throughput_rps: f64,
    /// Mean end-to-end latency, µs.
    pub mean_latency_us: f64,
    /// p99 end-to-end latency, µs.
    pub p99_latency_us: f64,
    /// Machine CPU utilization in `[0, 1]`.
    pub cpu_utilization: f64,
}

impl ScalePoint {
    fn from_report(n: usize, report: &RunReport) -> Self {
        ScalePoint {
            n,
            throughput_rps: report.throughput_rps,
            mean_latency_us: report.mean_latency.as_micros_f64(),
            p99_latency_us: report.latency_p99.as_micros_f64(),
            cpu_utilization: report.cpu_utilization,
        }
    }
}

/// Sweeps the number of CPUs available to the whole application (experiment
/// E4): for each `count`, every instance is confined to the first `count`
/// CPUs of `order` and the lab's closed-loop load is applied.
///
/// `replicas` are per-service; instances are otherwise unpinned within the
/// mask (this is what `taskset`-launching the whole stack does).
///
/// # Panics
///
/// Panics if any count is zero or exceeds `order.len()`.
pub fn throughput_vs_cpus(
    lab: &Lab,
    app: &AppSpec,
    order: &[CpuId],
    counts: &[usize],
    replicas: &[usize],
) -> Vec<ScalePoint> {
    crate::par::map(counts.to_vec(), |count| {
        assert!(count >= 1, "cannot run on zero CPUs");
        let mask = cputopo::enumerate::take_mask(order, count);
        let mem = lab.topo.numa_of(mask.first().expect("non-empty mask"));
        let mut deployment = Deployment::empty(app);
        for (svc, &n) in replicas.iter().enumerate() {
            for _ in 0..n {
                deployment.add_instance(
                    ServiceId(svc as u32),
                    InstanceConfig {
                        affinity: mask.clone(),
                        threads: app.services()[svc].default_threads,
                        mem_node: Some(mem),
                    },
                );
            }
        }
        let report = lab.run_app(app, deployment, LbPolicy::RoundRobin);
        ScalePoint::from_report(count, &report)
    })
}

/// Sweeps the replica count of a single service inside the full application
/// (experiment E6): all other services keep `base_replicas`; `service` runs
/// with each count in `counts`.
pub fn service_scaling(
    lab: &Lab,
    app: &AppSpec,
    service: ServiceId,
    counts: &[usize],
    base_replicas: &[usize],
) -> Vec<ScalePoint> {
    crate::par::map(counts.to_vec(), |count| {
        assert!(count >= 1, "cannot run zero replicas");
        let mut replicas = base_replicas.to_vec();
        replicas[service.index()] = count;
        let mut deployment = Deployment::empty(app);
        for (svc, &n) in replicas.iter().enumerate() {
            for _ in 0..n {
                deployment.add_instance(
                    ServiceId(svc as u32),
                    InstanceConfig {
                        affinity: lab.topo.all_cpus().clone(),
                        threads: app.services()[svc].default_threads,
                        mem_node: None,
                    },
                );
            }
        }
        let report = lab.run_app(app, deployment, LbPolicy::RoundRobin);
        ScalePoint::from_report(count, &report)
    })
}

/// Fits the USL to a scaling curve's `(n, throughput)` points.
pub fn fit_curve(points: &[ScalePoint]) -> UslFit {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.n as f64, p.throughput_rps))
        .collect();
    usl::fit(&pts)
}

/// Renders a scaling curve as an aligned text table.
pub fn curve_table(header: &str, points: &[ScalePoint]) -> String {
    let mut out = format!(
        "{header}\n{:>6} {:>12} {:>12} {:>12} {:>8}\n",
        "N", "req/s", "mean µs", "p99 µs", "util%"
    );
    for p in points {
        out.push_str(&format!(
            "{:>6} {:>12.0} {:>12.0} {:>12.0} {:>8.1}\n",
            p.n,
            p.throughput_rps,
            p.mean_latency_us,
            p.p99_latency_us,
            p.cpu_utilization * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cputopo::enumerate;
    use microsvc::{CallNode, Demand, ServiceSpec};
    use uarch::ServiceProfile;

    fn cpu_bound_app() -> AppSpec {
        let mut app = AppSpec::new();
        let svc = app.add_service(
            ServiceSpec::new("api", ServiceProfile::light_rpc("api")).with_threads(16),
        );
        app.add_class("work", 1.0, CallNode::leaf(svc, Demand::fixed_us(400.0)));
        app
    }

    #[test]
    fn more_cpus_more_throughput() {
        // Enough users that offered load never caps the curve.
        let lab = Lab::small(1).with_users(256);
        let app = cpu_bound_app();
        let order = enumerate::cores_first(&lab.topo);
        let points = throughput_vs_cpus(&lab, &app, &order, &[1, 2, 4, 8], &[4]);
        assert_eq!(points.len(), 4);
        assert!(
            points[3].throughput_rps > 2.5 * points[0].throughput_rps,
            "8 cpus {} vs 1 cpu {}",
            points[3].throughput_rps,
            points[0].throughput_rps
        );
        // Throughput is monotone non-decreasing within noise.
        for w in points.windows(2) {
            assert!(w[1].throughput_rps > 0.85 * w[0].throughput_rps);
        }
    }

    #[test]
    fn scaling_curve_fits_usl() {
        let lab = Lab::small(2).with_users(64);
        let app = cpu_bound_app();
        let order = enumerate::cores_first(&lab.topo);
        let points = throughput_vs_cpus(&lab, &app, &order, &[1, 2, 4, 6, 8], &[4]);
        let fit = fit_curve(&points);
        assert!(fit.lambda > 0.0);
        assert!(fit.r_squared > 0.8, "r² {}", fit.r_squared);
    }

    #[test]
    fn service_scaling_saturates() {
        // A front tier whose tiny thread pool is the bottleneck: replicating
        // it helps, with diminishing returns once CPUs/load bind instead.
        let lab = Lab::small(3).with_users(64);
        let mut app = AppSpec::new();
        let front = app.add_service(
            ServiceSpec::new("front", ServiceProfile::light_rpc("front")).with_threads(2),
        );
        let back = app.add_service(
            ServiceSpec::new("back", ServiceProfile::light_rpc("back")).with_threads(16),
        );
        app.add_class(
            "page",
            1.0,
            CallNode::new(
                front,
                Demand::fixed_us(300.0),
                vec![microsvc::CallStage {
                    parallel: vec![CallNode::leaf(back, Demand::fixed_us(100.0))],
                }],
                Demand::fixed_us(100.0),
            ),
        );
        let points = service_scaling(&lab, &app, front, &[1, 2, 6], &[1, 1]);
        assert_eq!(points.len(), 3);
        // More front replicas must help (its pool is the bottleneck) ...
        assert!(
            points[1].throughput_rps > 1.2 * points[0].throughput_rps,
            "{} vs {}",
            points[1].throughput_rps,
            points[0].throughput_rps
        );
        // ... but with diminishing returns once something else binds.
        let gain1 = points[1].throughput_rps / points[0].throughput_rps;
        let gain2 = points[2].throughput_rps / points[1].throughput_rps;
        assert!(gain2 < gain1, "returns must diminish: {gain1} then {gain2}");
    }

    #[test]
    fn table_renders() {
        let points = vec![ScalePoint {
            n: 4,
            throughput_rps: 1234.0,
            mean_latency_us: 1500.0,
            p99_latency_us: 9000.0,
            cpu_utilization: 0.5,
        }];
        let t = curve_table("demo", &points);
        assert!(t.contains("demo"));
        assert!(t.contains("1234"));
    }

    #[test]
    #[should_panic(expected = "zero CPUs")]
    fn zero_cpus_rejected() {
        let lab = Lab::small(4);
        let app = cpu_bound_app();
        let order = enumerate::linear(&lab.topo);
        throughput_vs_cpus(&lab, &app, &order, &[0], &[1]);
    }
}
