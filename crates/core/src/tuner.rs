//! Replica-count tuning: how the paper's "performance-tuned baseline" is
//! obtained.
//!
//! Two stages:
//!
//! 1. [`proportional_replicas`] — seed counts proportional to each service's
//!    CPU-demand share under the workload mix (what an operator derives from
//!    utilization graphs).
//! 2. [`tune`] — bottleneck-driven refinement: run, find the service whose
//!    jobs wait longest for a worker thread, grant it one more replica,
//!    repeat. This is the measured-feedback loop the paper describes
//!    ("knowledge of the scaling properties of individual services").

use crate::lab::Lab;
use crate::placement::Policy;
use microsvc::AppSpec;
use simcore::SimDuration;
use teastore::TeaStore;

/// Result of a tuning session.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Final per-service replica counts.
    pub replicas: Vec<usize>,
    /// Throughput trajectory over rounds (first = seed configuration).
    pub throughput_history: Vec<f64>,
    /// Mean-latency trajectory over rounds, µs.
    pub latency_history: Vec<f64>,
}

/// Seeds per-service replica counts proportional to demand share.
///
/// Every service gets at least one replica (even zero-demand ones like the
/// registry); the rest of the `total` budget is split by share using
/// largest-remainder rounding, so counts sum to exactly
/// `max(total, num_services)`.
///
/// # Panics
///
/// Panics if the app has no services.
pub fn proportional_replicas(app: &AppSpec, total: usize) -> Vec<usize> {
    let n = app.services().len();
    assert!(n > 0, "application has no services");
    let total = total.max(n);
    let demand = app.mean_demand_per_service_us();
    let sum: f64 = demand.iter().sum();
    let mut counts = vec![1usize; n];
    let spare = total - n;
    if sum <= 0.0 || spare == 0 {
        return counts;
    }
    // Largest-remainder apportionment of the spare replicas.
    let quotas: Vec<f64> = demand.iter().map(|d| d / sum * spare as f64).collect();
    let mut floors: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let assigned: usize = floors.iter().sum();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let ra = quotas[a] - floors[a] as f64;
        let rb = quotas[b] - floors[b] as f64;
        rb.partial_cmp(&ra).expect("finite").then(a.cmp(&b))
    });
    for &i in order.iter().take(spare.saturating_sub(assigned)) {
        floors[i] += 1;
    }
    for (c, f) in counts.iter_mut().zip(&floors) {
        *c += f;
    }
    counts
}

/// Bottleneck-driven replica refinement.
///
/// Starting from `seed` (usually [`proportional_replicas`]), runs the
/// unpinned deployment, identifies the service with the worst worker-pool
/// queue wait, and adds one replica to it; repeats for `rounds` rounds. A
/// round that does not improve throughput by at least 0.5% is rolled back
/// and tuning proceeds to the next-worst service on the following round
/// implicitly (queue waits shift).
pub fn tune(lab: &Lab, store: &TeaStore, seed: &[usize], rounds: usize) -> TuneOutcome {
    let mut replicas = seed.to_vec();
    let mut report = lab.run_policy(store, Policy::Unpinned, &replicas);
    let mut throughput_history = vec![report.throughput_rps];
    let mut latency_history = vec![report.mean_latency.as_micros_f64()];

    for _ in 0..rounds {
        // Worst queue wait = the thread-pool bottleneck.
        let worst = report
            .services
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.mean_queue_wait)
            .map(|(i, _)| i)
            .expect("apps have services");
        if report.services[worst].mean_queue_wait < SimDuration::from_micros(50) {
            break; // nothing meaningfully queues; tuned
        }
        let mut candidate = replicas.clone();
        candidate[worst] += 1;
        let cand_report = lab.run_policy(store, Policy::Unpinned, &candidate);
        if cand_report.throughput_rps > report.throughput_rps * 1.005 {
            replicas = candidate;
            report = cand_report;
        } else {
            // No win; keep the old configuration but record the probe.
            throughput_history.push(cand_report.throughput_rps);
            latency_history.push(cand_report.mean_latency.as_micros_f64());
            break;
        }
        throughput_history.push(report.throughput_rps);
        latency_history.push(report.mean_latency.as_micros_f64());
    }

    TuneOutcome {
        replicas,
        throughput_history,
        latency_history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_counts_sum_to_total() {
        let store = TeaStore::browse();
        let counts = proportional_replicas(store.app(), 32);
        assert_eq!(counts.iter().sum::<usize>(), 32);
        assert!(counts.iter().all(|&c| c >= 1));
        // WebUI has the largest demand share → the most replicas.
        let webui = store.services().webui.index();
        assert_eq!(
            counts.iter().max().copied(),
            Some(counts[webui]),
            "webui should get the most replicas: {counts:?}"
        );
    }

    #[test]
    fn proportional_respects_minimum_one() {
        let store = TeaStore::browse();
        // Budget below the service count: everyone still gets one.
        let counts = proportional_replicas(store.app(), 3);
        assert!(counts.iter().all(|&c| c == 1));
        let registry = store.services().registry.index();
        let counts = proportional_replicas(store.app(), 40);
        assert_eq!(counts[registry], 1, "zero-demand service stays at one");
    }

    #[test]
    fn tuning_never_decreases_throughput() {
        let lab = Lab::small(5).with_users(48);
        let store = TeaStore::with_demand_scale(0.25);
        let seed = proportional_replicas(store.app(), 8);
        let outcome = tune(&lab, &store, &seed, 3);
        let first = outcome.throughput_history.first().expect("has history");
        let accepted_last = outcome
            .throughput_history
            .iter()
            .copied()
            .fold(f64::MIN, f64::max);
        assert!(
            accepted_last >= *first,
            "tuning regressed: {:?}",
            outcome.throughput_history
        );
        assert!(outcome.replicas.iter().sum::<usize>() >= seed.iter().sum::<usize>());
    }
}
