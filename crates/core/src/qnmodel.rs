//! Analytic closed queueing-network model (Mean Value Analysis).
//!
//! A discrete-event simulator should agree with queueing theory where
//! queueing theory applies. This module implements exact MVA for a closed
//! network of users cycling through a think state and a set of service
//! stations, with the standard Seidmann transform for multi-server stations
//! (an `m`-server station of demand `D` ≈ a queueing station of demand
//! `D/m` in series with a delay of `D·(m−1)/m`).
//!
//! Experiment E15 solves the TeaStore configuration analytically and
//! compares the prediction with the simulator's measured throughput across
//! the user sweep — the simulator's validation harness. Agreement is
//! expected within ~10–20%: the analytic model ignores contention-dependent
//! service rates (SMT/L3/NUMA), which is precisely what the simulator adds.

use simcore::SimDuration;

/// One service station of the closed network.
#[derive(Debug, Clone, PartialEq)]
pub struct Station {
    /// Label for reports.
    pub name: String,
    /// Total service demand per request at this station.
    pub demand: SimDuration,
    /// Parallel servers (threads or CPUs, whichever binds).
    pub servers: usize,
}

impl Station {
    /// Creates a station.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(name: &str, demand: SimDuration, servers: usize) -> Self {
        assert!(servers >= 1, "a station needs at least one server");
        Station {
            name: name.to_owned(),
            demand,
            servers,
        }
    }
}

/// A closed queueing network: `N` users → think `Z` → stations → repeat.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClosedModel {
    /// The queueing stations.
    pub stations: Vec<Station>,
    /// Mean think time between requests.
    pub think: SimDuration,
    /// Pure delay per request (network latencies — no queueing).
    pub delay: SimDuration,
}

/// The solution of the model at one population.
#[derive(Debug, Clone, PartialEq)]
pub struct MvaSolution {
    /// Population the model was solved for.
    pub n: usize,
    /// System throughput, requests per second.
    pub throughput_rps: f64,
    /// Mean response time (excluding think time).
    pub response: SimDuration,
    /// Mean queue length per station (same order as the model's stations).
    pub queue_lengths: Vec<f64>,
}

impl ClosedModel {
    /// Creates an empty model with the given think time.
    pub fn new(think: SimDuration) -> Self {
        ClosedModel {
            stations: Vec::new(),
            think,
            delay: SimDuration::ZERO,
        }
    }

    /// Adds a station (builder style).
    pub fn station(mut self, station: Station) -> Self {
        self.stations.push(station);
        self
    }

    /// Sets the pure network delay per request.
    pub fn with_delay(mut self, delay: SimDuration) -> Self {
        self.delay = delay;
        self
    }

    /// The asymptotic throughput bound: `1 / max_i(D_i / m_i)` (the
    /// bottleneck law), in requests per second.
    pub fn bottleneck_bound_rps(&self) -> f64 {
        let max_effective = self
            .stations
            .iter()
            .map(|s| s.demand.as_secs_f64() / s.servers as f64)
            .fold(0.0f64, f64::max);
        if max_effective <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / max_effective
        }
    }

    /// Solves the network exactly (with the Seidmann multi-server
    /// transform) for population `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn solve(&self, n: usize) -> MvaSolution {
        assert!(n >= 1, "population must be at least 1");
        // Seidmann transform: (demand, extra delay) per station.
        let transformed: Vec<(f64, f64)> = self
            .stations
            .iter()
            .map(|s| {
                let d = s.demand.as_secs_f64();
                let m = s.servers as f64;
                (d / m, d * (m - 1.0) / m)
            })
            .collect();
        let base_delay: f64 = self.think.as_secs_f64()
            + self.delay.as_secs_f64()
            + transformed.iter().map(|&(_, extra)| extra).sum::<f64>();

        let k = transformed.len();
        let mut queue = vec![0.0f64; k];
        let mut x = 0.0;
        let mut response_q = 0.0;
        for pop in 1..=n {
            // Residence time per queueing station.
            let residence: Vec<f64> = transformed
                .iter()
                .zip(&queue)
                .map(|(&(d, _), &q)| d * (1.0 + q))
                .collect();
            response_q = residence.iter().sum::<f64>();
            x = pop as f64 / (response_q + base_delay);
            for (q, r) in queue.iter_mut().zip(&residence) {
                *q = x * r;
            }
        }
        let response_secs = response_q + base_delay - self.think.as_secs_f64();
        MvaSolution {
            n,
            throughput_rps: x,
            response: SimDuration::from_secs_f64(response_secs.max(0.0)),
            queue_lengths: queue,
        }
    }

    /// Solves for several populations at once.
    pub fn solve_sweep(&self, populations: &[usize]) -> Vec<MvaSolution> {
        populations.iter().map(|&n| self.solve(n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_secs_f64(v / 1e3)
    }

    #[test]
    fn single_station_machine_repairman() {
        // One user, one 1-server station: X = 1/(D+Z), no queueing.
        let model = ClosedModel::new(ms(9.0)).station(Station::new("s", ms(1.0), 1));
        let sol = model.solve(1);
        assert!(
            (sol.throughput_rps - 100.0).abs() < 1e-9,
            "X {}",
            sol.throughput_rps
        );
        assert!((sol.response.as_secs_f64() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn throughput_saturates_at_bottleneck() {
        let model = ClosedModel::new(ms(10.0)).station(Station::new("s", ms(2.0), 1));
        let bound = model.bottleneck_bound_rps();
        assert!((bound - 500.0).abs() < 1e-9);
        let sol = model.solve(200);
        assert!(sol.throughput_rps <= bound + 1e-6);
        assert!(
            sol.throughput_rps > 0.95 * bound,
            "X {} vs bound {bound}",
            sol.throughput_rps
        );
    }

    #[test]
    fn throughput_is_monotone_in_population() {
        let model = ClosedModel::new(ms(5.0))
            .station(Station::new("a", ms(1.0), 2))
            .station(Station::new("b", ms(0.5), 1));
        let mut last = 0.0;
        for n in [1usize, 2, 4, 8, 16, 64, 256] {
            let x = model.solve(n).throughput_rps;
            assert!(x >= last - 1e-9, "X must not fall: {last} → {x}");
            last = x;
        }
    }

    #[test]
    fn multi_server_beats_single_server() {
        let one = ClosedModel::new(ms(1.0)).station(Station::new("s", ms(4.0), 1));
        let four = ClosedModel::new(ms(1.0)).station(Station::new("s", ms(4.0), 4));
        let n = 16;
        assert!(
            four.solve(n).throughput_rps > 2.0 * one.solve(n).throughput_rps,
            "4 servers must help under load"
        );
    }

    #[test]
    fn low_load_is_demand_limited() {
        // With one user, X = 1/(ΣD + delay + Z) regardless of servers.
        let model = ClosedModel::new(ms(8.0))
            .station(Station::new("a", ms(1.0), 4))
            .station(Station::new("b", ms(1.0), 2))
            .with_delay(ms(2.0));
        let x = model.solve(1).throughput_rps;
        assert!((x - 1.0 / 0.012).abs() < 1e-6, "X {x}");
    }

    #[test]
    fn queue_lengths_sum_below_population() {
        let model = ClosedModel::new(ms(1.0))
            .station(Station::new("a", ms(2.0), 1))
            .station(Station::new("b", ms(1.0), 1));
        let sol = model.solve(10);
        let total_q: f64 = sol.queue_lengths.iter().sum();
        assert!(total_q < 10.0);
        assert!(
            sol.queue_lengths[0] > sol.queue_lengths[1],
            "bottleneck queues more"
        );
    }

    #[test]
    #[should_panic(expected = "population must be at least 1")]
    fn zero_population_rejected() {
        ClosedModel::new(ms(1.0))
            .station(Station::new("s", ms(1.0), 1))
            .solve(0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        Station::new("s", ms(1.0), 0);
    }
}
