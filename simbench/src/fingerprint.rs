//! Correctness fingerprints of simulated results, and the checker that
//! turns a mismatch into a failed operation.
//!
//! A fingerprint hashes the simulated statistics a pure performance change
//! must leave identical: events, completions, per-class submitted/failed
//! counts, simulated p50/p99, scheduler counts and the sharded run's
//! synchronization counters. For a seed recorded in `fingerprints.txt` every
//! operation must match the recorded value; for any other seed, repeated
//! operations of a run must agree with the first.

use microsvc::{RunReport, SyncStats};
use simcore::snap::fnv64;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Canonical text of the fingerprinted statistics.
fn canonical(r: &RunReport, sync: Option<&SyncStats>) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "events={} completed={} p50={} p99={} submitted={:?} failed={:?} \
         sched={},{},{},{}",
        r.events_processed,
        r.completed,
        r.latency_p50.as_nanos(),
        r.latency_p99.as_nanos(),
        r.per_class_submitted,
        r.per_class_failed,
        r.sched.wakeups,
        r.sched.context_switches,
        r.sched.migrations,
        r.sched.steals,
    );
    if let Some(st) = sync {
        let _ = write!(
            s,
            " sync={},{},{},{},{}",
            st.rounds, st.windows, st.barriers, st.rollbacks, st.replayed_events
        );
    }
    s
}

/// FNV-1a of [`canonical`].
pub fn of(r: &RunReport, sync: Option<&SyncStats>) -> u64 {
    fnv64(canonical(r, sync).as_bytes())
}

/// Identifies one operation's expected result: the run itself (`None`) or
/// branch `i` of a sweep.
pub type OpKey = Option<u64>;

/// Expected fingerprints for one `(workload, seed)`, recorded or learned.
#[derive(Debug, Default)]
pub struct Checker {
    expected: BTreeMap<OpKey, u64>,
    /// Whether `expected` came from the recorded table.
    recorded: bool,
}

impl Checker {
    /// Builds the checker for `workload` at `seed` from the text of a
    /// fingerprint table (`<workload> <seed> <op|*> <0xhex>` per line, `#`
    /// comments). An unrecorded seed starts empty and learns from its first
    /// operations.
    pub fn new(table: &str, workload: &str, seed: u64) -> Result<Checker, String> {
        let mut expected = BTreeMap::new();
        for (n, line) in table.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad = || format!("fingerprint table line {}: cannot parse {line:?}", n + 1);
            let f: Vec<&str> = line.split_whitespace().collect();
            let [w, s, op, fp] = f[..] else {
                return Err(bad());
            };
            let s: u64 = s.parse().map_err(|_| bad())?;
            if w != workload || s != seed {
                continue;
            }
            let key = match op {
                "*" => None,
                i => Some(i.parse().map_err(|_| bad())?),
            };
            let fp = fp
                .strip_prefix("0x")
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(bad)?;
            expected.insert(key, fp);
        }
        let recorded = !expected.is_empty();
        Ok(Checker { expected, recorded })
    }

    /// Whether this seed's fingerprints come from the recorded table.
    pub fn is_recorded(&self) -> bool {
        self.recorded
    }

    /// Checks one operation. A key the checker has not seen is learned,
    /// unless the seed is recorded, where an unknown key is a mismatch.
    pub fn check(&mut self, key: OpKey, fp: u64) -> bool {
        match self.expected.get(&key) {
            Some(&want) => want == fp,
            None if self.recorded => false,
            None => {
                self.expected.insert(key, fp);
                true
            }
        }
    }
}

/// One table line, as `--record` prints it.
pub fn line(workload: &str, seed: u64, key: OpKey, fp: u64) -> String {
    let op = key.map_or("*".to_owned(), |i| i.to_string());
    format!("{workload} {seed} {op} {fp:#018x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_seed_rejects_a_perturbed_result() {
        let table = "# comment\npaper_serial 7 * 0x00000000000000aa\n";
        let mut c = Checker::new(table, "paper_serial", 7).unwrap();
        assert!(c.is_recorded());
        assert!(c.check(None, 0xaa));
        assert!(!c.check(None, 0xab));
        assert!(!c.check(Some(0), 0xaa), "unrecorded op of a recorded seed");
    }

    #[test]
    fn other_seed_learns_then_requires_agreement() {
        let table = "paper_serial 7 * 0xaa\n";
        let mut c = Checker::new(table, "paper_serial", 8).unwrap();
        assert!(!c.is_recorded());
        assert!(c.check(None, 0x1));
        assert!(c.check(None, 0x1));
        assert!(!c.check(None, 0x2));
    }

    #[test]
    fn branch_keys_are_checked_separately() {
        let table = "fault_branch 1 0 0x10\nfault_branch 1 1 0x11\n";
        let mut c = Checker::new(table, "fault_branch", 1).unwrap();
        assert!(c.check(Some(0), 0x10));
        assert!(c.check(Some(1), 0x11));
        assert!(!c.check(Some(1), 0x10));
    }

    #[test]
    fn malformed_table_is_an_error() {
        assert!(Checker::new("paper_serial x * 0x1\n", "paper_serial", 1).is_err());
        assert!(Checker::new("paper_serial 1 * 12\n", "paper_serial", 1).is_err());
        assert!(Checker::new("paper_serial 1\n", "paper_serial", 1).is_err());
    }

    #[test]
    fn line_round_trips_through_the_table() {
        let text = format!("{}\n{}\n", line("w", 3, None, 5), line("w", 3, Some(2), 6));
        let mut c = Checker::new(&text, "w", 3).unwrap();
        assert!(c.check(None, 5) && c.check(Some(2), 6));
    }

    /// A real report of a small closed-loop run.
    fn report() -> RunReport {
        use simcore::{SimDuration, SimTime};
        let topo = std::sync::Arc::new(cputopo::Topology::desktop_8c());
        let store = teastore::TeaStore::browse();
        let mix = store.mix();
        let app = store.into_app();
        let deployment = microsvc::Deployment::uniform(&app, &topo, 2, 4);
        let params = microsvc::EngineParams::default();
        let mut engine = microsvc::Engine::new(topo, params, app, deployment, 5);
        let mut load = loadgen::ClosedLoop::new(16)
            .think_time(SimDuration::from_millis(10))
            .mix(&mix)
            .warmup(SimDuration::from_millis(50))
            .measure(SimDuration::from_millis(100));
        microsvc::Engine::run(&mut engine, &mut load, SimTime::from_secs(1));
        engine.report()
    }

    #[test]
    fn every_fingerprinted_field_moves_the_hash() {
        let base = report();
        assert!(base.completed > 0);
        let fp = of(&base, None);
        assert_eq!(of(&base.clone(), None), fp);
        let perturbations: [fn(&mut RunReport); 7] = [
            |r| r.events_processed += 1,
            |r| r.completed += 1,
            |r| r.latency_p50 += simcore::SimDuration::from_nanos(1),
            |r| r.latency_p99 += simcore::SimDuration::from_nanos(1),
            |r| r.per_class_submitted[0] += 1,
            |r| r.per_class_failed.push(0),
            |r| r.sched.steals += 1,
        ];
        for (i, perturb) in perturbations.iter().enumerate() {
            let mut r = base.clone();
            perturb(&mut r);
            assert_ne!(of(&r, None), fp, "perturbation {i}");
        }
        let sync = SyncStats::default();
        assert_ne!(of(&base, Some(&sync)), fp);
        let moved = SyncStats {
            barriers: 2,
            ..sync
        };
        assert_ne!(of(&base, Some(&moved)), of(&base, Some(&sync)));
    }
}
