//! Battery for the sharded parallel-in-run engine (`microsvc::shard`).
//!
//! The determinism contract (see DESIGN.md "Sharded execution"):
//!
//! 1. `--shards 1` routes through the untouched serial engine — byte-identical
//!    to every recorded golden, trivially.
//! 2. For `N > 1` the results are a deterministic function of the *shard
//!    count* (cells partition users and carry per-cell RNG streams), but are
//!    invariant across worker-thread counts, reruns, and snapshot
//!    round-trips. Per-shard-count golden hashes pin E3/E8/E18/E22 below.
//! 3. A mid-run snapshot taken at a window barrier resumes into the same
//!    trajectory bit-for-bit.

use scaleup_bench::{experiments as exp, Config};
use simcore::SimDuration;
use std::sync::Mutex;

/// Serializes tests that touch the global `scaleup::par` worker count.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The quick config with the lab sharded `shards` ways (0 workers = one per
/// host core; the results must not depend on it).
fn sharded_config(shards: u32, workers: usize) -> Config {
    let mut config = Config::quick(42);
    config.lab.shards = shards;
    config.lab.shard_workers = workers;
    config
}

fn assert_golden(name: &str, shards: u32, table: &str, want: u64) {
    assert_eq!(
        fnv1a(table),
        want,
        "{name} at {shards} shards drifted; new hash {:#018x}, table:\n{table}",
        fnv1a(table)
    );
}

#[test]
fn shards_1_is_the_legacy_engine_byte_for_byte() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // `--shards 1` must not merely hash the same — it must be the very same
    // code path, so the tables match the untouched config byte for byte
    // (the recorded serial goldens in tests/golden.rs then pin both).
    let legacy = Config::quick(42);
    let one = sharded_config(1, 1);
    assert_eq!(exp::e3(&legacy).table, exp::e3(&one).table);
    assert_eq!(exp::e22(&legacy).table, exp::e22(&one).table);
}

/// Recorded per-shard-count golden hashes for the E3/E8/E18/E19/E22
/// battery, quick config, seed 42: `(shards, e3, e8, e18, e19, e22)`. Each
/// row was verified stable across reruns and worker counts before
/// recording. E19 (crash & recovery) completes the resilience pair: its
/// runs route through the same sharded cells, so the crash/restart events
/// must land identically at every shard count.
const SHARDED_GOLDENS: &[(u32, u64, u64, u64, u64, u64)] = &[
    (2, 0xc8bc_4dc2_44ab_c544, 0xfe6a_cb2e_8c29_1809, 0x4c65_0bd7_8e92_0c2c, 0xde07_0902_30d6_7508, 0x8aa8_f4bf_1580_ca88),
    (4, 0x4d32_7a4f_873c_486a, 0x465c_1968_a117_89e8, 0x7280_de87_3bf0_84c1, 0x82cb_bf32_193d_703d, 0x5e5f_a7aa_8e28_9d82),
    (8, 0xd077_51e7_b919_ee0d, 0x49b8_3055_293c_4425, 0xae74_cadf_7bce_e756, 0xe673_5a30_996a_b3aa, 0x6a3d_9a32_5f1b_62ff),
];

fn battery(shards: u32, e3: u64, e8: u64, e18: u64, e19: u64, e22: u64) {
    let config = sharded_config(shards, 0);
    assert_golden("E3", shards, &exp::e3(&config).table, e3);
    assert_golden("E8", shards, &exp::e8(&config).table, e8);
    assert_golden("E18", shards, &exp::e18(&config).table, e18);
    assert_golden("E19", shards, &exp::e19(&config).table, e19);
    assert_golden("E22", shards, &exp::e22(&config).table, e22);
}

#[test]
fn sharded_battery_matches_goldens_at_2_shards() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = SHARDED_GOLDENS[0];
    battery(g.0, g.1, g.2, g.3, g.4, g.5);
}

#[test]
fn sharded_battery_matches_goldens_at_4_shards() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = SHARDED_GOLDENS[1];
    battery(g.0, g.1, g.2, g.3, g.4, g.5);
}

#[test]
fn sharded_battery_matches_goldens_at_8_shards() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = SHARDED_GOLDENS[2];
    battery(g.0, g.1, g.2, g.3, g.4, g.5);
}

#[test]
fn sharded_tables_are_identical_at_any_worker_count() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The worker count only changes *which thread* advances a cell, never
    // the merge order (messages sort by (arrival, src, seq) at the
    // barrier). Three cells also exercise the user-remainder split.
    for shards in [2u32, 3] {
        let serial = sharded_config(shards, 1);
        let wide = sharded_config(shards, 4);
        assert_eq!(
            exp::e3(&serial).table,
            exp::e3(&wide).table,
            "E3 at {shards} shards differs between 1 and 4 workers"
        );
        assert_eq!(
            exp::e22(&serial).table,
            exp::e22(&wide).table,
            "E22 at {shards} shards differs between 1 and 4 workers"
        );
    }
}

#[test]
fn sharded_checkpoint_roundtrip_is_invisible() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The checkpoint detour saves the whole sharded run at the end-of-warmup
    // barrier, rebuilds every cell from scratch, restores, and resumes. The
    // report must match the straight run bit for bit.
    let config = sharded_config(2, 0);
    let app = config.store.app();
    let replicas = config.baseline_replicas();
    let placed =
        scaleup::placement::Policy::Unpinned.deploy(app, &config.lab.topo, &replicas);
    let straight = config
        .lab
        .run_app(app, placed.deployment.clone(), placed.lb);
    let mut ckpt_lab = config.lab.clone();
    ckpt_lab.checkpoint = true;
    let resumed = ckpt_lab.run_app(app, placed.deployment, placed.lb);
    assert_eq!(straight.completed, resumed.completed);
    assert_eq!(straight.events_processed, resumed.events_processed);
    assert_eq!(straight.mean_latency, resumed.mean_latency);
    assert_eq!(straight.latency_p99, resumed.latency_p99);
    assert_eq!(
        straight.throughput_rps.to_bits(),
        resumed.throughput_rps.to_bits(),
        "sharded checkpoint round-trip diverged: {} vs {}",
        straight.throughput_rps,
        resumed.throughput_rps
    );
    assert_eq!(straight.summary(), resumed.summary());
}

mod lookahead_props {
    use super::*;
    use microsvc::Deployment;
    use proptest::prelude::*;
    use scaleup::Lab;

    /// One tiny sharded run with arbitrary lookahead/cross-traffic knobs.
    /// The returned footprint includes the float *bits* of every headline
    /// metric, so "equal" means byte-identical, not approximately equal.
    fn run(
        latency_us: u64,
        cross: u32,
        shards: u32,
        users: u64,
        workers: usize,
        seed: u64,
    ) -> String {
        let store = teastore::TeaStore::with_demand_scale(0.25);
        let mut lab = Lab::small(seed).with_users(users).with_shards(shards);
        lab.shard_cross_permille = cross;
        lab.shard_latency = SimDuration::from_micros(latency_us);
        lab.shard_workers = workers;
        lab.warmup = SimDuration::from_millis(100);
        lab.measure = SimDuration::from_millis(300);
        let app = store.app();
        let deployment = Deployment::uniform(app, &lab.topo, 2, 4);
        let report = lab.run_app(app, deployment, microsvc::LbPolicy::RoundRobin);
        format!(
            "{} completed={} ev={} mean={} p99={} thr={:016x}",
            report.summary(),
            report.completed,
            report.events_processed,
            report.mean_latency,
            report.latency_p99,
            report.throughput_rps.to_bits()
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Any lookahead grain (window = cross-cell latency), any cross-cell
        /// intensity, any cell count: the run must complete without tripping
        /// the engine's causality assertion (`inject_timer_at` panics on an
        /// arrival before the cell's clock — per-shard time-ordering), and
        /// the result must be a pure function of the knobs, not the worker
        /// interleaving.
        #[test]
        fn random_lookahead_grains_preserve_causality_and_determinism(
            latency_us in 100u64..5_000,
            cross in 0u32..300,
            shards in 1u32..5,
            users in 8u64..40,
            seed in 0u64..1_000,
        ) {
            let a = run(latency_us, cross, shards, users, 1, seed);
            let b = run(latency_us, cross, shards, users, 4, seed);
            prop_assert_eq!(a, b);
        }
    }
}

mod dense_traffic {
    use super::*;
    use loadgen::ClosedLoop;
    use microsvc::{
        mix_seed, Deployment, Engine, EngineParams, ShardSpec, ShardedRun, SyncStats,
    };
    use simcore::SimTime;
    use std::sync::Arc;

    /// A dense little sharded run built directly (the `Lab` wrapper hides
    /// [`ShardedRun::sync_stats`]): 4 cells, heavy cross-traffic, fine
    /// window. Returns the report footprint, the sync counters and the
    /// number of cross-cell messages sent.
    fn direct(workers: usize) -> (String, SyncStats, u64) {
        let store = teastore::TeaStore::with_demand_scale(0.25);
        let app = store.app();
        let topo = Arc::new(cputopo::Topology::desktop_8c());
        let spec = ShardSpec {
            cells: 4,
            cross_permille: 300,
            latency: SimDuration::from_micros(250),
        };
        let mix: Vec<f64> = app.classes().iter().map(|c| c.weight).collect();
        let cells = (0..spec.cells)
            .map(|c| {
                let engine = Engine::new(
                    topo.clone(),
                    EngineParams::default(),
                    app.clone(),
                    Deployment::uniform(app, &topo, 2, 4),
                    mix_seed(42, c),
                );
                let load = ClosedLoop::new(6)
                    .think_time(SimDuration::from_millis(2))
                    .mix(&mix)
                    .warmup(SimDuration::from_millis(50))
                    .measure(SimDuration::from_millis(150));
                (engine, load)
            })
            .collect();
        let mut run = ShardedRun::new(cells, spec);
        run.run(SimTime::ZERO + SimDuration::from_millis(800), workers);
        let report = run.report();
        let footprint = format!(
            "{} completed={} ev={} mean={} p99={} thr={:016x}",
            report.summary(),
            report.completed,
            report.events_processed,
            report.mean_latency,
            report.latency_p99,
            report.throughput_rps.to_bits()
        );
        let messages = run.drivers().map(|d| d.messages_sent()).sum();
        (footprint, run.sync_stats(), messages)
    }

    #[test]
    fn dense_cross_traffic_is_worker_invariant_with_exact_sync_counts() {
        let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // 300‰ cross traffic over a 250 µs window: the report and every
        // sync counter must be the same at 2 and 8 workers, and the
        // conservative loop crosses exactly two barriers per window.
        let (two, stats, messages) = direct(2);
        let (eight, again, _) = direct(8);
        assert_eq!(two, eight, "report depends on the worker count");
        assert_eq!(stats, again, "sync stats depend on the worker count");
        assert!(messages > 0, "no cross-cell traffic — the test is vacuous");
        assert!(stats.windows > 0, "{stats:?}");
        assert_eq!(stats.rounds, stats.windows, "{stats:?}");
        assert_eq!(stats.barriers, 2 * stats.windows, "{stats:?}");
        assert_eq!(stats.rollbacks, 0, "{stats:?}");
        assert_eq!(stats.replayed_events, 0, "{stats:?}");
    }
}
