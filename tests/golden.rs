//! Golden-output tests for the hot-path overhaul: the timer wheel, the
//! slab-recycled request path, the memoized CPI model, and the parallel
//! sweep runner must all be invisible in the reports.
//!
//! Two guarantees:
//! 1. The quick-config E3/E8 tables hash to recorded values — any change to
//!    the simulation's arithmetic or event ordering trips these.
//! 2. Running a sweep with 1 worker and with 8 workers yields byte-identical
//!    tables — the work-stealing pool only changes *when* a point runs, the
//!    merge order is the sweep order.
//!
//! The E3/E8 CSVs that `repro --csv` writes through the experiment registry
//! are hashed the same way.
//!
//! The fault (E18/E19) and overload (E20/E21) experiments are pinned the
//! same way: hashes catch drift from the overload-control machinery, the
//! jobs test catches any nondeterminism in their sweeps. E27 (warm-start
//! grid, wall-clock-free cell fingerprints) and E29 (chaos sweep) extend
//! the battery over the checkpoint/branch and chaos-search layers.

use scaleup_bench::{experiments as exp, Config};
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

#[test]
fn e3_e8_quick_tables_match_golden_hashes() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = Config::quick(42);
    let e3 = exp::e3(&config).table;
    let e8 = exp::e8(&config).table;
    // Recorded from the pre-overhaul seed (verified byte-identical across
    // the BinaryHeap->wheel, alloc->slab, and sequential->parallel changes).
    assert_eq!(
        fnv1a(&e3),
        0xb1ff_8356_b91c_cc85,
        "E3 quick table drifted; new hash {:#018x}, table:\n{e3}",
        fnv1a(&e3)
    );
    assert_eq!(
        fnv1a(&e8),
        0x623d_25c1_8fc8_4803,
        "E8 quick table drifted; new hash {:#018x}, table:\n{e8}",
        fnv1a(&e8)
    );
}

/// The CSV a registry row writes under `--csv`, for the quick config.
fn quick_csv(id: &str) -> (&'static str, String) {
    let row = scaleup_bench::registry::find(id).expect("registered id");
    let mut html = scaleup::html::HtmlReport::new("golden");
    let outcome = (row.run)(&Config::quick(42), true, None, &mut html).expect("row runs");
    outcome.csv.expect("row writes a CSV")
}

#[test]
fn e3_e8_quick_csvs_match_golden_hashes() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Recorded from `repro --quick --seed 42 --csv` before the experiment
    // registry replaced the per-id dispatch in the `repro` binary.
    for (id, file, golden) in [
        ("e3", "e3_load_curve.csv", 0x7729_12a3_6d88_055d_u64),
        ("e8", "e8_placement.csv", 0xf71c_39b9_9e0f_53f5),
    ] {
        let (name, csv) = quick_csv(id);
        assert_eq!(name, file);
        assert_eq!(
            fnv1a(&csv),
            golden,
            "{id} quick CSV drifted; new hash {:#018x}, CSV:\n{csv}",
            fnv1a(&csv)
        );
    }
}

#[test]
fn e18_e19_quick_tables_match_golden_hashes() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = Config::quick(42);
    let e18 = exp::e18(&config).table;
    let e19 = exp::e19(&config).table;
    // Recorded when the overload-control layer landed: the fault-injection
    // experiments must not shift when admission/budget/limiter code is
    // present but unconfigured.
    assert_eq!(
        fnv1a(&e18),
        0x6abd_466c_8432_14c5,
        "E18 quick table drifted; new hash {:#018x}, table:\n{e18}",
        fnv1a(&e18)
    );
    assert_eq!(
        fnv1a(&e19),
        0x6dfe_8d00_0099_bf2a,
        "E19 quick table drifted; new hash {:#018x}, table:\n{e19}",
        fnv1a(&e19)
    );
}

#[test]
fn e22_e23_quick_tables_match_golden_hashes() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = Config::quick(42);
    let e22 = exp::e22(&config).table;
    let e23 = exp::e23(&config).table;
    // Recorded when the mega-scale layer landed: the brownout and recovery
    // studies must not shift when the compact slabs, streaming series, and
    // reservoir tracer are present but unconfigured.
    assert_eq!(
        fnv1a(&e22),
        0xe9d7_52fe_b2b9_97d3,
        "E22 quick table drifted; new hash {:#018x}, table:\n{e22}",
        fnv1a(&e22)
    );
    assert_eq!(
        fnv1a(&e23),
        0x20c7_735a_8ca3_4ed1,
        "E23 quick table drifted; new hash {:#018x}, table:\n{e23}",
        fnv1a(&e23)
    );
}

#[test]
fn e20_e21_quick_tables_match_golden_hashes() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = Config::quick(42);
    let e20 = exp::e20(&config).table;
    let e21 = exp::e21(&config).table;
    // Recorded when the checkpoint/branch layer landed: the overload sweeps
    // must not shift when the snapshot registry is present but unused.
    assert_eq!(
        fnv1a(&e20),
        0x1c11_6acc_3d76_c5a7,
        "E20 quick table drifted; new hash {:#018x}, table:\n{e20}",
        fnv1a(&e20)
    );
    assert_eq!(
        fnv1a(&e21),
        0x21a6_7f22_ffd7_14b2,
        "E21 quick table drifted; new hash {:#018x}, table:\n{e21}",
        fnv1a(&e21)
    );
}

#[test]
fn e24_quick_rows_match_golden_hash() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = Config::quick(42);
    // E24's rendered table embeds wall-clock events/s, so pin the
    // simulation-derived row fields instead of the table text. The
    // simulated outcome and the memory footprint are pinned apart: a
    // change to how the engine stores its state moves bytes/user without
    // moving a single simulated result.
    let rows = exp::e24(&config).rows;
    let outcome: Vec<_> = rows
        .iter()
        .map(|p| {
            (
                p.users,
                p.report.completed,
                p.report.latency_p99,
                p.report.events_processed,
            )
        })
        .collect();
    let rendered = format!("{outcome:?}");
    assert_eq!(
        fnv1a(&rendered),
        0xd2be_f886_d93b_ff18,
        "E24 quick outcome drifted; new hash {:#018x}, rows:\n{rendered}",
        fnv1a(&rendered)
    );
    let footprint: Vec<_> = rows.iter().map(|p| p.bytes_per_user.to_bits()).collect();
    let rendered = format!("{footprint:?}");
    assert_eq!(
        fnv1a(&rendered),
        0x3e96_0307_3031_beec,
        "E24 quick bytes/user drifted; new hash {:#018x}, bytes/user: {:?}",
        fnv1a(&rendered),
        rows.iter().map(|p| p.bytes_per_user).collect::<Vec<_>>()
    );
}

#[test]
fn mega_experiments_are_deterministic_at_any_worker_count() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = Config::quick(42);
    // E24's table embeds wall-clock events/s, so compare the deterministic
    // row fields; the E25/E26 tables carry only simulation-derived values
    // and must match byte for byte.
    let snapshot = || {
        let e24: Vec<_> = exp::e24(&config)
            .rows
            .iter()
            .map(|p| {
                (
                    p.users,
                    p.report.completed,
                    p.report.latency_p99,
                    p.report.events_processed,
                    p.bytes_per_user.to_bits(),
                )
            })
            .collect();
        (e24, exp::e25(&config).table, exp::e26(&config).table)
    };
    scaleup::par::set_jobs(1);
    let seq = snapshot();
    scaleup::par::set_jobs(8);
    let par = snapshot();
    scaleup::par::set_jobs(0); // restore auto
    assert_eq!(seq.0, par.0, "E24 differs between --jobs 1 and --jobs 8");
    assert_eq!(seq.1, par.1, "E25 differs between --jobs 1 and --jobs 8");
    assert_eq!(seq.2, par.2, "E26 differs between --jobs 1 and --jobs 8");
}

#[test]
fn overload_experiments_are_byte_identical_at_any_worker_count() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = Config::quick(42);
    scaleup::par::set_jobs(1);
    let seq = (exp::e20(&config).table, exp::e21(&config).table);
    scaleup::par::set_jobs(8);
    let par = (exp::e20(&config).table, exp::e21(&config).table);
    scaleup::par::set_jobs(0); // restore auto
    assert_eq!(seq.0, par.0, "E20 differs between --jobs 1 and --jobs 8");
    assert_eq!(seq.1, par.1, "E21 differs between --jobs 1 and --jobs 8");
}

#[test]
fn enumeration_orders_are_byte_identical_at_any_worker_count() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = Config::quick(42);
    // E17 sweeps the five CPU-mask enumeration orders under par::map and
    // counts distinct cores per mask — the path the D1 migration moved off
    // std HashSet (cputopo enumeration + sorted dedup). Loadgen's wake
    // buckets ride the same guarantee via the E24 leg above.
    scaleup::par::set_jobs(1);
    let seq = exp::e17(&config);
    scaleup::par::set_jobs(8);
    let par = exp::e17(&config);
    scaleup::par::set_jobs(0); // restore auto
    assert_eq!(seq, par, "E17 differs between --jobs 1 and --jobs 8");
}

#[test]
fn sweeps_are_byte_identical_at_any_worker_count() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = Config::quick(42);
    scaleup::par::set_jobs(1);
    let seq = (exp::e3(&config).table, exp::e8(&config).table);
    scaleup::par::set_jobs(8);
    let par = (exp::e3(&config).table, exp::e8(&config).table);
    scaleup::par::set_jobs(0); // restore auto
    assert_eq!(seq.0, par.0, "E3 differs between --jobs 1 and --jobs 8");
    assert_eq!(seq.1, par.1, "E8 differs between --jobs 1 and --jobs 8");
}

#[test]
fn e27_e29_quick_outputs_match_golden_hashes() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = Config::quick(42);
    // E27's rendered table embeds wall-clock seconds, so pin the
    // simulation-derived cell fingerprint (same fields the experiment's own
    // cold-vs-warm check compares) plus the `identical` verdict. E29's
    // table carries only seed-derived values and hashes directly.
    let e27 = exp::e27(&config);
    let cells: Vec<_> = e27
        .cold
        .iter()
        .chain(e27.warm.iter())
        .map(|(users, extent, r)| {
            (
                *users,
                extent.as_nanos(),
                r.completed,
                r.events_processed,
                r.throughput_rps.to_bits(),
            )
        })
        .collect();
    let rendered = format!("{cells:?} {}", e27.identical);
    assert_eq!(
        fnv1a(&rendered),
        0x6d4b_c8f4_dd5d_30a9,
        "E27 quick fingerprint drifted; new hash {:#018x}, cells:\n{rendered}",
        fnv1a(&rendered)
    );
    let e29 = exp::e29(&config).table;
    assert_eq!(
        fnv1a(&e29),
        0x674d_2227_498a_d819,
        "E29 quick table drifted; new hash {:#018x}, table:\n{e29}",
        fnv1a(&e29)
    );
}

#[test]
fn warm_start_and_chaos_are_deterministic_at_any_worker_count() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = Config::quick(42);
    // E27 compares the wall-clock-free cell fingerprints; E29's table must
    // match byte for byte (the chaos search fans probes across the pool but
    // merges findings in plan order).
    let snapshot = || {
        let e27 = exp::e27(&config);
        let cells: Vec<_> = e27
            .cold
            .iter()
            .chain(e27.warm.iter())
            .map(|(users, extent, r)| {
                (
                    *users,
                    extent.as_nanos(),
                    r.completed,
                    r.events_processed,
                    r.throughput_rps.to_bits(),
                )
            })
            .collect();
        (cells, e27.identical, exp::e29(&config).table)
    };
    scaleup::par::set_jobs(1);
    let seq = snapshot();
    scaleup::par::set_jobs(8);
    let par = snapshot();
    scaleup::par::set_jobs(0); // restore auto
    assert_eq!(seq.0, par.0, "E27 differs between --jobs 1 and --jobs 8");
    assert_eq!(seq.1, par.1, "E27 verdict differs between --jobs 1 and --jobs 8");
    assert_eq!(seq.2, par.2, "E29 differs between --jobs 1 and --jobs 8");
}
