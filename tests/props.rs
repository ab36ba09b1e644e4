//! Property-based tests over cross-crate invariants.

use cputopo::{CpuId, CpuSet, Proximity, Topology, TopologyBuilder};
use microsvc::{
    AppSpec, CallNode, CallStage, Demand, Deployment, Driver, Engine, EngineCtx, EngineParams,
    FaultPlan, InstanceId, Outcome, ResilienceParams, ResponseInfo, RetryPolicy, ServiceSpec,
};
use proptest::prelude::*;
use simcore::{Calendar, SimTime};
use std::sync::Arc;
use uarch::ServiceProfile;

// ---------------------------------------------------------------- topology

fn topo_strategy() -> impl Strategy<Value = Topology> {
    (1u32..=2, 1u32..=2, 1u32..=4, 1u32..=2, 1u32..=4, 1u32..=2).prop_map(
        |(sockets, numa, ccds, ccxs, cores, threads)| {
            TopologyBuilder::new("prop")
                .sockets(sockets)
                .numa_per_socket(numa)
                .ccds_per_numa(ccds)
                .ccxs_per_ccd(ccxs)
                .cores_per_ccx(cores)
                .threads_per_core(threads)
                .build()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topology_domains_partition_and_nest(topo in topo_strategy()) {
        // Every CPU appears in exactly one set per level, and domains nest.
        for cpu in topo.all_cpus().iter() {
            let domains = topo.domains_of(cpu);
            for w in domains.windows(2) {
                prop_assert!(w[0].is_subset(w[1]));
            }
            prop_assert!(domains[0].contains(cpu));
            // Level memberships are consistent with the id accessors.
            prop_assert!(topo.cpus_in_ccx(topo.ccx_of(cpu)).contains(cpu));
            prop_assert!(topo.cpus_in_numa(topo.numa_of(cpu)).contains(cpu));
            prop_assert!(topo.cpus_in_socket(topo.socket_of(cpu)).contains(cpu));
        }
        // Socket sets partition the machine.
        let total: usize = (0..topo.num_sockets() as u32)
            .map(|s| topo.cpus_in_socket(cputopo::SocketId(s)).len())
            .sum();
        prop_assert_eq!(total, topo.num_cpus());
    }

    #[test]
    fn proximity_is_symmetric_and_reflexive(topo in topo_strategy(), a_raw in 0u32..64, b_raw in 0u32..64) {
        let a = CpuId(a_raw % topo.num_cpus() as u32);
        let b = CpuId(b_raw % topo.num_cpus() as u32);
        prop_assert_eq!(topo.proximity(a, a), Proximity::SameCpu);
        prop_assert_eq!(topo.proximity(a, b), topo.proximity(b, a));
    }

    #[test]
    fn enumeration_orders_are_permutations(topo in topo_strategy()) {
        use cputopo::enumerate;
        for order in [
            enumerate::linear(&topo),
            enumerate::cores_first(&topo),
            enumerate::smt_packed(&topo),
            enumerate::ccx_round_robin(&topo),
            enumerate::socket_round_robin(&topo),
        ] {
            prop_assert_eq!(order.len(), topo.num_cpus());
            let set: CpuSet = order.iter().copied().collect();
            prop_assert_eq!(set.len(), topo.num_cpus());
        }
    }

    #[test]
    fn cpuset_matches_hashset_model(ops in proptest::collection::vec((0u8..4, 0u32..200), 1..200)) {
        let mut set = CpuSet::empty();
        let mut model: simcore::DetHashSet<u32> = simcore::DetHashSet::default();
        for (op, v) in ops {
            match op {
                0 => {
                    prop_assert_eq!(set.insert(CpuId(v)), model.insert(v));
                }
                1 => {
                    prop_assert_eq!(set.remove(CpuId(v)), model.remove(&v));
                }
                2 => {
                    prop_assert_eq!(set.contains(CpuId(v)), model.contains(&v));
                }
                _ => {
                    prop_assert_eq!(set.len(), model.len());
                }
            }
        }
        let from_iter: Vec<u32> = set.iter().map(|c| c.0).collect();
        let mut from_model: Vec<u32> = model.into_iter().collect();
        from_model.sort_unstable();
        prop_assert_eq!(from_iter, from_model);
    }
}

// ----------------------------------------------------------------- calendar

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn calendar_pops_sorted_and_complete(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some((t, i)) = cal.pop() {
            prop_assert!(t >= last, "time went backwards");
            last = t;
            popped.push(i);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
    }

    #[test]
    fn calendar_accounting_is_exact_across_overflow_migration(
        // Spans the wheel horizon (~4.3e12 ns), so entries park in the
        // overflow heap and migrate back as the wheel advances; the live
        // count and high-water mark must track the model exactly through
        // every migration (no entry counted twice, none lost).
        times in proptest::collection::vec(0u64..10_000_000_000_000, 1..200),
        pop_every in 2usize..8,
    ) {
        let mut cal = Calendar::new();
        let mut live = 0usize;
        let mut peak = 0usize;
        for (i, &t) in times.iter().enumerate() {
            let at = SimTime::from_nanos(t).max(cal.now());
            cal.schedule(at, i);
            live += 1;
            peak = peak.max(live);
            if i % pop_every == 0 && cal.pop().is_some() {
                live -= 1;
            }
            prop_assert_eq!(cal.len(), live);
            prop_assert_eq!(cal.high_water(), peak);
        }
        while cal.pop().is_some() {
            live -= 1;
            prop_assert_eq!(cal.len(), live);
        }
        prop_assert_eq!(live, 0);
        prop_assert_eq!(cal.high_water(), peak);
        prop_assert!(cal.footprint_bytes() > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn calendar_with_lane_matches_ordered_map_model_across_a_snapshot(
        ops in proptest::collection::vec((0u8..7, 0u64..4_000_000, 0u64..1000), 1..400),
        snap_at in 0usize..400,
    ) {
        // Random schedule / cancel / arm_lane / disarm_lane / pop
        // interleavings against a reference map keyed by (time, seq). At
        // `snap_at` the calendar is snapshotted: the restored copy must
        // re-save byte-identically, and from then on both must follow the
        // model op for op.
        use simcore::snap::{Snap, SnapReader, SnapWriter};
        use std::collections::BTreeMap;
        const QUANTUM: u64 = 3_000_000;
        const KEYS: usize = 4;
        let save = |cal: &Calendar<u64>| {
            let mut w = SnapWriter::new();
            cal.save(&mut w);
            w.finish()
        };
        let mut cals = vec![Calendar::<u64>::new()];
        let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut tokens = Vec::new();
        let mut lane: [Option<(u64, u64)>; KEYS] = [None; KEYS];
        for (i, &(op, a, b)) in ops.iter().enumerate() {
            if i == snap_at {
                let bytes = save(&cals[0]);
                let mut r = SnapReader::new(&bytes).expect("valid envelope");
                let restored = Calendar::<u64>::load(&mut r).expect("restores");
                prop_assert_eq!(save(&restored), bytes, "snapshot→load→snapshot must be stable");
                cals.push(restored);
            }
            let payload = i as u64;
            match op {
                0 | 1 => {
                    // Every tenth event lands past the wheel horizon, and
                    // some tie with a lane deadline to exercise the seq
                    // tie-break.
                    let at = match b % 10 {
                        0 => now + a + 5_000_000_000_000,
                        1 | 2 => now + QUANTUM,
                        _ => now + a,
                    };
                    let toks: Vec<_> = cals
                        .iter_mut()
                        .map(|c| c.schedule(SimTime::from_nanos(at), payload))
                        .collect();
                    prop_assert!(toks.windows(2).all(|w| w[0] == w[1]), "tokens diverged");
                    tokens.push((toks[0], (at, seq)));
                    model.insert((at, seq), payload);
                    seq += 1;
                }
                2 if !tokens.is_empty() => {
                    let (tok, key) = tokens[(b as usize) % tokens.len()];
                    let expect = model.remove(&key).is_some();
                    for c in &mut cals {
                        prop_assert_eq!(c.cancel(tok), expect);
                    }
                }
                3 => {
                    let key = (a as usize) % KEYS;
                    let at = now + QUANTUM;
                    for c in &mut cals {
                        c.arm_lane(key, SimTime::from_nanos(at), payload);
                    }
                    if let Some(old) = lane[key].replace((at, seq)) {
                        model.remove(&old);
                    }
                    model.insert((at, seq), payload);
                    seq += 1;
                }
                4 => {
                    let key = (a as usize) % KEYS;
                    let expect = lane[key].take().is_some_and(|k| model.remove(&k).is_some());
                    for c in &mut cals {
                        prop_assert_eq!(c.disarm_lane(key), expect);
                    }
                }
                _ => {
                    let expect = model.pop_first().map(|((at, _), p)| (SimTime::from_nanos(at), p));
                    if let Some((t, _)) = expect {
                        now = t.as_nanos();
                    }
                    for c in &mut cals {
                        prop_assert_eq!(c.pop(), expect);
                    }
                }
            }
            for c in &cals {
                prop_assert_eq!(c.len(), model.len());
            }
        }
        let expect: Vec<_> = model.into_iter().map(|((at, _), p)| (SimTime::from_nanos(at), p)).collect();
        for mut c in cals {
            let rest: Vec<_> = std::iter::from_fn(|| c.pop()).collect();
            prop_assert_eq!(&rest, &expect);
        }
    }
}

// -------------------------------------------------------------- USL fitting

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn usl_fit_reproduces_noiseless_curves(
        lambda in 10.0f64..500.0,
        sigma in 0.0f64..0.3,
        kappa in 0.0f64..0.01,
    ) {
        let ns = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
        let pts: Vec<(f64, f64)> = ns
            .iter()
            .map(|&n| {
                (n, lambda * n / (1.0 + sigma * (n - 1.0) + kappa * n * (n - 1.0)))
            })
            .collect();
        let fit = scaleup::usl::fit(&pts);
        for &(n, x) in &pts {
            let err = (fit.predict(n) - x).abs() / x.max(1e-9);
            prop_assert!(err < 0.05, "predict({n}) off by {err}");
        }
        prop_assert!(fit.r_squared > 0.99);
    }
}

// ------------------------------------------------- engine request conservation

#[derive(Debug, Clone)]
struct TreeSpec {
    depth: u8,
    fanout: u8,
    demand_us: f64,
}

// One service per tree level: synchronous workers hold their thread while
// waiting on children, so a service calling itself can deadlock when the
// pool is small (exactly like real servlet containers — see the
// `self_call_trees_deadlock_like_real_containers` test in `microsvc`).
// Non-reentrant trees must always complete; that is the property.
fn build_tree(services: &[microsvc::ServiceId], spec: &TreeSpec, level: u8) -> CallNode {
    let service = services[level as usize];
    if level >= spec.depth {
        return CallNode::leaf(service, Demand::fixed_us(spec.demand_us));
    }
    let children: Vec<CallNode> = (0..spec.fanout)
        .map(|_| build_tree(services, spec, level + 1))
        .collect();
    CallNode::new(
        service,
        Demand::fixed_us(spec.demand_us),
        vec![CallStage { parallel: children }],
        Demand::fixed_us(spec.demand_us / 2.0),
    )
}

struct Burst {
    to_issue: u32,
    done: u32,
}

impl Driver for Burst {
    fn start(&mut self, ctx: &mut dyn EngineCtx) {
        for c in 0..self.to_issue {
            ctx.submit(0, c as u64);
        }
    }
    fn on_response(&mut self, _resp: ResponseInfo, _ctx: &mut dyn EngineCtx) {
        self.done += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_request_completes_exactly_once(
        depth in 0u8..3,
        fanout in 1u8..3,
        demand_us in 20.0f64..500.0,
        replicas in 1usize..3,
        threads in 1usize..5,
        burst in 1u32..40,
        seed in 0u64..1000,
    ) {
        let topo = Arc::new(Topology::desktop_8c());
        let mut app = AppSpec::new();
        let services: Vec<microsvc::ServiceId> = (0..=depth as usize)
            .map(|i| {
                app.add_service(ServiceSpec::new(
                    &format!("s{i}"),
                    ServiceProfile::light_rpc(&format!("s{i}")),
                ))
            })
            .collect();
        let spec = TreeSpec { depth, fanout, demand_us };
        let root = build_tree(&services, &spec, 0);
        let jobs_per_request = root.node_count() as u64;
        app.add_class("prop", 1.0, root);
        let deployment = Deployment::uniform(&app, &topo, replicas, threads);
        let mut engine = Engine::new(topo, EngineParams::default(), app, deployment, seed);
        let mut driver = Burst { to_issue: burst, done: 0 };
        engine.run(&mut driver, SimTime::from_secs(120));

        // Conservation: every submitted request completed exactly once, and
        // the per-service job counts sum to requests × tree size.
        prop_assert_eq!(driver.done, burst);
        let report = engine.report();
        prop_assert_eq!(report.completed, burst as u64);
        let total_jobs: u64 = report.services.iter().map(|s| s.jobs_completed).sum();
        prop_assert_eq!(total_jobs, burst as u64 * jobs_per_request);
    }
}

// --------------------------------------------- fault injection & resilience

/// Per-outcome response counting, so conservation can be checked per kind.
struct OutcomeCount {
    to_issue: u32,
    ok: u64,
    timed_out: u64,
    shed: u64,
}

impl Driver for OutcomeCount {
    fn start(&mut self, ctx: &mut dyn EngineCtx) {
        for c in 0..self.to_issue {
            ctx.submit(0, c as u64);
        }
    }
    fn on_response(&mut self, resp: ResponseInfo, _ctx: &mut dyn EngineCtx) {
        match resp.outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::TimedOut => self.timed_out += 1,
            Outcome::Shed | Outcome::ShedByPolicy(_) => self.shed += 1,
        }
    }
}

fn fault_test_app() -> (AppSpec, u64) {
    let mut app = AppSpec::new();
    let services: Vec<microsvc::ServiceId> = (0..3)
        .map(|i| {
            app.add_service(ServiceSpec::new(
                &format!("s{i}"),
                ServiceProfile::light_rpc(&format!("s{i}")),
            ))
        })
        .collect();
    let spec = TreeSpec {
        depth: 2,
        fanout: 2,
        demand_us: 100.0,
    };
    let root = build_tree(&services, &spec, 0);
    let jobs = root.node_count() as u64;
    app.add_class("prop", 1.0, root);
    (app, jobs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A fault plan whose every window lies beyond the horizon, plus a
    /// resilience layer whose budgets nothing can exhaust, must leave the
    /// run byte-identical to the legacy engine: fault awareness may not
    /// perturb RNG draws, balancer picks, or event ordering.
    #[test]
    fn inert_faults_and_resilience_leave_runs_untouched(
        crash_at_s in 200u64..4_000,
        slow_at_s in 200u64..4_000,
        replicas in 1usize..3,
        threads in 1usize..5,
        burst in 1u32..30,
        seed in 0u64..1000,
    ) {
        let run = |faults: FaultPlan, resilience: Option<ResilienceParams>| {
            let topo = Arc::new(Topology::desktop_8c());
            let (app, _) = fault_test_app();
            let deployment = Deployment::uniform(&app, &topo, replicas, threads);
            let params = EngineParams { faults, resilience, ..EngineParams::default() };
            let mut engine = Engine::new(topo, params, app, deployment, seed);
            let mut driver = Burst { to_issue: burst, done: 0 };
            engine.run(&mut driver, SimTime::from_secs(120));
            engine.report().summary()
        };
        let legacy = run(FaultPlan::none(), None);
        let dormant_faults = FaultPlan::none()
            .crash(InstanceId(0), SimTime::from_secs(crash_at_s), simcore::SimDuration::from_secs(1))
            .slowdown(InstanceId(0), SimTime::from_secs(slow_at_s), SimTime::MAX, 10.0);
        prop_assert_eq!(&run(dormant_faults.clone(), None), &legacy);
        let generous = ResilienceParams::default()
            .with_timeout(simcore::SimDuration::from_secs(3600))
            .with_breaker(None);
        prop_assert_eq!(&run(dormant_faults, Some(generous)), &legacy);
    }

    /// Under arbitrary crashes, slowdowns, and reply faults — with a
    /// resilience layer armed — every submitted request resolves exactly
    /// once (Ok, TimedOut, or Shed), retry attempts never exceed the
    /// budget, and every timeout is accounted for as a retry, a fallback,
    /// or a client-visible failure.
    #[test]
    fn faulted_runs_conserve_every_request(
        crashes in proptest::collection::vec(
            (0u32..8, 0u64..3_000, 100u64..3_000), 0..3),
        slowdowns in proptest::collection::vec(
            (0u32..8, 0u64..3_000, 100u64..5_000, 2u32..50), 0..3),
        drops in proptest::collection::vec(
            (0u32..8, 0u64..3_000, 100u64..5_000, 0u32..=100), 0..3),
        max_retries in 0u8..4,
        timeout_us in 500u64..5_000,
        breaker in any::<bool>(),
        burst in 1u32..40,
        seed in 0u64..1000,
    ) {
        let topo = Arc::new(Topology::desktop_8c());
        let (app, _) = fault_test_app();
        let deployment = Deployment::uniform(&app, &topo, 2, 4);
        let instances = deployment.iter().count() as u32;
        let us = |v: u64| SimTime::from_nanos(v * 1_000);
        let mut plan = FaultPlan::none();
        // Overlapping same-instance crash windows are rejected by
        // `FaultPlan::validate`; drop any sampled crash that would overlap
        // one already in the plan rather than filtering the whole case.
        let mut windows: Vec<(u32, u64, u64)> = Vec::new();
        for &(i, at, down) in &crashes {
            let inst = i % instances;
            let overlaps = windows
                .iter()
                .any(|&(w_inst, w_at, w_end)| w_inst == inst && at < w_end && w_at < at + down);
            if overlaps {
                continue;
            }
            windows.push((inst, at, at + down));
            plan = plan.crash(
                InstanceId(inst),
                us(at),
                simcore::SimDuration::from_micros(down),
            );
        }
        for &(i, from, len, factor) in &slowdowns {
            plan = plan.slowdown(InstanceId(i % instances), us(from), us(from + len), factor as f64);
        }
        for &(i, from, len, pct) in &drops {
            plan = plan.reply_fault(
                InstanceId(i % instances),
                us(from),
                us(from + len),
                pct as f64 / 100.0,
                simcore::SimDuration::from_micros(50),
            );
        }
        let resilience = ResilienceParams::default()
            .with_timeout(simcore::SimDuration::from_micros(timeout_us))
            .with_retry(RetryPolicy {
                max_retries,
                ..RetryPolicy::default()
            })
            .with_breaker(breaker.then(microsvc::BreakerPolicy::default));
        let params = EngineParams {
            faults: plan,
            resilience: Some(resilience),
            trace_sample_every: Some(1),
            ..EngineParams::default()
        };
        let mut engine = Engine::new(topo, params, app, deployment, seed);
        let mut driver = OutcomeCount { to_issue: burst, ok: 0, timed_out: 0, shed: 0 };
        engine.run(&mut driver, SimTime::from_secs(120));

        // Conservation: exactly one resolution per submitted request, and
        // the driver's view agrees with the engine's counters.
        prop_assert_eq!(driver.ok + driver.timed_out + driver.shed, burst as u64);
        let report = engine.report();
        prop_assert_eq!(report.completed, driver.ok);
        prop_assert_eq!(report.requests_timed_out, driver.timed_out);
        prop_assert_eq!(report.requests_shed, driver.shed);

        // Every timeout resolves into exactly one of: a retry, a
        // retries-exhausted fallback reply, or a client-visible failure.
        let timeouts: u64 = report.services.iter().map(|s| s.timeouts).sum();
        let retries: u64 = report.services.iter().map(|s| s.retries).sum();
        let fallbacks: u64 = report.services.iter().map(|s| s.fallbacks).sum();
        prop_assert_eq!(timeouts, retries + fallbacks + report.requests_timed_out);

        // The retry budget holds per call slot: no span is ever annotated
        // with an attempt beyond the policy's maximum.
        for trace in engine.traces() {
            for span in &trace.spans {
                prop_assert!(
                    span.attempt <= max_retries,
                    "span attempt {} exceeds budget {max_retries}",
                    span.attempt
                );
            }
        }
    }
}
