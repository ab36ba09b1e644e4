//! Placement policies: from OS-default to the paper's topology-aware placement.
//!
//! A policy turns `(app, machine, replica counts)` into a
//! [`PlacedDeployment`]: instance affinities + memory homes + the matching
//! load-balancing policy. The progression mirrors the paper's tuning story:
//!
//! 1. [`Policy::Unpinned`] — replicas float over all 256 logical CPUs under
//!    the default scheduler; memory is first-touch on node 0. The tuned
//!    version of this (right replica counts) is the paper's baseline.
//! 2. [`Policy::Packed`] / [`Policy::SpreadSockets`] — naive pinning
//!    strategies, included as contrast.
//! 3. [`Policy::CcxAware`] — every instance confined to one CCX so its
//!    working set owns an L3 slice; memory local.
//! 4. [`Policy::NumaAware`] — instances confined to a NUMA node; memory
//!    local; kills cross-socket traffic but still mixes working sets in L3.
//! 5. [`Policy::TopologyAware`] — the paper's technique: capacity-aware CCX
//!    placement with demand-proportional replication, cache-footprint-aware
//!    bin packing, same-CCD co-location of chatty services, local memory,
//!    and locality-aware load balancing.

use cputopo::{CcxId, CpuSet, NumaId, SocketId, Topology};
use microsvc::{AppSpec, Deployment, InstanceConfig, LbPolicy, ServiceId};

/// A deployment paired with the load-balancing policy it assumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacedDeployment {
    /// Instance placement.
    pub deployment: Deployment,
    /// Load-balancing policy the placement was designed for.
    pub lb: LbPolicy,
}

/// The placement policies of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// OS default: no pinning, first-touch memory on node 0, round-robin LB.
    Unpinned,
    /// Fill CCXs in index order, one instance per CCX (concentrates load at
    /// the bottom of socket 0).
    Packed,
    /// Alternate instances across sockets, affinity = whole socket.
    SpreadSockets,
    /// One CCX per instance, round-robin over all CCXs, local memory.
    CcxAware,
    /// One NUMA node per instance, round-robin, local memory.
    NumaAware,
    /// The paper's technique: capacity-aware CCX placement. Each service is
    /// replicated in proportion to its CPU-demand share, every instance is
    /// confined to one CCX, instances are bin-packed across the machine's
    /// L3 domains balancing CPU commitment and cache footprint, chatty
    /// services are biased onto the same CCD, memory is local, and the load
    /// balancer is locality-aware. `ccxs` limits how many L3 domains are
    /// used (`None` = all of them).
    TopologyAware {
        /// Number of CCXs to use; `None` = the whole machine.
        ccxs: Option<usize>,
    },
}

impl Policy {
    /// A short identifier for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Unpinned => "unpinned",
            Policy::Packed => "packed",
            Policy::SpreadSockets => "spread-sockets",
            Policy::CcxAware => "ccx-aware",
            Policy::NumaAware => "numa-aware",
            Policy::TopologyAware { .. } => "topology-aware",
        }
    }

    /// Produces the deployment for `app` on `topo`.
    ///
    /// `replicas` gives per-service instance counts for every policy except
    /// [`Policy::TopologyAware`], which derives its own replication (one
    /// instance of each demanded service per pod) and may receive an empty
    /// slice.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` has the wrong length (non-topology-aware
    /// policies), or a replica count is zero.
    pub fn deploy(&self, app: &AppSpec, topo: &Topology, replicas: &[usize]) -> PlacedDeployment {
        match self {
            Policy::Unpinned => PlacedDeployment {
                deployment: with_threads(app, replicas, |_i, _svc| {
                    InstanceConfig::unpinned(topo, 0) // threads patched below
                }),
                lb: LbPolicy::RoundRobin,
            },
            Policy::Packed => {
                let mut next_ccx = 0usize;
                PlacedDeployment {
                    deployment: with_threads(app, replicas, |_i, _svc| {
                        let ccx = CcxId((next_ccx % topo.num_ccxs()) as u32);
                        next_ccx += 1;
                        pinned_to(topo, topo.cpus_in_ccx(ccx).clone())
                    }),
                    lb: LbPolicy::RoundRobin,
                }
            }
            Policy::SpreadSockets => {
                let mut next = 0usize;
                PlacedDeployment {
                    deployment: with_threads(app, replicas, |_i, _svc| {
                        let socket = SocketId((next % topo.num_sockets()) as u32);
                        next += 1;
                        pinned_to(topo, topo.cpus_in_socket(socket).clone())
                    }),
                    lb: LbPolicy::RoundRobin,
                }
            }
            Policy::CcxAware => {
                let mut next = 0usize;
                PlacedDeployment {
                    deployment: with_threads(app, replicas, |_i, _svc| {
                        // Stride so consecutive instances of one service land
                        // on different CCDs, spreading each service's load.
                        let ccx = CcxId((next % topo.num_ccxs()) as u32);
                        next += 1;
                        pinned_to(topo, topo.cpus_in_ccx(ccx).clone())
                    }),
                    lb: LbPolicy::LeastOutstanding,
                }
            }
            Policy::NumaAware => {
                let mut next = 0usize;
                PlacedDeployment {
                    deployment: with_threads(app, replicas, |_i, _svc| {
                        let numa = NumaId((next % topo.num_numas()) as u32);
                        next += 1;
                        pinned_to(topo, topo.cpus_in_numa(numa).clone())
                    }),
                    lb: LbPolicy::LeastOutstanding,
                }
            }
            Policy::TopologyAware { ccxs } => topology_aware(app, topo, *ccxs, Objective::Combined),
        }
    }
}

/// The CCX bin-packing objective of the topology-aware policy (ablated in
/// the benchmark suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Balance CPU commitment only.
    CpuOnly,
    /// Balance L3 footprint only.
    CacheOnly,
    /// Balance the sum of both pressures (the default).
    Combined,
}

fn pinned_to(topo: &Topology, affinity: CpuSet) -> InstanceConfig {
    let mem = affinity.first().map(|c| topo.numa_of(c));
    InstanceConfig {
        affinity,
        threads: 0, // patched by `with_threads`
        mem_node: mem,
    }
}

/// Builds a deployment by calling `make` per instance and patching thread
/// counts from the service specs.
fn with_threads(
    app: &AppSpec,
    replicas: &[usize],
    mut make: impl FnMut(usize, ServiceId) -> InstanceConfig,
) -> Deployment {
    assert_eq!(
        replicas.len(),
        app.services().len(),
        "one replica count per service (got {}, need {})",
        replicas.len(),
        app.services().len()
    );
    let mut deployment = Deployment::empty(app);
    for (svc, &n) in replicas.iter().enumerate() {
        assert!(
            n >= 1,
            "service '{}' needs at least one replica",
            app.services()[svc].name
        );
        let service = ServiceId(svc as u32);
        for i in 0..n {
            let mut config = make(i, service);
            config.threads = app.services()[svc].default_threads;
            deployment.add_instance(service, config);
        }
    }
    deployment
}

/// The paper's topology-aware placement with an explicit packing objective.
///
/// [`Policy::TopologyAware`] uses [`Objective::Combined`]; the other
/// objectives exist for the ablation study.
///
/// The algorithm:
///
/// 1. Compute each service's CPU-demand share under the request mix and
///    size its replica count so that one instance needs at most ~3/4 of a
///    CCX (headroom for co-residents).
/// 2. Greedily bin-pack instances (largest first) over the chosen CCXs,
///    minimizing the bin's combined CPU commitment and L3 footprint, with a
///    bias toward CCDs that already host a communication partner (so a
///    request's fan-out stays on the die).
/// 3. Pin memory to the CCX's NUMA node and size thread pools at ~3 threads
///    per allocated CPU (synchronous workers block on downstream calls).
pub fn topology_aware(
    app: &AppSpec,
    topo: &Topology,
    ccxs: Option<usize>,
    objective: Objective,
) -> PlacedDeployment {
    // On machines without topology to exploit (a single die, a handful of
    // L3 domains), CCX pinning only fragments capacity. Degrade gracefully
    // to a demand-proportionally replicated unpinned deployment.
    if topo.num_ccds() < 2 || topo.num_ccxs() < 4 {
        let demand = app.mean_demand_per_service_us();
        let total: f64 = demand.iter().sum();
        assert!(total > 0.0, "application has no CPU demand");
        let budget = (2 * topo.num_ccxs()).max(app.services().len());
        let replicas: Vec<usize> = demand
            .iter()
            .map(|d| ((d / total * budget as f64).round() as usize).max(1))
            .collect();
        let deployment = with_threads(app, &replicas, |_i, _svc| InstanceConfig::unpinned(topo, 0));
        return PlacedDeployment {
            deployment,
            lb: LbPolicy::LeastOutstanding,
        };
    }

    let n_ccxs = ccxs
        .unwrap_or_else(|| topo.num_ccxs())
        .clamp(1, topo.num_ccxs());
    let ccx_cpus = topo.num_cpus() / topo.num_ccxs();
    let l3 = topo.caches().l3_bytes as f64;
    // Effective compute per logical CPU at saturation: with SMT2, a fully
    // co-run core delivers ~1.24× one thread, i.e. ~0.62 reference CPUs per
    // logical CPU (matches `UarchParams::smt_corun_factor`). Sizing in
    // logical CPUs would over-promise capacity by ~60%.
    let smt_eff = if topo.spec().threads_per_core >= 2 {
        0.62
    } else {
        1.0
    };
    let ccx_capacity = ccx_cpus as f64 * smt_eff;

    // Demand share per service under the class mix.
    let demand = app.mean_demand_per_service_us();
    let total: f64 = demand.iter().sum();
    assert!(total > 0.0, "application has no CPU demand");
    let shares: Vec<f64> = demand.iter().map(|d| d / total).collect();

    // Communication partners (undirected) for the co-location bias.
    let edges = app.call_edges();
    let partners = |svc: usize| -> Vec<usize> {
        edges
            .iter()
            .flat_map(|&(a, b)| {
                if a.index() == svc {
                    Some(b.index())
                } else if b.index() == svc {
                    Some(a.index())
                } else {
                    None
                }
            })
            .collect()
    };

    // Size replicas with *reach headroom*: roughly two instances per CCX
    // worth of demand share. Queueing needs burst capacity beyond the mean
    // allocation, and an instance can only burst within its own CCX — more
    // (smaller) instances let the load balancer spread bursts across idle
    // slices while pinning keeps every instance cache-resident.
    let budget_cpus = n_ccxs as f64 * ccx_capacity;
    let replication_factor = 2.0;
    #[derive(Clone, Copy)]
    struct Pending {
        svc: usize,
        want: f64,
        ws: f64,
    }
    let mut per_service: Vec<Vec<Pending>> = Vec::new();
    for (svc, &share) in shares.iter().enumerate() {
        if share <= 0.0 {
            continue;
        }
        let want_total = share * budget_cpus;
        let n = ((share * n_ccxs as f64 * replication_factor).round() as usize).clamp(1, n_ccxs);
        let want = want_total / n as f64;
        let ws = app.services()[svc].profile.working_set_bytes as f64;
        per_service.push(vec![Pending { svc, want, ws }; n]);
    }
    // Heaviest services first within a wave...
    per_service.sort_by(|a, b| {
        b[0].want
            .partial_cmp(&a[0].want)
            .expect("finite demands")
            .then(a[0].svc.cmp(&b[0].svc))
    });
    // ...but emit instances in waves — one replica of each service per wave —
    // so that the partner bonus can co-locate a whole call chain on a CCD
    // before the next chain starts (placing all replicas of one service
    // first would wall entire dies off from its partners).
    let mut pending: Vec<Pending> = Vec::new();
    let depth = per_service.iter().map(Vec::len).max().unwrap_or(0);
    for wave in 0..depth {
        for svc_list in &per_service {
            if let Some(inst) = svc_list.get(wave) {
                pending.push(*inst);
            }
        }
    }

    struct Bin {
        ccx: CcxId,
        cpus: CpuSet,
        cpu_used: f64,
        cpu_cap: f64,
        ws_used: f64,
        services: Vec<usize>,
    }
    let mut bins: Vec<Bin> = (0..n_ccxs as u32)
        .map(CcxId)
        .map(|c| {
            let cpus = topo.cpus_in_ccx(c).clone();
            Bin {
                ccx: c,
                cpus,
                cpu_used: 0.0,
                cpu_cap: ccx_capacity,
                ws_used: 0.0,
                services: Vec::new(),
            }
        })
        .collect();

    let mut deployment = Deployment::empty(app);
    for inst in &pending {
        let my_partners = partners(inst.svc);
        let bin_idx = {
            let score = |bin: &Bin| -> f64 {
                let cpu = (bin.cpu_used + inst.want) / bin.cpu_cap;
                let cache = (bin.ws_used + inst.ws) / l3;
                let base = match objective {
                    Objective::CpuOnly => cpu,
                    Objective::CacheOnly => cache,
                    Objective::Combined => cpu + cache,
                };
                // Same-CCD communication bonus: prefer placing near a
                // partner service (one request's RPC chain stays on-die).
                let ccd = topo.ccd_of(bin.cpus.first().expect("CCXs are never empty"));
                let near_partner = bins.iter().any(|other| {
                    topo.ccd_of(other.cpus.first().expect("non-empty")) == ccd
                        && other.services.iter().any(|s| my_partners.contains(s))
                });
                // Avoid piling replicas of the same service onto one CCX.
                let self_collision = bin.services.iter().filter(|&&s| s == inst.svc).count();
                base - if near_partner { 0.12 } else { 0.0 } + 0.5 * self_collision as f64
            };
            bins.iter()
                .enumerate()
                .min_by(|(ia, a), (ib, b)| {
                    score(a)
                        .partial_cmp(&score(b))
                        .expect("finite scores")
                        .then(ia.cmp(ib))
                })
                .map(|(i, _)| i)
                .expect("at least one CCX")
        };
        let bin = &mut bins[bin_idx];
        bin.cpu_used += inst.want;
        bin.ws_used += inst.ws;
        bin.services.push(inst.svc);
        let mem = topo.numa_of_ccx(bin.ccx);
        // Synchronous workers hold their thread for the whole downstream
        // chain (~6× the local service time for the entry tier), so pools
        // must be provisioned well beyond the CPU allocation; never below
        // the service's own default.
        let threads = ((inst.want * 8.0).ceil() as usize)
            .max(app.services()[inst.svc].default_threads)
            .clamp(4, 64);
        deployment.add_instance(
            ServiceId(inst.svc as u32),
            InstanceConfig {
                affinity: bin.cpus.clone(),
                threads,
                mem_node: Some(mem),
            },
        );
    }

    // Zero-demand services (e.g. the registry) still need one instance:
    // tuck it into the last chosen CCX with a minimal pool.
    for (svc, &share) in shares.iter().enumerate() {
        if share == 0.0 {
            let last_ccx = CcxId(n_ccxs as u32 - 1);
            let affinity = topo.cpus_in_ccx(last_ccx).clone();
            let mem = topo.numa_of_ccx(last_ccx);
            deployment.add_instance(
                ServiceId(svc as u32),
                InstanceConfig {
                    affinity,
                    threads: 2,
                    mem_node: Some(mem),
                },
            );
        }
    }

    PlacedDeployment {
        deployment,
        lb: LbPolicy::LocalityAware,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cputopo::Topology;
    use simcore::{DetHashMap, DetHashSet};
    use teastore::TeaStore;

    fn replicas7() -> Vec<usize> {
        vec![4, 2, 3, 2, 2, 1, 3]
    }

    #[test]
    fn unpinned_instances_roam() {
        let topo = Topology::zen2_2p_128c();
        let store = TeaStore::browse();
        let placed = Policy::Unpinned.deploy(store.app(), &topo, &replicas7());
        placed.deployment.validate(store.app(), &topo);
        for (_, config) in placed.deployment.iter() {
            assert_eq!(config.affinity.len(), topo.num_cpus());
        }
        assert_eq!(placed.lb, LbPolicy::RoundRobin);
        assert_eq!(placed.deployment.replica_counts(), replicas7());
    }

    #[test]
    fn packed_fills_low_ccxs_first() {
        let topo = Topology::zen2_2p_128c();
        let store = TeaStore::browse();
        let placed = Policy::Packed.deploy(store.app(), &topo, &replicas7());
        let total: usize = replicas7().iter().sum();
        // With 17 instances and 32 CCXs, only the first 17 CCXs are used.
        let used: DetHashSet<_> = placed
            .deployment
            .iter()
            .map(|(_, c)| topo.ccx_of(c.affinity.first().expect("non-empty")))
            .collect();
        assert_eq!(used.len(), total.min(topo.num_ccxs()));
        assert!(used.iter().all(|c| c.index() < total));
    }

    #[test]
    fn ccx_aware_confines_to_one_ccx_each() {
        let topo = Topology::zen2_2p_128c();
        let store = TeaStore::browse();
        let placed = Policy::CcxAware.deploy(store.app(), &topo, &replicas7());
        for (_, config) in placed.deployment.iter() {
            assert_eq!(config.affinity.len(), 8, "a CCX is 8 logical CPUs");
            let ccx = topo.ccx_of(config.affinity.first().expect("non-empty"));
            assert!(config.affinity.is_subset(topo.cpus_in_ccx(ccx)));
            assert_eq!(
                config.effective_mem_node(&topo),
                topo.numa_of(config.affinity.first().expect("non-empty")),
                "memory must be local"
            );
        }
    }

    #[test]
    fn numa_aware_balances_nodes() {
        let topo = Topology::zen2_2p_128c();
        let store = TeaStore::browse();
        let placed = Policy::NumaAware.deploy(store.app(), &topo, &replicas7());
        let mut per_node = [0usize; 2];
        for (_, config) in placed.deployment.iter() {
            per_node[config.effective_mem_node(&topo).index()] += 1;
        }
        let diff = per_node[0].abs_diff(per_node[1]);
        assert!(diff <= 1, "node imbalance {per_node:?}");
    }

    #[test]
    fn spread_sockets_alternates() {
        let topo = Topology::zen2_2p_128c();
        let store = TeaStore::browse();
        let placed = Policy::SpreadSockets.deploy(store.app(), &topo, &replicas7());
        for (_, config) in placed.deployment.iter() {
            assert_eq!(config.affinity.len(), 128, "whole socket");
        }
    }

    #[test]
    fn topology_aware_covers_the_machine() {
        let topo = Topology::zen2_2p_128c();
        let store = TeaStore::browse();
        let placed = Policy::TopologyAware { ccxs: None }.deploy(store.app(), &topo, &[]);
        placed.deployment.validate(store.app(), &topo);
        assert_eq!(placed.lb, LbPolicy::LocalityAware);
        let counts = placed.deployment.replica_counts();
        let registry = store.services().registry.index();
        assert_eq!(counts[registry], 1, "registry gets one instance");
        // Demand-proportional replication: webui (largest share) gets the
        // most instances, and every demanded service gets at least one.
        let webui = store.services().webui.index();
        for (svc, &n) in counts.iter().enumerate() {
            assert!(n >= 1);
            assert!(
                counts[webui] >= n,
                "webui must have the most replicas, svc {svc}"
            );
        }
        // Every instance is confined to a single CCX with local memory.
        for (_, config) in placed.deployment.iter() {
            let ccx = topo.ccx_of(config.affinity.first().expect("non-empty"));
            assert!(config.affinity.is_subset(topo.cpus_in_ccx(ccx)));
            assert_eq!(
                config.mem_node,
                Some(topo.numa_of(config.affinity.first().expect("non-empty")))
            );
        }
        // The packing touches most of the machine's L3 domains.
        let used: DetHashSet<_> = placed
            .deployment
            .iter()
            .map(|(_, c)| topo.ccx_of(c.affinity.first().expect("non-empty")))
            .collect();
        assert!(
            used.len() > topo.num_ccxs() / 2,
            "only {} CCXs used",
            used.len()
        );
    }

    #[test]
    fn topology_aware_avoids_replica_self_collision() {
        let topo = Topology::zen2_2p_128c();
        let store = TeaStore::browse();
        let placed = Policy::TopologyAware { ccxs: None }.deploy(store.app(), &topo, &[]);
        // No CCX should host two replicas of the same service while other
        // CCXs are free.
        let mut per_ccx: DetHashMap<(u32, u32), usize> = DetHashMap::default();
        for (svc, config) in placed.deployment.iter() {
            let ccx = topo.ccx_of(config.affinity.first().expect("non-empty"));
            *per_ccx.entry((svc.0, ccx.0)).or_default() += 1;
        }
        let max_dup = per_ccx.values().copied().max().unwrap_or(0);
        assert!(
            max_dup <= 2,
            "{max_dup} replicas of one service share a CCX"
        );
    }

    #[test]
    fn topology_aware_respects_ccx_budget() {
        let topo = Topology::zen2_2p_128c();
        let store = TeaStore::browse();
        let placed = Policy::TopologyAware { ccxs: Some(4) }.deploy(store.app(), &topo, &[]);
        let used: DetHashSet<_> = placed
            .deployment
            .iter()
            .map(|(_, c)| topo.ccx_of(c.affinity.first().expect("non-empty")))
            .collect();
        assert!(used.len() <= 4, "budget exceeded: {} CCXs", used.len());
    }

    #[test]
    fn topology_aware_co_locates_communication_partners() {
        let topo = Topology::zen2_2p_128c();
        let store = TeaStore::browse();
        let placed = Policy::TopologyAware { ccxs: None }.deploy(store.app(), &topo, &[]);
        // For most webui instances there should be a persistence instance on
        // the same CCD (webui → persistence is a hot edge).
        let webui = store.services().webui;
        let persistence = store.services().persistence;
        let ccds_of = |svc| -> DetHashSet<u32> {
            placed
                .deployment
                .instances_of(svc)
                .iter()
                .map(|c| topo.ccd_of(c.affinity.first().expect("non-empty")).0)
                .collect()
        };
        let webui_ccds = ccds_of(webui);
        let persistence_ccds = ccds_of(persistence);
        let overlap = webui_ccds.intersection(&persistence_ccds).count();
        assert!(
            overlap * 2 >= persistence_ccds.len(),
            "chatty services rarely share a die: {overlap} of {}",
            persistence_ccds.len()
        );
    }

    #[test]
    #[should_panic(expected = "one replica count per service")]
    fn wrong_replica_len_rejected() {
        let topo = Topology::desktop_8c();
        let store = TeaStore::browse();
        Policy::Unpinned.deploy(store.app(), &topo, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let topo = Topology::desktop_8c();
        let store = TeaStore::browse();
        Policy::Unpinned.deploy(store.app(), &topo, &[0; 7]);
    }

    #[test]
    fn topology_aware_falls_back_on_small_machines() {
        // One CCD / two CCXs: nothing to exploit, so the policy degrades to
        // an unpinned proportional deployment instead of fragmenting.
        let topo = Topology::desktop_8c();
        let store = TeaStore::browse();
        let placed = Policy::TopologyAware { ccxs: None }.deploy(store.app(), &topo, &[]);
        placed.deployment.validate(store.app(), &topo);
        assert_eq!(placed.lb, LbPolicy::LeastOutstanding);
        for (_, config) in placed.deployment.iter() {
            assert_eq!(
                config.affinity.len(),
                topo.num_cpus(),
                "fallback is unpinned"
            );
        }
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(Policy::Unpinned.name(), "unpinned");
        assert_eq!(
            Policy::TopologyAware { ccxs: None }.name(),
            "topology-aware"
        );
    }
}
