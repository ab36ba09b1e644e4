//! Deployments: how service instances are replicated and placed.
//!
//! A [`Deployment`] is the artifact the paper's techniques produce: per
//! service, a list of instances, each with an affinity mask, a worker-thread
//! count, and a NUMA memory home. The `scaleup` crate's placement policies
//! are all functions returning `Deployment`s.

use crate::app::AppSpec;
use crate::ids::ServiceId;
use cputopo::{CpuSet, NumaId, Topology};

/// Configuration of one service instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceConfig {
    /// CPUs this instance's worker threads may run on.
    pub affinity: CpuSet,
    /// Worker threads (the Tomcat pool size).
    pub threads: usize,
    /// NUMA node holding the instance's memory. `None` = first touch: the
    /// node of the lowest CPU in `affinity` (JVM heaps are allocated at
    /// startup, where the process first runs).
    pub mem_node: Option<NumaId>,
}

impl InstanceConfig {
    /// An instance allowed to roam the whole machine (the OS-default case).
    pub fn unpinned(topo: &Topology, threads: usize) -> Self {
        InstanceConfig {
            affinity: topo.all_cpus().clone(),
            threads,
            mem_node: None,
        }
    }

    /// The effective memory home under the first-touch rule.
    ///
    /// # Panics
    ///
    /// Panics if the affinity mask is empty.
    pub fn effective_mem_node(&self, topo: &Topology) -> NumaId {
        self.mem_node.unwrap_or_else(|| {
            let first = self
                .affinity
                .first()
                .expect("instance affinity must be non-empty");
            topo.numa_of(first)
        })
    }
}

/// A full deployment: instances for every service of an [`AppSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Deployment {
    instances: Vec<Vec<InstanceConfig>>,
}

impl Deployment {
    /// An empty deployment for `app` (no instances yet).
    pub fn empty(app: &AppSpec) -> Self {
        Deployment {
            instances: vec![Vec::new(); app.services().len()],
        }
    }

    /// The OS-default deployment: `replicas` unpinned instances of every
    /// service, each with `threads` workers.
    pub fn uniform(app: &AppSpec, topo: &Topology, replicas: usize, threads: usize) -> Self {
        let mut d = Deployment::empty(app);
        for svc in 0..app.services().len() {
            for _ in 0..replicas {
                d.add_instance(
                    ServiceId(svc as u32),
                    InstanceConfig::unpinned(topo, threads),
                );
            }
        }
        d
    }

    /// Like [`Deployment::uniform`] but with per-service replica counts.
    ///
    /// # Panics
    ///
    /// Panics if `replicas.len()` differs from the service count.
    pub fn with_replicas(
        app: &AppSpec,
        topo: &Topology,
        replicas: &[usize],
        threads: usize,
    ) -> Self {
        assert_eq!(
            replicas.len(),
            app.services().len(),
            "one replica count per service"
        );
        let mut d = Deployment::empty(app);
        for (svc, &n) in replicas.iter().enumerate() {
            for _ in 0..n {
                d.add_instance(
                    ServiceId(svc as u32),
                    InstanceConfig::unpinned(topo, threads),
                );
            }
        }
        d
    }

    /// Adds an instance of a service.
    ///
    /// # Panics
    ///
    /// Panics if the service id is out of range, the affinity is empty, or
    /// the thread count is zero.
    pub fn add_instance(&mut self, service: ServiceId, config: InstanceConfig) {
        assert!(service.index() < self.instances.len(), "unknown {service}");
        assert!(
            !config.affinity.is_empty(),
            "instance affinity must be non-empty"
        );
        assert!(config.threads >= 1, "instance needs at least one thread");
        self.instances[service.index()].push(config);
    }

    /// Instances of one service.
    pub fn instances_of(&self, service: ServiceId) -> &[InstanceConfig] {
        &self.instances[service.index()]
    }

    /// Iterates `(service, instance_config)` over all instances.
    pub fn iter(&self) -> impl Iterator<Item = (ServiceId, &InstanceConfig)> {
        self.instances
            .iter()
            .enumerate()
            .flat_map(|(s, v)| v.iter().map(move |c| (ServiceId(s as u32), c)))
    }

    /// Total instance count.
    pub fn total_instances(&self) -> usize {
        self.instances.iter().map(Vec::len).sum()
    }

    /// Replica count per service.
    pub fn replica_counts(&self) -> Vec<usize> {
        self.instances.iter().map(Vec::len).collect()
    }

    /// Verifies every service has at least one instance and all masks fit
    /// the machine.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when invalid.
    pub fn validate(&self, app: &AppSpec, topo: &Topology) {
        for (svc, instances) in self.instances.iter().enumerate() {
            let name = &app.services()[svc].name;
            assert!(!instances.is_empty(), "service '{name}' has no instances");
            for (i, inst) in instances.iter().enumerate() {
                assert!(
                    inst.affinity.is_subset(topo.all_cpus()),
                    "service '{name}' instance {i} affinity {} exceeds the machine",
                    inst.affinity
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::ServiceSpec;
    use cputopo::CpuId;
    use uarch::ServiceProfile;

    fn app2() -> AppSpec {
        let mut app = AppSpec::new();
        app.add_service(ServiceSpec::new("a", ServiceProfile::light_rpc("a")));
        app.add_service(ServiceSpec::new("b", ServiceProfile::data_tier("b")));
        app
    }

    #[test]
    fn uniform_deployment() {
        let topo = Topology::desktop_8c();
        let app = app2();
        let d = Deployment::uniform(&app, &topo, 3, 4);
        assert_eq!(d.total_instances(), 6);
        assert_eq!(d.replica_counts(), vec![3, 3]);
        assert_eq!(d.instances_of(ServiceId(0))[0].threads, 4);
        d.validate(&app, &topo);
    }

    #[test]
    fn with_replicas_per_service() {
        let topo = Topology::desktop_8c();
        let app = app2();
        let d = Deployment::with_replicas(&app, &topo, &[1, 4], 2);
        assert_eq!(d.replica_counts(), vec![1, 4]);
    }

    #[test]
    fn first_touch_mem_node() {
        let topo = Topology::zen2_2p_128c();
        let pinned_socket1 = InstanceConfig {
            affinity: topo.cpus_in_socket(cputopo::SocketId(1)).clone(),
            threads: 2,
            mem_node: None,
        };
        assert_eq!(pinned_socket1.effective_mem_node(&topo), NumaId(1));
        let explicit = InstanceConfig {
            affinity: [CpuId(0)].into_iter().collect(),
            threads: 1,
            mem_node: Some(NumaId(1)),
        };
        assert_eq!(explicit.effective_mem_node(&topo), NumaId(1));
    }

    #[test]
    fn iter_covers_all() {
        let topo = Topology::desktop_8c();
        let app = app2();
        let d = Deployment::uniform(&app, &topo, 2, 1);
        assert_eq!(d.iter().count(), 4);
        assert_eq!(d.iter().filter(|(s, _)| *s == ServiceId(1)).count(), 2);
    }

    #[test]
    #[should_panic(expected = "has no instances")]
    fn validate_rejects_missing_service() {
        let topo = Topology::desktop_8c();
        let app = app2();
        let mut d = Deployment::empty(&app);
        d.add_instance(ServiceId(0), InstanceConfig::unpinned(&topo, 1));
        d.validate(&app, &topo);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let topo = Topology::desktop_8c();
        let app = app2();
        let mut d = Deployment::empty(&app);
        d.add_instance(
            ServiceId(0),
            InstanceConfig {
                affinity: topo.all_cpus().clone(),
                threads: 0,
                mem_node: None,
            },
        );
    }
}
