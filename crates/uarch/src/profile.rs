//! Per-service microarchitectural profiles.


/// The microarchitectural signature of one service (or reference workload).
///
/// Profiles describe how a workload behaves *alone on a warm core with local
/// memory*; the contention model in [`params`](crate::params) derates from
/// there. Values are calibrated against published characterizations of
/// Java/Tomcat-class microservices (low IPC, heavy frontend pressure, large
/// instruction footprints) and SPEC-class compute kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceProfile {
    /// Short identifier used in reports.
    pub name: String,
    /// Instructions per cycle when running alone (reference conditions).
    pub base_ipc: f64,
    /// Cache working set one running task touches, in bytes. Drives L3
    /// pressure within a CCX.
    pub working_set_bytes: u64,
    /// How strongly performance depends on the memory hierarchy, in `[0, 1]`.
    /// 0 = pure compute (immune to L3/NUMA effects), 1 = fully memory bound.
    pub mem_sensitivity: f64,
    /// Branch mispredictions per kilo-instruction (reference conditions).
    pub branch_mpki: f64,
    /// L2 misses per kilo-instruction (reference conditions).
    pub l2_mpki: f64,
    /// L3 misses per kilo-instruction (reference conditions).
    pub l3_mpki: f64,
    /// Fraction of pipeline slots lost to the frontend (fetch/decode), `[0, 1]`.
    /// Microservices run big, cold instruction footprints and score high here.
    pub frontend_bound: f64,
    /// Fraction of cycles spent in kernel mode (syscalls, network stack).
    pub kernel_frac: f64,
}

impl ServiceProfile {
    /// Validates invariants; call after hand-constructing a profile.
    ///
    /// # Panics
    ///
    /// Panics if any field is out of range.
    pub fn validate(&self) {
        assert!(
            self.base_ipc > 0.0 && self.base_ipc < 8.0,
            "{}: implausible IPC {}",
            self.name,
            self.base_ipc
        );
        assert!(
            (0.0..=1.0).contains(&self.mem_sensitivity),
            "{}: mem_sensitivity out of range",
            self.name
        );
        assert!(
            (0.0..=1.0).contains(&self.frontend_bound),
            "{}: frontend_bound out of range",
            self.name
        );
        assert!(
            (0.0..=1.0).contains(&self.kernel_frac),
            "{}: kernel_frac out of range",
            self.name
        );
        assert!(self.branch_mpki >= 0.0 && self.l2_mpki >= 0.0 && self.l3_mpki >= 0.0);
    }

    /// A servlet-style web frontend: big code footprint, modest data set,
    /// frontend bound, lots of kernel time in the network stack.
    pub fn web_frontend(name: &str) -> Self {
        ServiceProfile {
            name: name.to_owned(),
            base_ipc: 0.85,
            working_set_bytes: 6 << 20,
            mem_sensitivity: 0.55,
            branch_mpki: 7.5,
            l2_mpki: 18.0,
            l3_mpki: 3.2,
            frontend_bound: 0.38,
            kernel_frac: 0.30,
        }
    }

    /// A small stateless RPC service (authentication, token checks).
    pub fn light_rpc(name: &str) -> Self {
        ServiceProfile {
            name: name.to_owned(),
            base_ipc: 1.10,
            working_set_bytes: 1 << 20,
            mem_sensitivity: 0.35,
            branch_mpki: 5.0,
            l2_mpki: 10.0,
            l3_mpki: 1.2,
            frontend_bound: 0.30,
            kernel_frac: 0.35,
        }
    }

    /// A data-tier service: ORM + storage access, cache hungry.
    pub fn data_tier(name: &str) -> Self {
        ServiceProfile {
            name: name.to_owned(),
            base_ipc: 0.70,
            working_set_bytes: 12 << 20,
            mem_sensitivity: 0.75,
            branch_mpki: 6.0,
            l2_mpki: 22.0,
            l3_mpki: 5.5,
            frontend_bound: 0.32,
            kernel_frac: 0.28,
        }
    }

    /// A compute-ish service with a sizable read-mostly model in memory
    /// (recommenders, scorers).
    pub fn in_memory_analytics(name: &str) -> Self {
        ServiceProfile {
            name: name.to_owned(),
            base_ipc: 1.30,
            working_set_bytes: 10 << 20,
            mem_sensitivity: 0.60,
            branch_mpki: 3.5,
            l2_mpki: 14.0,
            l3_mpki: 4.0,
            frontend_bound: 0.22,
            kernel_frac: 0.12,
        }
    }

    /// A media service: image scaling/encoding, streaming data.
    pub fn media(name: &str) -> Self {
        ServiceProfile {
            name: name.to_owned(),
            base_ipc: 1.55,
            working_set_bytes: 8 << 20,
            mem_sensitivity: 0.45,
            branch_mpki: 2.0,
            l2_mpki: 12.0,
            l3_mpki: 3.8,
            frontend_bound: 0.15,
            kernel_frac: 0.20,
        }
    }

    /// An embedded relational store (the MySQL stand-in).
    pub fn database(name: &str) -> Self {
        ServiceProfile {
            name: name.to_owned(),
            base_ipc: 0.65,
            working_set_bytes: 20 << 20,
            mem_sensitivity: 0.80,
            branch_mpki: 6.5,
            l2_mpki: 25.0,
            l3_mpki: 7.0,
            frontend_bound: 0.28,
            kernel_frac: 0.25,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_profiles_validate() {
        for p in [
            ServiceProfile::web_frontend("a"),
            ServiceProfile::light_rpc("b"),
            ServiceProfile::data_tier("c"),
            ServiceProfile::in_memory_analytics("d"),
            ServiceProfile::media("e"),
            ServiceProfile::database("f"),
        ] {
            p.validate();
        }
    }

    #[test]
    fn microservice_profiles_have_low_ipc() {
        // The characterization claim: microservice tiers sit well below the
        // IPC of tuned compute kernels.
        assert!(ServiceProfile::web_frontend("w").base_ipc < 1.0);
        assert!(ServiceProfile::database("d").base_ipc < 1.0);
    }

    #[test]
    #[should_panic(expected = "implausible IPC")]
    fn validate_rejects_zero_ipc() {
        let mut p = ServiceProfile::light_rpc("x");
        p.base_ipc = 0.0;
        p.validate();
    }
}
