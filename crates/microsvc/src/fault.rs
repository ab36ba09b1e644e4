//! Deterministic fault injection: instance crashes, slow replicas, and
//! reply drop/delay windows.
//!
//! A [`FaultPlan`] is plain data attached to
//! [`EngineParams`](crate::EngineParams): every fault is pinned to an
//! instance and a simulated-time window, so the *schedule* of faults is
//! exactly reproducible. The only randomness — whether an individual reply
//! inside a [`ReplyFault`] window is dropped — comes from the engine's
//! dedicated `fault` random stream, which is derived from the run seed and
//! never consumed on the fault-free path. `FaultPlan::none()` (the default)
//! therefore leaves runs bit-identical to an engine without this module.
//!
//! Fault semantics (see `DESIGN.md` for the rationale):
//!
//! * **Crash** — at `at` the instance stops accepting work: queued jobs are
//!   lost, new arrivals are refused, and replies of jobs still running when
//!   they finish are dropped. At `at + restart_after` the instance rejoins
//!   the candidate set with its worker pool intact (a container restart).
//! * **Slowdown** — jobs arriving in the window have their CPU demand
//!   multiplied by `demand_factor` (GC pressure, a noisy neighbor, a cold
//!   cache after relocation).
//! * **ReplyFault** — replies leaving the instance during the window are
//!   dropped with `drop_probability`, and the survivors are delayed by
//!   `extra_delay` (a flaky NIC or overloaded proxy sidecar).
//!
//! Losing a reply only stalls the caller until its timeout if client-side
//! resilience ([`ResilienceParams`](crate::ResilienceParams)) is enabled;
//! without it the caller blocks forever, exactly like a synchronous RPC
//! client with no deadline.

use crate::ids::InstanceId;
use crate::overload::ShedReason;
use simcore::{SimDuration, SimTime};

/// Why a request or span was disturbed. Recorded on trace spans and on
/// failed request traces.
///
/// The first four variants are *failures*: something broke (a fault was
/// injected, a deadline passed) or the system had no capacity at all.
/// [`PolicyShed`](FaultCause::PolicyShed) is different in kind — an overload
/// policy *chose* to refuse the request to protect the work it kept, and the
/// carried [`ShedReason`] names the policy. Keeping the two apart is what
/// lets the overload experiments count policy drops without polluting the
/// fault-injection counters (and vice versa).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultCause {
    /// The caller's per-call timeout elapsed before the reply arrived.
    TimedOut,
    /// The serving instance dropped the reply (injected fault).
    ReplyDropped,
    /// The serving instance was crashed while the job was queued, running,
    /// or arriving.
    Crashed,
    /// The request was refused at the entry: no instance was accepting work.
    Shed,
    /// An overload-control policy deliberately refused the request.
    PolicyShed(ShedReason),
}

impl std::fmt::Display for FaultCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultCause::TimedOut => f.write_str("timed-out"),
            FaultCause::ReplyDropped => f.write_str("reply-dropped"),
            FaultCause::Crashed => f.write_str("crashed"),
            FaultCause::Shed => f.write_str("shed"),
            FaultCause::PolicyShed(reason) => write!(f, "policy-shed({reason})"),
        }
    }
}

/// One instance crash/restart cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crash {
    /// The instance that crashes.
    pub instance: InstanceId,
    /// When it goes down.
    pub at: SimTime,
    /// How long until it accepts work again.
    pub restart_after: SimDuration,
}

/// A degradation window multiplying an instance's CPU demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    /// The affected instance.
    pub instance: InstanceId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Multiplier applied to the CPU demand of jobs served in the window.
    pub demand_factor: f64,
}

/// A window in which an instance's replies are dropped or delayed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplyFault {
    /// The affected instance.
    pub instance: InstanceId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Probability that a reply leaving in the window is dropped.
    pub drop_probability: f64,
    /// Extra wire delay added to the replies that survive.
    pub extra_delay: SimDuration,
}

/// A deterministic schedule of faults for one run.
///
/// Build with the chainable constructors:
///
/// ```
/// use microsvc::{FaultPlan, InstanceId};
/// use simcore::{SimDuration, SimTime};
///
/// let plan = FaultPlan::none()
///     .crash(InstanceId(2), SimTime::from_millis(500), SimDuration::from_millis(200))
///     .slowdown(InstanceId(0), SimTime::from_millis(100), SimTime::from_millis(900), 4.0);
/// assert!(!plan.is_empty());
/// assert!(FaultPlan::none().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Crash/restart cycles.
    pub crashes: Vec<Crash>,
    /// Demand-multiplier windows.
    pub slowdowns: Vec<Slowdown>,
    /// Reply drop/delay windows.
    pub reply_faults: Vec<ReplyFault>,
}

impl FaultPlan {
    /// The empty plan: injects nothing, perturbs nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// `true` if the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.slowdowns.is_empty() && self.reply_faults.is_empty()
    }

    /// Adds a crash/restart cycle.
    pub fn crash(mut self, instance: InstanceId, at: SimTime, restart_after: SimDuration) -> Self {
        self.crashes.push(Crash {
            instance,
            at,
            restart_after,
        });
        self
    }

    /// Adds a demand-multiplier window.
    ///
    /// # Panics
    ///
    /// Panics if `demand_factor` is not strictly positive or the window is
    /// inverted.
    pub fn slowdown(
        mut self,
        instance: InstanceId,
        from: SimTime,
        until: SimTime,
        demand_factor: f64,
    ) -> Self {
        assert!(
            demand_factor > 0.0,
            "demand factor must be positive, got {demand_factor}"
        );
        assert!(from <= until, "slowdown window is inverted");
        self.slowdowns.push(Slowdown {
            instance,
            from,
            until,
            demand_factor,
        });
        self
    }

    /// Adds a reply drop/delay window.
    ///
    /// # Panics
    ///
    /// Panics if `drop_probability` is outside `[0, 1]` or the window is
    /// inverted.
    pub fn reply_fault(
        mut self,
        instance: InstanceId,
        from: SimTime,
        until: SimTime,
        drop_probability: f64,
        extra_delay: SimDuration,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_probability),
            "drop probability must be in [0, 1], got {drop_probability}"
        );
        assert!(from <= until, "reply-fault window is inverted");
        self.reply_faults.push(ReplyFault {
            instance,
            from,
            until,
            drop_probability,
            extra_delay,
        });
        self
    }

    /// Checks that every referenced instance exists in a deployment of
    /// `instances` instances, that no window is zero-length, and that no two
    /// crash windows of the same instance overlap.
    ///
    /// Zero-length windows and overlapping same-instance crashes would be
    /// silent no-ops or double-crash ambiguities (the second `CrashStart`
    /// fires on an instance that is already down, and its `CrashEnd` revives
    /// it early) — both make shrink steps over the fault space ambiguous, so
    /// they are rejected up front rather than interpreted.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range instance id, a zero-length window, or
    /// overlapping crash windows for the same instance.
    pub(crate) fn validate(&self, instances: usize) {
        let check = |id: InstanceId| {
            assert!(
                id.index() < instances,
                "fault plan references {id}, but the deployment has only {instances} instances"
            );
        };
        for c in &self.crashes {
            check(c.instance);
            assert!(
                c.restart_after > SimDuration::ZERO,
                "zero-length crash window: {} crashes at {} with restart_after = 0",
                c.instance,
                c.at
            );
        }
        for s in &self.slowdowns {
            check(s.instance);
            assert!(
                s.from < s.until,
                "zero-length slowdown window: {} at [{}, {})",
                s.instance,
                s.from,
                s.until
            );
        }
        for r in &self.reply_faults {
            check(r.instance);
            assert!(
                r.from < r.until,
                "zero-length reply-fault window: {} at [{}, {})",
                r.instance,
                r.from,
                r.until
            );
        }
        for (i, a) in self.crashes.iter().enumerate() {
            for b in &self.crashes[i + 1..] {
                if a.instance != b.instance {
                    continue;
                }
                let (a_end, b_end) = (a.at + a.restart_after, b.at + b.restart_after);
                assert!(
                    a_end <= b.at || b_end <= a.at,
                    "overlapping crash windows for {}: [{}, {}) and [{}, {})",
                    a.instance,
                    a.at,
                    a_end,
                    b.at,
                    b_end
                );
            }
        }
    }
}

use simcore::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for FaultCause {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            FaultCause::TimedOut => w.u8(0),
            FaultCause::ReplyDropped => w.u8(1),
            FaultCause::Crashed => w.u8(2),
            FaultCause::Shed => w.u8(3),
            FaultCause::PolicyShed(reason) => {
                w.u8(4);
                reason.save(w);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => FaultCause::TimedOut,
            1 => FaultCause::ReplyDropped,
            2 => FaultCause::Crashed,
            3 => FaultCause::Shed,
            4 => FaultCause::PolicyShed(ShedReason::load(r)?),
            other => {
                return Err(SnapError::Corrupt(format!(
                    "unknown FaultCause tag {other}"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none(), FaultPlan::default());
    }

    #[test]
    fn builders_accumulate_faults() {
        let plan = FaultPlan::none()
            .crash(InstanceId(0), ms(10), SimDuration::from_millis(5))
            .slowdown(InstanceId(1), ms(0), ms(100), 3.0)
            .reply_fault(InstanceId(2), ms(0), ms(50), 0.5, SimDuration::ZERO);
        assert!(!plan.is_empty());
        assert_eq!(plan.crashes.len(), 1);
        assert_eq!(plan.slowdowns.len(), 1);
        assert_eq!(plan.reply_faults.len(), 1);
        plan.validate(3);
    }

    #[test]
    #[should_panic(expected = "only 1 instances")]
    fn validate_rejects_unknown_instance() {
        FaultPlan::none()
            .crash(InstanceId(7), ms(1), SimDuration::from_millis(1))
            .validate(1);
    }

    #[test]
    #[should_panic(expected = "overlapping crash windows")]
    fn validate_rejects_overlapping_crashes_of_one_instance() {
        FaultPlan::none()
            .crash(InstanceId(0), ms(10), SimDuration::from_millis(20))
            .crash(InstanceId(0), ms(25), SimDuration::from_millis(10))
            .validate(1);
    }

    #[test]
    fn validate_accepts_adjacent_and_cross_instance_crashes() {
        // Back-to-back windows of one instance and overlapping windows of
        // *different* instances are both fine: only a same-instance overlap
        // is ambiguous.
        FaultPlan::none()
            .crash(InstanceId(0), ms(10), SimDuration::from_millis(10))
            .crash(InstanceId(0), ms(20), SimDuration::from_millis(10))
            .crash(InstanceId(1), ms(15), SimDuration::from_millis(30))
            .validate(2);
    }

    #[test]
    #[should_panic(expected = "zero-length crash window")]
    fn validate_rejects_zero_length_crash() {
        FaultPlan::none()
            .crash(InstanceId(0), ms(10), SimDuration::ZERO)
            .validate(1);
    }

    #[test]
    #[should_panic(expected = "zero-length slowdown window")]
    fn validate_rejects_zero_length_slowdown() {
        FaultPlan::none()
            .slowdown(InstanceId(0), ms(10), ms(10), 4.0)
            .validate(1);
    }

    #[test]
    #[should_panic(expected = "zero-length reply-fault window")]
    fn validate_rejects_zero_length_reply_fault() {
        FaultPlan::none()
            .reply_fault(InstanceId(0), ms(10), ms(10), 0.5, SimDuration::ZERO)
            .validate(1);
    }

    #[test]
    #[should_panic(expected = "demand factor must be positive")]
    fn zero_demand_factor_rejected() {
        let _ = FaultPlan::none().slowdown(InstanceId(0), ms(0), ms(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn out_of_range_probability_rejected() {
        let _ = FaultPlan::none().reply_fault(InstanceId(0), ms(0), ms(1), 1.5, SimDuration::ZERO);
    }

    #[test]
    fn fault_cause_displays() {
        assert_eq!(FaultCause::TimedOut.to_string(), "timed-out");
        assert_eq!(FaultCause::Shed.to_string(), "shed");
    }
}
