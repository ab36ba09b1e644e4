//! Task state as the scheduler sees it.

use cputopo::{CpuId, CpuSet};
use simcore::SimDuration;

/// Identifier of a schedulable task (thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

impl TaskId {
    /// The identifier as a plain index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for TaskId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskState {
    /// Waiting for CPU on some runqueue.
    Runnable,
    /// Currently executing on a CPU.
    Running,
    /// Sleeping (waiting on I/O, an RPC reply, or a think timer).
    Blocked,
    /// Finished; the id will not be reused.
    Terminated,
}

/// Scheduler-internal per-task record.
#[derive(Debug, Clone)]
pub(crate) struct Task {
    pub(crate) state: TaskState,
    pub(crate) affinity: CpuSet,
    /// CPU currently running this task (only when `Running`).
    pub(crate) cpu: Option<CpuId>,
    /// Last CPU this task ran on; seeds wake-time placement.
    pub(crate) last_cpu: Option<CpuId>,
    /// Total CPU time consumed; the fair-queueing key.
    pub(crate) vruntime: SimDuration,
}

impl Task {
    pub(crate) fn new(affinity: CpuSet) -> Self {
        Task {
            state: TaskState::Blocked,
            affinity,
            cpu: None,
            last_cpu: None,
            vruntime: SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_tasks_start_blocked() {
        let t = Task::new(CpuSet::first_n(4));
        assert_eq!(t.state, TaskState::Blocked);
        assert_eq!(t.cpu, None);
        assert_eq!(t.vruntime, SimDuration::ZERO);
    }

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(7).to_string(), "task7");
        assert_eq!(TaskId(7).index(), 7);
    }
}
