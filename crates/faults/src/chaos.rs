//! The chaos harness: a [`QosSwitch`] driven through a [`FaultPlan`].
//!
//! [`ChaosSwitch`] implements the simulator's [`CycleModel`] and
//! [`Monitored`] traits by delegation, injecting every due fault *before*
//! stepping the switch — so the standard [`ssq_sim::Runner`] (schedules,
//! stall watchdog, Eq. 1 violation monitor) drives fault campaigns with
//! no special-casing.

use ssq_core::QosSwitch;
use ssq_sim::{CycleModel, EventModel, Monitored};
use ssq_types::Cycle;

use crate::plan::FaultPlan;

/// A switch plus the fault schedule that torments it.
#[derive(Debug)]
pub struct ChaosSwitch {
    switch: QosSwitch,
    plan: FaultPlan,
    cursor: usize,
}

impl ChaosSwitch {
    /// Pairs a switch with a fault plan.
    #[must_use]
    pub fn new(switch: QosSwitch, plan: FaultPlan) -> Self {
        ChaosSwitch {
            switch,
            plan,
            cursor: 0,
        }
    }

    /// The wrapped switch.
    #[must_use]
    pub fn switch(&self) -> &QosSwitch {
        &self.switch
    }

    /// Mutable access to the wrapped switch (e.g. to attach sinks).
    pub fn switch_mut(&mut self) -> &mut QosSwitch {
        &mut self.switch
    }

    /// Unwraps the switch for post-run inspection.
    #[must_use]
    pub fn into_switch(self) -> QosSwitch {
        self.switch
    }

    /// Fault steps not yet applied.
    #[must_use]
    pub fn pending_faults(&self) -> usize {
        self.plan.len() - self.cursor
    }
}

impl CycleModel for ChaosSwitch {
    fn step(&mut self, now: Cycle) {
        self.plan.apply_due(&mut self.cursor, now, &mut self.switch);
        self.switch.step(now);
    }

    fn begin_measurement(&mut self, now: Cycle) {
        self.switch.begin_measurement(now);
    }
}

impl EventModel for ChaosSwitch {
    fn skip_idle(&mut self, now: Cycle, limit: Cycle) -> Cycle {
        // Scheduled faults are future activity the wrapped switch cannot
        // see, so no skipping while any remain pending.
        if self.cursor < self.plan.len() {
            return now;
        }
        self.switch.skip_idle(now, limit)
    }
}

impl Monitored for ChaosSwitch {
    fn progress(&self) -> Option<u64> {
        self.switch.progress()
    }

    fn violation(&self) -> Option<String> {
        self.switch.violation()
    }
}
