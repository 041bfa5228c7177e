//! The idle-skipping runner: event-driven stepping over an
//! [`EventModel`].
//!
//! [`BitparRunner`] runs the same stepping kernel as the dense
//! [`Runner`](crate::Runner) and differs from it only in
//! [`EventModel::skip_idle`]: when the model is *provably quiescent* (no
//! buffered traffic, no transmits in flight, only clock state
//! advancing) the only future activity is the next deterministic
//! arrival, so the runner jumps straight to it after batching the
//! per-cycle clock effects. At 5% load this removes the vast majority
//! of cycles outright; under random (unpredictable) traffic it never
//! engages and the runner steps densely.
//!
//! The bar is byte identity with the dense runner: counters, metrics,
//! and event traces — decay-epoch events included, which is why
//! `skip_idle` must emit them with the exact cycle stamps dense
//! stepping would have produced.

use ssq_types::Cycle;

use crate::runner::{CycleModel, Schedule};

/// A [`CycleModel`] with a quiescence probe.
///
/// The contract is strict byte-identity: `skip_idle(now, limit)` must
/// either report no skip (returning `now`) or advance the model over
/// `now..target` leaving it in exactly the state `target - now` dense
/// steps would — trace events and their cycle stamps included.
pub trait EventModel: CycleModel {
    /// Advances through cycle `now`: the one stepping kernel,
    /// [`CycleModel::step`].
    #[inline]
    fn step_fast(&mut self, now: Cycle) {
        self.step(now);
    }

    /// If the model is quiescent at `now`, batches the pure clock
    /// effects of the skippable cycles and returns the first cycle in
    /// `(now, limit]` that needs dense execution (`limit` itself when
    /// nothing will happen this phase). Returns `now` when the model
    /// cannot prove quiescence, in which case nothing was advanced.
    fn skip_idle(&mut self, now: Cycle, limit: Cycle) -> Cycle;
}

/// Drives an [`EventModel`] through a [`Schedule`] with idle skipping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitparRunner {
    schedule: Schedule,
}

impl BitparRunner {
    /// Creates a runner for the given schedule.
    #[must_use]
    pub const fn new(schedule: Schedule) -> Self {
        BitparRunner { schedule }
    }

    /// The schedule this runner executes.
    #[must_use]
    pub const fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Runs one phase `[now, end)` with idle skipping.
    fn run_phase<M: EventModel + ?Sized>(model: &mut M, mut now: Cycle, end: Cycle) -> Cycle {
        while now < end {
            let next = model.skip_idle(now, end);
            if next > now {
                now = next;
                continue;
            }
            model.step_fast(now);
            now = now.next();
        }
        now
    }

    /// Runs the model from cycle 0 through the full schedule and returns
    /// the cycle after the last step — the event-driven twin of
    /// [`Runner::run`](crate::Runner::run). The warm-up/measurement
    /// boundary is honored exactly: a skip never crosses it, so
    /// `begin_measurement` fires at the same cycle as under the dense
    /// runner.
    pub fn run<M: EventModel + ?Sized>(&self, model: &mut M) -> Cycle {
        let warm_end = Cycle::ZERO + self.schedule.warmup();
        let now = Self::run_phase(model, Cycle::ZERO, warm_end);
        model.begin_measurement(now);
        let end = warm_end + self.schedule.measure();
        Self::run_phase(model, now, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_types::Cycles;

    /// Steps densely every 10th cycle and skips the rest, recording
    /// which cycles executed and which were batched.
    struct Hopper {
        stepped: Vec<u64>,
        batched: u64,
        boundary: Option<Cycle>,
    }

    impl CycleModel for Hopper {
        fn step(&mut self, now: Cycle) {
            self.stepped.push(now.value());
        }
        fn begin_measurement(&mut self, now: Cycle) {
            self.boundary = Some(now);
        }
    }

    impl EventModel for Hopper {
        fn skip_idle(&mut self, now: Cycle, limit: Cycle) -> Cycle {
            if now.value() % 10 == 0 {
                return now; // dense work due
            }
            let next_busy = (now.value() / 10 + 1) * 10;
            let target = next_busy.min(limit.value());
            self.batched += target - now.value();
            Cycle::new(target)
        }
    }

    #[test]
    fn skips_cover_every_cycle_exactly_once() {
        let mut m = Hopper {
            stepped: Vec::new(),
            batched: 0,
            boundary: None,
        };
        let end = BitparRunner::new(Schedule::new(Cycles::new(15), Cycles::new(30))).run(&mut m);
        assert_eq!(end, Cycle::new(45));
        assert_eq!(m.stepped, vec![0, 10, 20, 30, 40]);
        // A skip never crosses the warm-up boundary: the first phase is
        // clamped to cycle 15, `begin_measurement` fires there, and the
        // measurement phase resumes skipping from 15.
        assert_eq!(m.boundary, Some(Cycle::new(15)));
        assert_eq!(
            m.stepped.len() as u64 + m.batched,
            45,
            "every cycle either stepped or batched"
        );
    }

    #[test]
    fn never_skipping_degenerates_to_dense() {
        struct Dense(Vec<u64>);
        impl CycleModel for Dense {
            fn step(&mut self, now: Cycle) {
                self.0.push(now.value());
            }
            fn begin_measurement(&mut self, _now: Cycle) {}
        }
        impl EventModel for Dense {
            fn skip_idle(&mut self, now: Cycle, _limit: Cycle) -> Cycle {
                now
            }
        }
        let mut m = Dense(Vec::new());
        let end = BitparRunner::new(Schedule::new(Cycles::ZERO, Cycles::new(5))).run(&mut m);
        assert_eq!(end, Cycle::new(5));
        assert_eq!(m.0, vec![0, 1, 2, 3, 4]);
    }
}
