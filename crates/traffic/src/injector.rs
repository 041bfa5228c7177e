//! One input port's complete traffic description.

use ssq_types::{Cycle, InputId, OutputId, TrafficClass};

use crate::{DestinationPattern, TrafficSource};

/// A packet the injector wants to create this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketIntent {
    /// Destination output port.
    pub output: OutputId,
    /// QoS class of the packet.
    pub class: TrafficClass,
    /// Packet length in flits.
    pub len_flits: u64,
}

/// Combines an arrival process, a destination pattern, and a QoS class
/// into the traffic of one input port.
///
/// A port can carry several injectors at once (e.g. a saturated GB flow
/// plus an infrequent GL interrupt source); the switch polls each
/// through [`Injector::poll_due`], which keeps the injector's place on
/// the arrival calendar.
///
/// # Examples
///
/// ```
/// use ssq_traffic::{Injector, Periodic, FixedDest};
/// use ssq_types::{Cycle, OutputId, TrafficClass};
///
/// let mut watchdog = Injector::new(
///     Box::new(Periodic::new(1000, 0, 1)),
///     Box::new(FixedDest::new(OutputId::new(0))),
///     TrafficClass::GuaranteedLatency,
/// );
/// assert!(watchdog.poll(Cycle::new(0)).is_some());
/// assert!(watchdog.poll(Cycle::new(1)).is_none());
/// ```
pub struct Injector {
    source: Box<dyn TrafficSource + Send + Sync>,
    pattern: Box<dyn DestinationPattern + Send + Sync>,
    class: TrafficClass,
    input: InputId,
    /// The first cycle [`Injector::poll_due`] polls the source at again.
    due: Cycle,
    /// Set once the source declines to predict its arrivals; it is then
    /// polled every cycle for good.
    dense: bool,
}

impl Injector {
    /// Creates an injector. The owning input port is attached later with
    /// [`Injector::for_input`] (defaults to input 0). The boxed source
    /// and pattern are `Send + Sync` so a switch holding injectors can
    /// move to, and be read from, sweep threads.
    #[must_use]
    pub fn new(
        source: Box<dyn TrafficSource + Send + Sync>,
        pattern: Box<dyn DestinationPattern + Send + Sync>,
        class: TrafficClass,
    ) -> Self {
        Injector {
            source,
            pattern,
            class,
            input: InputId::new(0),
            due: Cycle::ZERO,
            dense: false,
        }
    }

    /// Attaches the injector to a specific input port (used by patterns
    /// that depend on the source index, e.g. permutations).
    #[must_use]
    pub fn for_input(mut self, input: InputId) -> Self {
        self.input = input;
        self
    }

    /// The QoS class of the generated packets.
    #[must_use]
    pub const fn class(&self) -> TrafficClass {
        self.class
    }

    /// The input port this injector feeds.
    #[must_use]
    pub const fn input(&self) -> InputId {
        self.input
    }

    /// The long-run offered load, if the underlying source has one.
    #[must_use]
    pub fn offered_load(&self) -> Option<f64> {
        self.source.offered_load()
    }

    /// Polls the arrival process at `now`.
    pub fn poll(&mut self, now: Cycle) -> Option<PacketIntent> {
        let len_flits = self.source.poll(now)?;
        Some(PacketIntent {
            output: self.pattern.dest(self.input),
            class: self.class,
            len_flits,
        })
    }

    /// Polls the arrival process at `now` if it is due, keeping the
    /// injector's calendar entry: equal to [`Injector::poll`] on every
    /// cycle, but a source with a predicted next arrival is not polled
    /// before it. After a poll that yields nothing, the source is asked
    /// once for its next arrival, which is booked as the new
    /// [`Injector::due_cycle`] and reported by setting `*rebooked`; a
    /// source that declines (`None`) is polled every cycle from then on
    /// and never asked again. `due_cycle` changes only there, so a
    /// caller keeping the earliest due cycle of many injectors need
    /// only recompute it after a pass that set `rebooked`. Exact under
    /// the [`TrafficSource::next_arrival`] contract: the skipped polls
    /// would have returned `None` and left the source untouched.
    #[inline]
    pub fn poll_due(&mut self, now: Cycle, rebooked: &mut bool) -> Option<PacketIntent> {
        if now < self.due {
            debug_assert_eq!(
                self.source.next_arrival(now),
                Some(self.due),
                "cached arrival disagrees with the source at {now}"
            );
            return None;
        }
        let intent = self.poll(now);
        if !self.dense && intent.is_none() {
            self.book_next_arrival(now, rebooked);
        }
        intent
    }

    /// Books the source's next arrival after an empty poll at `now`.
    /// Out of line: a predictable source reaches it once per arrival, an
    /// unpredictable one once per run.
    #[cold]
    #[inline(never)]
    fn book_next_arrival(&mut self, now: Cycle, rebooked: &mut bool) {
        match self.source.next_arrival(now.next()) {
            Some(at) => {
                self.due = at;
                *rebooked = true;
            }
            None => self.dense = true,
        }
    }

    /// The earliest cycle at which [`Injector::poll_due`] polls the
    /// source: its booked next arrival, or a cycle already reached when
    /// the source is polled every cycle (it just produced a packet, or
    /// it cannot predict). `Cycle::new(u64::MAX)` when it never will.
    #[inline]
    #[must_use]
    pub const fn due_cycle(&self) -> Cycle {
        self.due
    }

    /// The source's next predictable arrival at or after `now`
    /// ([`TrafficSource::next_arrival`]); `None` when the source must be
    /// polled densely. Destination patterns are consulted only on
    /// arrival, so they never constrain the prediction.
    #[must_use]
    pub fn next_arrival(&self, now: Cycle) -> Option<Cycle> {
        self.source.next_arrival(now)
    }
}

impl std::fmt::Debug for Injector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Injector")
            .field("class", &self.class)
            .field("input", &self.input)
            .field("offered_load", &self.offered_load())
            .field("due", &self.due)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Bernoulli, BimodalBernoulli, FixedDest, OnOffBursty, Periodic, Saturating, Trace,
        TrafficSource, Transpose,
    };

    fn injector(source: Box<dyn TrafficSource + Send + Sync>) -> Injector {
        Injector::new(
            source,
            Box::new(FixedDest::new(OutputId::new(0))),
            TrafficClass::BestEffort,
        )
    }

    /// Calendar polling yields exactly the dense poll stream for every
    /// in-tree source, and polls a predictable source only when due.
    #[test]
    fn calendar_polling_equals_dense_polling() {
        type Make = fn() -> Box<dyn TrafficSource + Send + Sync>;
        let sources: [(&str, Make, bool); 7] = [
            ("bernoulli", || Box::new(Bernoulli::new(0.3, 4, 5)), false),
            ("periodic", || Box::new(Periodic::new(17, 5, 3)), true),
            ("every-cycle", || Box::new(Periodic::new(1, 0, 1)), false),
            (
                "on-off",
                || Box::new(OnOffBursty::new(0.6, 2, 0.02, 0.03, 9)),
                false,
            ),
            ("saturating", || Box::new(Saturating::new(8)), false),
            (
                "trace",
                || Box::new(Trace::new(vec![(0, 1), (1, 2), (40, 3), (41, 4), (300, 5)])),
                true,
            ),
            (
                "bimodal",
                || Box::new(BimodalBernoulli::new(0.4, 1, 8, 0.3, 2)),
                false,
            ),
        ];
        for (name, make, sparse) in sources {
            let mut dense = injector(make());
            let mut calendar = injector(make());
            let mut skipped = 0;
            for c in 0..2_000 {
                let now = Cycle::new(c);
                if now < calendar.due_cycle() {
                    skipped += 1;
                }
                let before = calendar.due_cycle();
                let mut rebooked = false;
                assert_eq!(
                    dense.poll(now),
                    calendar.poll_due(now, &mut rebooked),
                    "{name} at {c}"
                );
                assert_eq!(
                    rebooked,
                    calendar.due_cycle() != before,
                    "{name} at {c}: a due change is reported"
                );
            }
            assert_eq!(skipped > 1_000, sparse, "{name}: {skipped} polls skipped");
        }
    }

    #[test]
    fn unpredictable_sources_ask_once_and_stay_due() {
        let mut inj = injector(Box::new(Bernoulli::new(0.0, 1, 1)));
        for c in 0..10 {
            let mut rebooked = false;
            assert_eq!(inj.poll_due(Cycle::new(c), &mut rebooked), None);
            assert!(!rebooked);
            assert_eq!(inj.due_cycle(), Cycle::ZERO, "a dense source is always due");
        }
        assert!(inj.dense);
    }

    #[test]
    fn intent_carries_class_and_destination() {
        let mut inj = Injector::new(
            Box::new(Saturating::new(4)),
            Box::new(FixedDest::new(OutputId::new(2))),
            TrafficClass::BestEffort,
        );
        let p = inj.poll(Cycle::ZERO).unwrap();
        assert_eq!(p.output, OutputId::new(2));
        assert_eq!(p.class, TrafficClass::BestEffort);
        assert_eq!(p.len_flits, 4);
    }

    #[test]
    fn pattern_sees_the_attached_input() {
        let mut inj = Injector::new(
            Box::new(Saturating::new(1)),
            Box::new(Transpose::new(4)),
            TrafficClass::GuaranteedBandwidth,
        )
        .for_input(InputId::new(1)); // (0,1) -> (1,0) = output 2
        assert_eq!(inj.poll(Cycle::ZERO).unwrap().output, OutputId::new(2));
        assert_eq!(inj.input(), InputId::new(1));
    }

    #[test]
    fn offered_load_passthrough() {
        let inj = Injector::new(
            Box::new(Saturating::new(1)),
            Box::new(FixedDest::new(OutputId::new(0))),
            TrafficClass::BestEffort,
        );
        assert_eq!(inj.offered_load(), Some(1.0));
    }

    #[test]
    fn debug_output_is_nonempty() {
        let inj = Injector::new(
            Box::new(Saturating::new(1)),
            Box::new(FixedDest::new(OutputId::new(0))),
            TrafficClass::GuaranteedLatency,
        );
        assert!(format!("{inj:?}").contains("Injector"));
    }
}
