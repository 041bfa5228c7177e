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
/// plus an infrequent GL interrupt source); the switch polls each.
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
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FixedDest, Saturating, Transpose};

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
