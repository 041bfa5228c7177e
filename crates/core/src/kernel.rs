//! The stepping kernel's per-output pass: the single arbitration of
//! each idle output per cycle.
//!
//! [`QosSwitch::cycle_output`] runs after `prepare_cycle`, in output
//! order, for the *active* outputs only — the set bits of
//! `busy_out | requested | waiting` (transmitting, requested in any
//! class, or part-way through a two-cycle arbitration). Every other
//! output's pass would be a no-op, so a cycle costs what moves in it,
//! not the radix. A transmitting channel moves one flit; an idle one
//! reads the transposed request words `xreq` (one word per class,
//! masked to the inputs that are neither blocked nor on a downed link),
//! waits out the arbitration latency, and calls the selected round's
//! arbiter exactly once with the requester word and a head-length
//! lookup — the paper's single-cycle inhibit. Fabric cross-checks,
//! fault detectors and trace events all read the post-arbitration
//! state, except the Inhibit events' MSB snapshot, taken before the
//! arbiter charges the winner. The scalar reference gather lives in
//! `switch.rs` and checks the request words on every debug step.

use ssq_arbiter::Arbiter;
use ssq_trace::{Event, EventKind};
use ssq_types::{Cycle, InputId, OutputId, PortSet, TrafficClass};

use super::{wire, GbEngine, QosSwitch};
use crate::channel::ChannelState;
use crate::config::Policy;
use crate::port::InputPort;
use crate::sanitize;

/// The head-packet length of `input`'s `class` queue toward `output`:
/// the length lookup the flit-accounting arbiters call.
//
// `i` is a requester bit < radix indexing the radix-sized port Vec; a
// set request bit without a head is a desynced word, the invariant
// breach the debug cross-check pins every step.
// ssq-lint: allow(panic-freedom-reachability)
fn head_len(ports: &[InputPort], class: TrafficClass, output: OutputId, i: usize) -> u64 {
    // ssq-lint: allow(unchecked-hot-arith) — port Vec sized num_ports at construction; requester bits are port ids < radix by the sync invariant
    ports[i]
        .head(class, output)
        // ssq-lint: allow(no-unwrap) — a set request bit with no matching head means the incremental word desynced from the queues: an invariant breach, not a recoverable condition
        .expect("request word set without a matching queue head")
        .spec()
        .len_flits()
}

impl QosSwitch {
    /// Phase 2 of a cycle, for one active output: a transmitting
    /// channel moves one flit; an idle one reads its request words
    /// (masked to the inputs whose links are up, `live`, and that are
    /// not yet `blocked`), waits out the arbitration latency, and
    /// arbitrates once. A grant adds its input to `blocked` for the
    /// outputs after this one.
    //
    // `o` is an output id < radix and every per-output Vec it indexes
    // (channels, xreq rows, arb_wait, gl_wait) is sized radix at
    // construction; the winner is a requester id < radix indexing the
    // radix-sized port Vec; `arb_wait[o] + 1` stays below
    // `arbitration_cycles` (at most 2).
    // ssq-lint: allow(panic-freedom-reachability)
    pub(super) fn cycle_output(&mut self, output: OutputId, now: Cycle, blocked: &mut PortSet) {
        let o = output.index();
        // ssq-lint: allow(unchecked-hot-arith) — per-output channel Vec sized num_ports at construction; `o` is a port id < radix
        if matches!(self.channels[o].state(), ChannelState::Transmitting { .. }) {
            self.transmit_flit(output, now);
            return;
        }
        let avail = !blocked.bits() & self.live.bits();
        // ssq-lint: allow(unchecked-hot-arith) — per-output request-word Vecs sized num_ports at construction; `o` is a port id < radix
        let glm = self.xreq[TrafficClass::GuaranteedLatency.priority() as usize][o] & avail;
        // ssq-lint: allow(unchecked-hot-arith) — per-output request-word Vecs sized num_ports at construction; `o` is a port id < radix
        let gbm = self.xreq[TrafficClass::GuaranteedBandwidth.priority() as usize][o] & avail;
        // ssq-lint: allow(unchecked-hot-arith) — per-output request-word Vecs sized num_ports at construction; `o` is a port id < radix
        let bem = self.xreq[TrafficClass::BestEffort.priority() as usize][o] & avail;
        if glm | gbm | bem == 0 {
            // ssq-lint: allow(unchecked-hot-arith) — `arb_wait` is sized num_ports at construction; `o` is a port id < radix
            self.arb_wait[o] = 0;
            self.waiting.remove(o);
            return;
        }
        let arb_latency = self.config.policy().arbitration_cycles();
        // ssq-lint: allow(unchecked-hot-arith) — `arb_wait` is sized num_ports and held below `arbitration_cycles` here; `o` is a port id < radix
        if self.arb_wait[o] + 1 < arb_latency {
            // ssq-lint: allow(unchecked-hot-arith) — `arb_wait` is sized num_ports and held below `arbitration_cycles` here; `o` is a port id < radix
            self.arb_wait[o] += 1;
            self.waiting.insert(o);
            return;
        }
        // ssq-lint: allow(unchecked-hot-arith) — `arb_wait` is sized num_ports at construction; `o` is a port id < radix
        self.arb_wait[o] = 0;
        self.waiting.remove(o);
        let Some((input, class)) = self.arbitrate_output(output, now, glm, gbm, bem) else {
            return;
        };
        // ssq-lint: allow(unchecked-hot-arith) — port Vec sized num_ports at construction; an arbitration winner is a requester id < radix
        let Some(head) = self.ports[input].head(class, output) else {
            // An arbitration winner always has a head packet; if that
            // invariant ever breaks, skip the grant instead of aborting
            // the sweep.
            debug_assert!(false, "winner without a head packet");
            return;
        };
        let len = head.spec().len_flits();
        let waited = head.waiting_time(now).value();
        if class == TrafficClass::GuaranteedLatency {
            // ssq-lint: allow(unchecked-hot-arith) — per-output histogram Vec sized num_ports at construction; `o` is a port id < radix
            self.gl_wait[o].record(waited);
        }
        sanitize::single_grant_commit(o, input, blocked.contains(input));
        self.commit_channel(output, InputId::new(input), class, len, arb_latency);
        blocked.insert(input);
        self.tracer.emit(|| Event {
            cycle: now.value(),
            kind: EventKind::Grant {
                output: wire(o),
                input: wire(input),
                class,
                len_flits: len,
                waited,
            },
        });
    }

    /// Emits the [`EventKind::Decision`] of a committed arbitration.
    fn trace_decision(
        &mut self,
        now: Cycle,
        o: usize,
        class: TrafficClass,
        contenders: u32,
        winner: usize,
    ) {
        self.tracer.emit(|| Event {
            cycle: now.value(),
            kind: EventKind::Decision {
                output: wire(o),
                class,
                contenders,
                winner: wire(winner),
            },
        });
    }

    /// The one arbitration of an idle `output` this cycle: hands the
    /// per-class requester words to the selected round's arbiter once,
    /// runs the fabric cross-checks and fault detectors against the
    /// post-arbitration state, and emits the decision's trace events.
    /// Returns the committed `(input, class)`.
    //
    // `o` < radix indexes the radix-sized per-output arbiter Vecs.
    // ssq-lint: allow(panic-freedom-reachability)
    fn arbitrate_output(
        &mut self,
        output: OutputId,
        now: Cycle,
        glm: u64,
        gbm: u64,
        bem: u64,
    ) -> Option<(usize, TrafficClass)> {
        let o = output.index();
        // A requester's class is its highest-class head.
        let class_of = |w: usize| {
            if PortSet::from_bits(glm).contains(w) {
                TrafficClass::GuaranteedLatency
            } else if PortSet::from_bits(gbm).contains(w) {
                TrafficClass::GuaranteedBandwidth
            } else {
                TrafficClass::BestEffort
            }
        };
        match self.config.policy() {
            Policy::LrgOnly => {
                // Class-blind LRG over every requester; a winner sends
                // its highest-class head.
                let reqs = PortSet::from_bits(glm | gbm | bem);
                // ssq-lint: allow(unchecked-hot-arith) — per-output arbiter Vec sized num_ports at construction; `o` is a port id < radix
                let w = self.flat_lrg[o].arbitrate(now, reqs, &|_| 1)?;
                let class = class_of(w);
                self.trace_decision(now, o, class, reqs.len(), w);
                Some((w, class))
            }
            Policy::FourLevel => {
                // GL -> level 3, GB -> level 1, BE -> level 0; per input,
                // only its highest-class head competes.
                let levels = [
                    PortSet::from_bits(bem & !gbm & !glm),
                    PortSet::from_bits(gbm & !glm),
                    PortSet::EMPTY,
                    PortSet::from_bits(glm),
                ];
                // ssq-lint: allow(unchecked-hot-arith) — per-output arbiter Vec sized num_ports at construction; `o` is a port id < radix
                let (w, _) = self.four_level[o].arbitrate_levels(levels)?;
                let class = class_of(w);
                self.trace_decision(now, o, class, (glm | gbm | bem).count_ones(), w);
                Some((w, class))
            }
            _ => self.arbitrate_strict_priority(output, now, glm, gbm, bem),
        }
    }

    /// The strict class-priority ladder: GL > GB > policed (or demoted)
    /// GL > BE. A demoted GL class (lost lane, DESIGN.md §8) keeps
    /// service but no longer preempts GB.
    //
    // `o` < radix indexes the radix-sized per-output Vecs; `msbs` is a
    // 64-slot array indexed by requester ids < radix ≤ 64; the two
    // assert_eq! are the fabric cross-checks `fabric_checked` runs.
    // ssq-lint: allow(panic-freedom-reachability)
    fn arbitrate_strict_priority(
        &mut self,
        output: OutputId,
        now: Cycle,
        glm: u64,
        gbm: u64,
        bem: u64,
    ) -> Option<(usize, TrafficClass)> {
        let o = output.index();
        let gl = PortSet::from_bits(glm);
        // ssq-lint: allow(unchecked-hot-arith) — per-output policer Vec sized num_ports at construction; `o` is a port id < radix
        let policed = self.gl_policers[o].policed(self.clock);
        let demoted = self.faultctl.gl_demoted(o);
        if policed && !gl.is_empty() {
            self.counters.gl_policed_cycles = self.counters.gl_policed_cycles.saturating_add(1);
            let backlog = gl.len();
            self.tracer.emit(|| Event {
                cycle: now.value(),
                kind: EventKind::GlPoliced {
                    output: wire(o),
                    backlog,
                },
            });
        }
        // Demotion means GL lost its dedicated lane, not its service:
        // demoted GL competes *inside* the GB round (riding its
        // crosspoint's default vtick) instead of waiting below it.
        let demoted_gl = PortSet::from_bits(if demoted { glm & !gbm } else { 0 });
        let gb = PortSet::from_bits(gbm | demoted_gl.bits());
        let gb_class = |w: usize| {
            if demoted_gl.contains(w) {
                TrafficClass::GuaranteedLatency
            } else {
                TrafficClass::GuaranteedBandwidth
            }
        };

        if !gl.is_empty() && !policed && !demoted {
            let circuit = self.fabric_decision(o, gl, PortSet::EMPTY);
            // ssq-lint: allow(unchecked-hot-arith) — per-output arbiter Vec sized num_ports at construction; `o` is a port id < radix
            let w = self.gl_lrg[o].arbitrate(now, gl, &|_| 1)?;
            if let Some(outcome) = circuit {
                let expected = outcome.winner();
                #[cfg(feature = "faults")]
                if self.faultctl.armed() && (expected != Some(w) || outcome.is_multi_grant()) {
                    return self.classify_fabric_corruption(
                        output,
                        now,
                        TrafficClass::GuaranteedLatency,
                        w,
                        expected,
                        outcome.is_multi_grant(),
                    );
                }
                sanitize::fabric_agreement(o, expected, Some(w));
                assert_eq!(
                    expected,
                    Some(w),
                    "fabric/behavioural GL disagreement at {output}, cycle {now}"
                );
            }
            let len = head_len(&self.ports, TrafficClass::GuaranteedLatency, output, w);
            // ssq-lint: allow(unchecked-hot-arith) — per-output policer Vec sized num_ports at construction; `o` is a port id < radix
            self.gl_policers[o].charge(len, self.clock);
            self.trace_decision(now, o, TrafficClass::GuaranteedLatency, gl.len(), w);
            return Some((w, TrafficClass::GuaranteedLatency));
        }
        if !gb.is_empty() && self.faultctl.lrg_fallback(o) {
            // Degraded mode: the GB thermometer lanes are gone, so
            // arbitrate by pure LRG. SSVC state is neither consulted nor
            // advanced, and the fabric cross-check is off (the circuit
            // no longer models the grant).
            // ssq-lint: allow(unchecked-hot-arith) — per-output arbiter Vec sized num_ports at construction; `o` is a port id < radix
            let w = self.flat_lrg[o].arbitrate(now, gb, &|_| 1)?;
            let class = gb_class(w);
            self.trace_decision(now, o, class, gb.len(), w);
            return Some((w, class));
        }
        if !gb.is_empty() {
            self.settle_engine(o);
            let circuit = self.fabric_decision(o, PortSet::EMPTY, gb);
            // Snapshot the MSB lanes before the arbitration mutates
            // auxVC state, so inhibit events carry the values the losers
            // were actually defeated with.
            let watch = !self.tracer.is_off();
            let mut msbs = [0u64; 64];
            let mut saturations_before = 0;
            // ssq-lint: allow(unchecked-hot-arith) — per-output engine Vec sized num_ports at construction; `o` is a port id < radix
            if let GbEngine::Ssvc(ssvc) = &self.gb_engines[o] {
                if watch {
                    for i in gb {
                        // ssq-lint: allow(unchecked-hot-arith) — 64-slot snapshot indexed by a requester id < radix ≤ 64
                        msbs[i] = ssvc.msb_value(i);
                    }
                    saturations_before = ssvc.saturation_count();
                }
            }
            let ports = &self.ports;
            // A demoted GL requester rides its GL head through the GB round.
            let len_of = |i: usize| {
                let class = if demoted_gl.contains(i) {
                    TrafficClass::GuaranteedLatency
                } else {
                    TrafficClass::GuaranteedBandwidth
                };
                head_len(ports, class, output, i)
            };
            // ssq-lint: allow(unchecked-hot-arith) — per-output engine Vec sized num_ports at construction; `o` is a port id < radix
            let w = self.gb_engines[o]
                .as_arbiter()?
                .arbitrate(now, gb, &len_of)?;
            if let Some(outcome) = circuit {
                let expected = outcome.winner();
                #[cfg(feature = "faults")]
                if self.faultctl.armed() && (expected != Some(w) || outcome.is_multi_grant()) {
                    return self.classify_fabric_corruption(
                        output,
                        now,
                        TrafficClass::GuaranteedBandwidth,
                        w,
                        expected,
                        outcome.is_multi_grant(),
                    );
                }
                sanitize::fabric_agreement(o, expected, Some(w));
                assert_eq!(
                    expected,
                    Some(w),
                    "fabric/behavioural GB disagreement at {output}, cycle {now}"
                );
            }
            // GB requesters first, then demoted GL ones: the order the
            // detectors scan and the inhibit events are emitted in.
            let contenders = PortSet::from_bits(gbm).iter().chain(demoted_gl.iter());
            // With a fault armed, the V2/V3 sanitizer predicates run
            // unconditionally and *classify* (Detected → retry →
            // degrade) instead of panicking. Every contender is scanned,
            // not just the winner: an upward-corrupted auxVC makes its
            // flow silently *lose* every round, which is just as much a
            // broken guarantee as a corrupt win.
            #[cfg(feature = "faults")]
            if self.faultctl.armed() {
                let mut offender = None;
                // ssq-lint: allow(unchecked-hot-arith) — per-output engine Vec sized num_ports at construction; `o` is a port id < radix
                if let GbEngine::Ssvc(ssvc) = &self.gb_engines[o] {
                    let cap = ssvc.config().saturation_cap();
                    for i in contenders.clone() {
                        let code = ssvc.thermometer_code(i);
                        let aux = ssvc.aux_vc(i);
                        if !ssq_types::invariant::thermometer_well_formed(code) {
                            offender = Some((i, "SSQV002", code));
                            break;
                        }
                        if !ssq_types::invariant::aux_within_cap(aux, cap) {
                            offender = Some((i, "SSQV003", aux));
                            break;
                        }
                    }
                }
                if let Some((i, code, detail)) = offender {
                    return self.detected_degrade(
                        output,
                        now,
                        TrafficClass::GuaranteedBandwidth,
                        i,
                        code,
                        detail,
                    );
                }
            }
            // ssq-lint: allow(unchecked-hot-arith) — per-output engine Vec sized num_ports at construction; `o` is a port id < radix
            if let GbEngine::Ssvc(ssvc) = &self.gb_engines[o] {
                sanitize::gb_win(
                    o,
                    w,
                    ssvc.thermometer_code(w),
                    ssvc.aux_vc(w),
                    ssvc.config().saturation_cap(),
                );
                if watch {
                    // ssq-lint: allow(unchecked-hot-arith) — 64-slot snapshot indexed by the winner, a requester id < radix ≤ 64
                    let winner_msb = msbs[w];
                    let aux = ssvc.aux_vc(w);
                    let saturated = ssvc.saturation_count() > saturations_before;
                    for i in contenders.filter(|&i| i != w) {
                        // ssq-lint: allow(unchecked-hot-arith) — 64-slot snapshot indexed by a requester id < radix ≤ 64
                        let msb = msbs[i];
                        self.tracer.emit(|| Event {
                            cycle: now.value(),
                            kind: EventKind::Inhibit {
                                output: wire(o),
                                input: wire(i),
                                msb,
                                winner_msb,
                            },
                        });
                    }
                    self.tracer.emit(|| Event {
                        cycle: now.value(),
                        kind: EventKind::AuxVc {
                            output: wire(o),
                            input: wire(w),
                            aux,
                            saturated,
                        },
                    });
                }
            }
            let class = gb_class(w);
            self.trace_decision(now, o, class, gb.len(), w);
            return Some((w, class));
        }
        if !gl.is_empty() {
            // ssq-lint: allow(unchecked-hot-arith) — per-output arbiter Vec sized num_ports at construction; `o` is a port id < radix
            let w = self.gl_lrg[o].arbitrate(now, gl, &|_| 1)?;
            let len = head_len(&self.ports, TrafficClass::GuaranteedLatency, output, w);
            // ssq-lint: allow(unchecked-hot-arith) — per-output policer Vec sized num_ports at construction; `o` is a port id < radix
            self.gl_policers[o].charge(len, self.clock);
            self.trace_decision(now, o, TrafficClass::GuaranteedLatency, gl.len(), w);
            return Some((w, TrafficClass::GuaranteedLatency));
        }
        let be = PortSet::from_bits(bem);
        // ssq-lint: allow(unchecked-hot-arith) — per-output arbiter Vec sized num_ports at construction; `o` is a port id < radix
        let w = self.be_lrg[o].arbitrate(now, be, &|_| 1)?;
        self.trace_decision(now, o, TrafficClass::BestEffort, be.len(), w);
        Some((w, TrafficClass::BestEffort))
    }
}
