//! The stepping kernel's per-output pass: the single arbitration of
//! each idle output per cycle.
//!
//! [`QosSwitch::cycle_output`] runs once per output, in output order,
//! after `prepare_cycle`. A transmitting channel moves one flit; an idle
//! one reads the transposed request words `xreq` (one word per class,
//! masked to the inputs that are neither blocked nor on a downed link),
//! waits out the arbitration latency, and calls the selected round's
//! arbiter exactly once — the paper's single-cycle inhibit. Fabric
//! cross-checks, fault detectors and trace events all read the
//! post-arbitration state, except the Inhibit events' MSB snapshot,
//! taken before the arbiter charges the winner. The scalar reference
//! gather lives in `switch.rs` and checks the request words on every
//! debug step.

use ssq_arbiter::{Arbiter, Request};
use ssq_trace::{Event, EventKind};
use ssq_types::{Cycle, InputId, OutputId, TrafficClass};

use super::{wire, GbEngine, QosSwitch};
use crate::bitmask::PortSet;
use crate::channel::ChannelState;
use crate::config::Policy;
use crate::sanitize;

impl QosSwitch {
    /// Phase 2 of a cycle, for one output, in output order: a
    /// transmitting channel moves one flit; an idle one reads its
    /// request words (masked to the inputs whose links are up, `live`,
    /// and that are not yet `blocked`), waits out the arbitration
    /// latency, and arbitrates once. A grant adds its input to
    /// `blocked` for the outputs after this one.
    //
    // `o` is an output id < radix and every per-output Vec it indexes
    // (channels, xreq rows, arb_wait, gl_wait) is sized radix at
    // construction; the winner is a requester id < radix indexing the
    // radix-sized port Vec; `arb_wait[o] + 1` stays below
    // `arbitration_cycles` (at most 2).
    // ssq-lint: allow(panic-freedom-reachability)
    pub(super) fn cycle_output(
        &mut self,
        output: OutputId,
        now: Cycle,
        blocked: &mut PortSet,
        live: PortSet,
    ) {
        let o = output.index();
        // ssq-lint: allow(unchecked-hot-arith) — per-output channel Vec sized num_ports at construction; `o` is a port id < radix
        if matches!(self.channels[o].state(), ChannelState::Transmitting { .. }) {
            self.transmit_flit(output, now);
            return;
        }
        let avail = !blocked.bits() & live.bits();
        // ssq-lint: allow(unchecked-hot-arith) — per-output request-word Vecs sized num_ports at construction; `o` is a port id < radix
        let glm = self.xreq[TrafficClass::GuaranteedLatency.priority() as usize][o] & avail;
        // ssq-lint: allow(unchecked-hot-arith) — per-output request-word Vecs sized num_ports at construction; `o` is a port id < radix
        let gbm = self.xreq[TrafficClass::GuaranteedBandwidth.priority() as usize][o] & avail;
        // ssq-lint: allow(unchecked-hot-arith) — per-output request-word Vecs sized num_ports at construction; `o` is a port id < radix
        let bem = self.xreq[TrafficClass::BestEffort.priority() as usize][o] & avail;
        if glm | gbm | bem == 0 {
            // ssq-lint: allow(unchecked-hot-arith) — `arb_wait` is sized num_ports at construction; `o` is a port id < radix
            self.arb_wait[o] = 0;
            return;
        }
        let arb_latency = self.config.policy().arbitration_cycles();
        // ssq-lint: allow(unchecked-hot-arith) — `arb_wait` is sized num_ports and held below `arbitration_cycles` here; `o` is a port id < radix
        if self.arb_wait[o] + 1 < arb_latency {
            // ssq-lint: allow(unchecked-hot-arith) — `arb_wait` is sized num_ports and held below `arbitration_cycles` here; `o` is a port id < radix
            self.arb_wait[o] += 1;
            return;
        }
        // ssq-lint: allow(unchecked-hot-arith) — `arb_wait` is sized num_ports at construction; `o` is a port id < radix
        self.arb_wait[o] = 0;
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
        // ssq-lint: allow(unchecked-hot-arith) — per-output channel Vec sized num_ports at construction; `o` is a port id < radix
        self.channels[o].commit(InputId::new(input), class, len, arb_latency);
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

    /// Materializes one class's request vector from its requester word,
    /// in ascending input order.
    //
    // Mask bits are port ids < radix indexing the radix-sized port Vec;
    // the expect fires only on a request word desynced from the queues,
    // an invariant breach the debug cross-check pins every step.
    // ssq-lint: allow(panic-freedom-reachability)
    pub(super) fn requests_from_mask(
        &self,
        output: OutputId,
        class: TrafficClass,
        mask: u64,
    ) -> Vec<Request> {
        PortSet::from_bits(mask)
            .iter()
            .map(|i| {
                // ssq-lint: allow(unchecked-hot-arith) — port Vec sized num_ports at construction; mask bits are port ids < radix by the sync invariant
                let head = self.ports[i]
                    .head(class, output)
                    // ssq-lint: allow(no-unwrap) — a set request bit with no matching head means the incremental mask desynced from the queues: an invariant breach, not a recoverable condition
                    .expect("request word set without a matching queue head");
                Request::new(i, head.spec().len_flits())
            })
            .collect()
    }

    /// Emits the [`EventKind::Decision`] of a committed arbitration.
    fn trace_decision(
        &mut self,
        now: Cycle,
        o: usize,
        class: TrafficClass,
        contenders: usize,
        winner: usize,
    ) {
        self.tracer.emit(|| Event {
            cycle: now.value(),
            kind: EventKind::Decision {
                output: wire(o),
                class,
                contenders: contenders as u32,
                winner: wire(winner),
            },
        });
    }

    /// The one arbitration of an idle `output` this cycle: builds the
    /// per-class request sets from the requester words, calls the
    /// selected round's arbiter once, runs the fabric cross-checks and
    /// fault detectors against the post-arbitration state, and emits
    /// the decision's trace events. Returns the committed
    /// `(input, class)`.
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
        let gl = self.requests_from_mask(output, TrafficClass::GuaranteedLatency, glm);
        let gb = self.requests_from_mask(output, TrafficClass::GuaranteedBandwidth, gbm);
        let be = self.requests_from_mask(output, TrafficClass::BestEffort, bem);
        match self.config.policy() {
            Policy::LrgOnly => {
                // Class-blind LRG over every requester; a winner sends
                // its highest-class head.
                let mut requesters: Vec<usize> = Vec::new();
                for r in gl.iter().chain(&gb).chain(&be) {
                    if !requesters.contains(&r.input()) {
                        requesters.push(r.input());
                    }
                }
                let reqs: Vec<Request> =
                    requesters.into_iter().map(|i| Request::new(i, 1)).collect();
                // ssq-lint: allow(unchecked-hot-arith) — per-output arbiter Vec sized num_ports at construction; `o` is a port id < radix
                let w = self.flat_lrg[o].arbitrate(now, &reqs)?;
                let class = self.best_class_of(w, output);
                self.trace_decision(now, o, class, reqs.len(), w);
                Some((w, class))
            }
            Policy::FourLevel => {
                // GL -> level 3, GB -> level 1, BE -> level 0; per input,
                // only its highest-class head competes.
                let mut reqs: Vec<Request> = Vec::new();
                for (class_reqs, level) in [(&gl, 3), (&gb, 1), (&be, 0)] {
                    for r in class_reqs {
                        if !reqs.iter().any(|q| q.input() == r.input()) {
                            reqs.push(Request::new(r.input(), r.len_flits()).with_level(level));
                        }
                    }
                }
                // ssq-lint: allow(unchecked-hot-arith) — per-output arbiter Vec sized num_ports at construction; `o` is a port id < radix
                let w = self.four_level[o].arbitrate(now, &reqs)?;
                let class = reqs
                    .iter()
                    .find(|r| r.input() == w)
                    .map(|r| match r.level() {
                        3 => TrafficClass::GuaranteedLatency,
                        1 => TrafficClass::GuaranteedBandwidth,
                        _ => TrafficClass::BestEffort,
                    })?;
                self.trace_decision(now, o, class, reqs.len(), w);
                Some((w, class))
            }
            _ => self.arbitrate_strict_priority(output, now, gl, gb, be),
        }
    }

    /// The strict class-priority ladder: GL > GB > policed (or demoted)
    /// GL > BE. A demoted GL class (lost lane, DESIGN.md §8) keeps
    /// service but no longer preempts GB.
    //
    // `o` < radix indexes the radix-sized per-output Vecs; the two
    // assert_eq! are the fabric cross-checks `fabric_checked` runs.
    // ssq-lint: allow(panic-freedom-reachability)
    fn arbitrate_strict_priority(
        &mut self,
        output: OutputId,
        now: Cycle,
        gl: Vec<Request>,
        mut gb: Vec<Request>,
        be: Vec<Request>,
    ) -> Option<(usize, TrafficClass)> {
        let o = output.index();
        // ssq-lint: allow(unchecked-hot-arith) — per-output policer Vec sized num_ports at construction; `o` is a port id < radix
        let policed = self.gl_policers[o].policed();
        let demoted = self.faultctl.gl_demoted(o);
        if policed && !gl.is_empty() {
            self.counters.gl_policed_cycles = self.counters.gl_policed_cycles.saturating_add(1);
            let backlog = gl.len();
            self.tracer.emit(|| Event {
                cycle: now.value(),
                kind: EventKind::GlPoliced {
                    output: wire(o),
                    backlog: backlog as u32,
                },
            });
        }
        // Demotion means GL lost its dedicated lane, not its service:
        // demoted GL competes *inside* the GB round (riding its
        // crosspoint's default vtick) instead of waiting below it.
        let mut demoted_gl: Vec<usize> = Vec::new();
        if demoted {
            for r in &gl {
                if !gb.iter().any(|q| q.input() == r.input()) {
                    demoted_gl.push(r.input());
                    gb.push(Request::new(r.input(), r.len_flits()));
                }
            }
        }
        let gb_class = |w: usize| {
            if demoted_gl.contains(&w) {
                TrafficClass::GuaranteedLatency
            } else {
                TrafficClass::GuaranteedBandwidth
            }
        };

        if !gl.is_empty() && !policed && !demoted {
            let circuit = self.fabric_decision(o, &gl, &[]);
            // ssq-lint: allow(unchecked-hot-arith) — per-output arbiter Vec sized num_ports at construction; `o` is a port id < radix
            let w = self.gl_lrg[o].arbitrate(now, &gl)?;
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
            let len = gl.iter().find(|r| r.input() == w)?.len_flits();
            // ssq-lint: allow(unchecked-hot-arith) — per-output policer Vec sized num_ports at construction; `o` is a port id < radix
            self.gl_policers[o].charge(len);
            self.trace_decision(now, o, TrafficClass::GuaranteedLatency, gl.len(), w);
            return Some((w, TrafficClass::GuaranteedLatency));
        }
        if !gb.is_empty() && self.faultctl.lrg_fallback(o) {
            // Degraded mode: the GB thermometer lanes are gone, so
            // arbitrate by pure LRG. SSVC state is neither consulted nor
            // advanced, and the fabric cross-check is off (the circuit
            // no longer models the grant).
            // ssq-lint: allow(unchecked-hot-arith) — per-output arbiter Vec sized num_ports at construction; `o` is a port id < radix
            let w = self.flat_lrg[o].arbitrate(now, &gb)?;
            let class = gb_class(w);
            self.trace_decision(now, o, class, gb.len(), w);
            return Some((w, class));
        }
        if !gb.is_empty() {
            let circuit = self.fabric_decision(o, &[], &gb);
            // Snapshot the MSB lanes before the arbitration mutates
            // auxVC state, so inhibit events carry the values the losers
            // were actually defeated with.
            let watch = !self.tracer.is_off();
            // ssq-lint: allow(unchecked-hot-arith) — per-output engine Vec sized num_ports at construction; `o` is a port id < radix
            let (msbs, saturations_before): (Vec<(usize, u64)>, u64) = match &self.gb_engines[o] {
                GbEngine::Ssvc(ssvc) if watch => (
                    gb.iter()
                        .map(|r| (r.input(), ssvc.msb_value(r.input())))
                        .collect(),
                    ssvc.saturation_count(),
                ),
                _ => (Vec::new(), 0),
            };
            // ssq-lint: allow(unchecked-hot-arith) — per-output engine Vec sized num_ports at construction; `o` is a port id < radix
            let w = self.gb_engines[o].as_arbiter()?.arbitrate(now, &gb)?;
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
                    for r in &gb {
                        let i = r.input();
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
                    let winner_msb = msbs.iter().find(|&&(i, _)| i == w).map_or(0, |&(_, m)| m);
                    let aux = ssvc.aux_vc(w);
                    let saturated = ssvc.saturation_count() > saturations_before;
                    for &(i, msb) in msbs.iter().filter(|&&(i, _)| i != w) {
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
            let w = self.gl_lrg[o].arbitrate(now, &gl)?;
            let len = gl.iter().find(|r| r.input() == w)?.len_flits();
            // ssq-lint: allow(unchecked-hot-arith) — per-output policer Vec sized num_ports at construction; `o` is a port id < radix
            self.gl_policers[o].charge(len);
            self.trace_decision(now, o, TrafficClass::GuaranteedLatency, gl.len(), w);
            return Some((w, TrafficClass::GuaranteedLatency));
        }
        // ssq-lint: allow(unchecked-hot-arith) — per-output arbiter Vec sized num_ports at construction; `o` is a port id < radix
        let w = self.be_lrg[o].arbitrate(now, &be)?;
        self.trace_decision(now, o, TrafficClass::BestEffort, be.len(), w);
        Some((w, TrafficClass::BestEffort))
    }
}
