//! The correctness gate.
//!
//! Each simulation first runs once, untimed, on the dense [`Runner`]
//! with an observer that keeps the GB guarantee ledger
//! ([`GuaranteeLog`]) (the *reference run*). Its state digest
//! is what every timed run — fast and dense engine alike — must then
//! reproduce bit for bit. The reference run also checks preflight, flit
//! conservation, the GL bound and the GB guarantees.

use ssq_core::QosSwitch;
use ssq_net::Fabric;
use ssq_sim::Runner;
use ssq_stats::{FlowMetrics, MetricsMatrix};
use ssq_types::{FlowId, OutputId, TrafficClass};

use crate::metrics::{
    gb_tolerance, gl_wait_bound_ratio, median, pooled_percentile, GuaranteeLog, Pooled,
};
use crate::workload::{Batch, FabricSim, SwitchSim};

/// A digest of every simulated statistic of a switch: the event
/// counters, per-flow delivered packets/flits/latency (mean bits, max,
/// p50, p99) for each class, and each output's GL wait maximum.
#[must_use]
pub fn switch_digest(sw: &QosSwitch) -> Vec<u64> {
    let c = sw.counters();
    let mut d = vec![
        c.offered_packets,
        c.accepted_packets,
        c.dropped_packets,
        c.demoted_packets,
        c.delivered_packets,
        c.delivered_flits,
        c.gl_policed_cycles,
        c.chained_packets,
        c.fault_injections,
        c.fault_retries,
        c.guarantees_revoked,
    ];
    for (tag, m) in [
        (0, sw.be_metrics()),
        (1, sw.gb_metrics()),
        (2, sw.gl_metrics()),
    ] {
        for f in m.iter().filter(|f| f.packets() > 0) {
            d.extend([
                tag,
                f.flow().input().index() as u64,
                f.flow().output().index() as u64,
                f.packets(),
                f.flits(),
                f.mean_latency().to_bits(),
                f.max_latency().unwrap_or(0),
                f.latency_percentile(50.0).unwrap_or(0),
                f.latency_percentile(99.0).unwrap_or(0),
            ]);
        }
    }
    for o in 0..sw.config().geometry().radix() {
        let h = sw.gl_wait_histogram(OutputId::new(o));
        d.extend([h.count(), h.max().unwrap_or(0)]);
    }
    d
}

/// A digest of a fabric: fabric counters, per-flow end-to-end stats,
/// every node's [`switch_digest`] and the hop-event log length.
#[must_use]
pub fn fabric_digest(fab: &Fabric) -> Vec<u64> {
    let c = fab.counters();
    let mut d = vec![
        c.injected_packets,
        c.delivered_packets,
        c.delivered_flits,
        c.dropped_packets,
        c.retransmits,
        c.reroutes,
        c.revocations,
        c.demoted_packets,
        c.source_blocked,
        fab.events().len() as u64,
    ];
    for f in 0..fab.flow_specs().len() {
        let s = fab.flow_stats(f);
        d.extend([
            s.injected_packets,
            s.delivered_packets,
            s.delivered_flits,
            s.latency_sum,
            s.latency_max,
            s.lost_packets,
        ]);
    }
    for n in 0..fab.node_count() {
        d.extend(switch_digest(fab.node(n)));
    }
    d
}

/// What the reference run of one simulation established.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The digest every timed run must reproduce.
    pub digest: Vec<u64>,
    /// Measured cycles.
    pub measured: u64,
    /// Flits delivered in the measured phase (end to end for a fabric).
    pub delivered_flits: u64,
    /// The simulation's block maxima of windowed GB shortfall.
    pub gb_shortfall: Vec<f64>,
    /// `gl_wait_bound_ratio` of this simulation.
    pub gl_ratio: f64,
    /// Why the simulation failed the gate (empty when it passed).
    pub failures: Vec<String>,
}

/// The batch-level simulated metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Simulated {
    /// Delivered flits per measured cycle.
    pub accepted_flits_per_cycle: f64,
    /// Median over blocks of the worst windowed GB shortfall
    /// (flits/cycle).
    pub gb_shortfall_max: f64,
    /// Worst GL wait over its bound.
    pub gl_wait_bound_ratio: f64,
    /// p99 packet latency over every delivered packet.
    pub latency_p99: Pooled,
}

fn all_flows(sw: &QosSwitch) -> impl Iterator<Item = &FlowMetrics> {
    [sw.be_metrics(), sw.gb_metrics(), sw.gl_metrics()]
        .into_iter()
        .flat_map(MetricsMatrix::iter)
}

/// The GB guarantees of a set of switches: one entry per reserved
/// `(node, input, output)`, read from each switch's own reservation
/// table, with its reserved share in flits/cycle — the reserved rate
/// times the packet's share of its arbitration slot
/// (`len / (len + arbitration cycles)`).
struct Guarantees {
    flows: Vec<(usize, FlowId)>,
    log: GuaranteeLog,
}

impl Guarantees {
    fn of<'a>(switches: impl Iterator<Item = &'a QosSwitch>) -> Self {
        let mut flows = Vec::new();
        let mut reserved = Vec::new();
        for (n, sw) in switches.enumerate() {
            let arb = sw.config().policy().arbitration_cycles();
            for (i, o, r) in sw.config().reservations().iter_gb() {
                let len = r.packet_flits();
                flows.push((n, FlowId::new(i, o)));
                reserved.push(r.rate().value() * len as f64 / (len + arb) as f64);
            }
        }
        Guarantees {
            flows,
            log: GuaranteeLog::new(reserved),
        }
    }

    /// Accounts one measured cycle.
    fn cycle<'s>(&mut self, node: impl Fn(usize) -> &'s QosSwitch) {
        let flows = &self.flows;
        self.log.cycle(|f| {
            let (n, flow) = flows[f];
            node(n)
                .port(flow.input())
                .occupancy(TrafficClass::GuaranteedBandwidth, flow.output())
                > 0
        });
    }

    /// Flow `flow` of node 0 offered `flits` (ignored for an
    /// unreserved flow: its packets are demoted to BE at injection).
    fn offer(&mut self, flow: FlowId, flits: u64) {
        if let Some(f) = self.flows.iter().position(|&(n, g)| n == 0 && g == flow) {
            self.log.offer(f, flits);
        }
    }

    /// The opening snapshot: measurement resets every switch's per-flow
    /// metrics, so nothing has been delivered yet.
    fn start(&mut self, cycle: u64) {
        self.log.snap(cycle, vec![0; self.flows.len()]);
    }

    fn snap<'s>(&mut self, cycle: u64, node: impl Fn(usize) -> &'s QosSwitch) {
        let delivered = self
            .flows
            .iter()
            .map(|&(n, flow)| node(n).gb_metrics().flow(flow).flits())
            .collect();
        self.log.snap(cycle, delivered);
    }
}

/// Reference run of a single-switch simulation; returns the finished
/// switch too so batch metrics can pool its flows.
///
/// # Errors
///
/// Returns a message when the model cannot be built (including
/// preflight errors).
pub fn reference_switch(sim: &SwitchSim) -> Result<(Reference, QosSwitch), String> {
    let mut sw = sim.build()?.model;
    let mut ledger = Guarantees::of(std::iter::once(&sw));
    let warm = sim.schedule.warmup().value();
    let mut replay = sim.injectors();
    let mut offered_packets = 0u64;
    Runner::new(sim.schedule).run_observed(&mut sw, |m, now| {
        let t = now.value();
        for inj in &mut replay {
            let Some(intent) = inj.poll(now) else {
                continue;
            };
            if t < warm {
                continue;
            }
            offered_packets += 1;
            if inj.class() == TrafficClass::GuaranteedBandwidth {
                ledger.offer(FlowId::new(inj.input(), intent.output), intent.len_flits);
            }
        }
        if t + 1 == warm {
            ledger.start(warm);
        }
        if t >= warm {
            ledger.cycle(|_| m);
            if (t + 1 - warm).is_multiple_of(sim.window) {
                ledger.snap(t + 1, |_| m);
            }
        }
    });

    let mut failures = Vec::new();
    let c = sw.counters();
    let flits: u64 = [sw.be_metrics(), sw.gb_metrics(), sw.gl_metrics()]
        .iter()
        .map(|m| m.total_flits())
        .sum();
    let packets: u64 = [sw.be_metrics(), sw.gb_metrics(), sw.gl_metrics()]
        .iter()
        .map(|m| m.total_packets())
        .sum();
    if flits != c.delivered_flits || packets != c.delivered_packets {
        failures.push(format!(
            "{}: conservation: per-flow metrics hold {packets} packets / {flits} flits, \
             counters {} / {}",
            sim.label, c.delivered_packets, c.delivered_flits
        ));
    }
    if offered_packets != c.offered_packets {
        failures.push(format!(
            "{}: conservation: sources generated {offered_packets} packets, switch counted {}",
            sim.label, c.offered_packets
        ));
    }
    let gl_worst = (0..sim.radix)
        .filter_map(|o| sw.gl_wait_histogram(OutputId::new(o)).max())
        .max()
        .unwrap_or(0);
    let gl_ratio = gl_wait_bound_ratio(gl_worst, sim.gl_bound);
    guarantee_failures(&sim.label, &ledger.log, gl_ratio, &mut failures);
    let reference = Reference {
        digest: switch_digest(&sw),
        measured: sim.schedule.measure().value(),
        delivered_flits: c.delivered_flits,
        gb_shortfall: ledger.log.block_maxima(sim.block),
        gl_ratio,
        failures,
    };
    Ok((reference, sw))
}

fn guarantee_failures(label: &str, log: &GuaranteeLog, gl_ratio: f64, failures: &mut Vec<String>) {
    if gl_ratio > 1.0 {
        failures.push(format!(
            "{label}: GL wait exceeds its Eq. 1 bound (ratio {gl_ratio})"
        ));
    }
    let short = log.whole_run();
    let allowed = gb_tolerance(log.span());
    if short > allowed {
        failures.push(format!(
            "{label}: a GB flow fell {short} flits/cycle short of its guarantee \
             (tolerance {allowed})"
        ));
    }
}

/// Reference run of the fabric; returns the finished fabric too. GB
/// guarantees are accounted per hop: every node's reserved
/// `(input, output)` pairs, as the fabric installed them along each
/// flow's route.
///
/// # Errors
///
/// Returns a message when the fabric cannot be built.
pub fn reference_fabric(sim: &FabricSim) -> Result<(Reference, Fabric), String> {
    let mut fab = sim.build()?.model;
    let mut ledger = Guarantees::of((0..fab.node_count()).map(|n| fab.node(n)));
    // The metric's ledger is end to end: each GB flow's injected flits
    // against its delivered flits, at the reserved share of one hop.
    let gb: Vec<usize> = (0..sim.flows.len())
        .filter(|&f| sim.flows[f].class == TrafficClass::GuaranteedBandwidth)
        .collect();
    let mut e2e = GuaranteeLog::new(
        gb.iter()
            .map(|&f| {
                let len = sim.flows[f].len_flits;
                sim.flows[f].rate * len as f64 / (len + 1) as f64
            })
            .collect(),
    );
    let e2e_snap = |log: &mut GuaranteeLog, m: &Fabric, cycle: u64| {
        for (k, &f) in gb.iter().enumerate() {
            log.set_offered(k, m.flow_stats(f).injected_packets * sim.flows[f].len_flits);
        }
        log.snap(
            cycle,
            gb.iter()
                .map(|&f| m.flow_stats(f).delivered_flits)
                .collect(),
        );
    };
    let warm = sim.schedule.warmup().value();
    let mut start_delivered = 0;
    Runner::new(sim.schedule).run_observed(&mut fab, |m, now| {
        let t = now.value();
        if t + 1 == warm {
            start_delivered = m.counters().delivered_flits;
            ledger.start(warm);
            e2e_snap(&mut e2e, m, warm);
        }
        if t >= warm {
            ledger.cycle(|n| m.node(n));
            if (t + 1 - warm).is_multiple_of(sim.window) {
                ledger.snap(t + 1, |n| m.node(n));
                e2e_snap(&mut e2e, m, t + 1);
            }
        }
    });
    let mut failures = Vec::new();
    let c = fab.counters();
    if c.injected_packets
        != c.delivered_packets + c.dropped_packets + fab.in_flight_packets() as u64
    {
        failures.push(format!(
            "fabric: conservation: injected {} != delivered {} + dropped {} + in flight {}",
            c.injected_packets,
            c.delivered_packets,
            c.dropped_packets,
            fab.in_flight_packets()
        ));
    }
    let per_flow: u64 = (0..sim.flows.len())
        .map(|f| fab.flow_stats(f).delivered_flits)
        .sum();
    if per_flow != c.delivered_flits {
        failures.push(format!(
            "fabric: conservation: flows delivered {per_flow} flits, fabric counted {}",
            c.delivered_flits
        ));
    }
    let gl_ratio = sim
        .flows
        .iter()
        .enumerate()
        .filter(|(_, f)| f.class == TrafficClass::GuaranteedLatency)
        .map(|(i, _)| gl_wait_bound_ratio(fab.flow_stats(i).latency_max, sim.gl_budget(i)))
        .fold(0.0, f64::max);
    guarantee_failures("fabric", &ledger.log, gl_ratio, &mut failures);
    let reference = Reference {
        digest: fabric_digest(&fab),
        measured: sim.schedule.measure().value(),
        delivered_flits: c.delivered_flits - start_delivered,
        gb_shortfall: e2e.block_maxima(sim.block),
        gl_ratio,
        failures,
    };
    Ok((reference, fab))
}

/// Runs every reference run of a batch and derives the simulated
/// metrics.
///
/// # Errors
///
/// Returns a message when a model cannot be built.
pub fn reference_batch(batch: &Batch) -> Result<(Vec<Reference>, Simulated), String> {
    let (refs, p99) = match batch {
        Batch::Switch(sims) => {
            let mut refs = Vec::new();
            let mut switches = Vec::new();
            for sim in sims {
                let (r, sw) = reference_switch(sim)?;
                refs.push(r);
                switches.push(sw);
            }
            let flows: Vec<&FlowMetrics> = switches.iter().flat_map(all_flows).collect();
            (refs, pooled_percentile(&flows, 99.0))
        }
        Batch::Fabric(sim) => {
            let (r, fab) = reference_fabric(sim)?;
            // End-to-end latency: packets keep their creation cycle
            // across hops, so each node's terminal ports (4-7) record
            // source-to-sink latency.
            let nodes: Vec<&QosSwitch> = (0..fab.node_count()).map(|n| fab.node(n)).collect();
            let flows: Vec<&FlowMetrics> = nodes
                .iter()
                .flat_map(|sw| all_flows(sw))
                .filter(|f| f.flow().output().index() >= 4)
                .collect();
            let p99 = pooled_percentile(&flows, 99.0);
            (vec![r], p99)
        }
    };
    let measured: u64 = refs.iter().map(|r| r.measured).sum();
    let delivered: u64 = refs.iter().map(|r| r.delivered_flits).sum();
    let simulated = Simulated {
        accepted_flits_per_cycle: delivered as f64 / measured as f64,
        gb_shortfall_max: median(
            &refs
                .iter()
                .flat_map(|r| r.gb_shortfall.iter().copied())
                .collect::<Vec<_>>(),
        ),
        gl_wait_bound_ratio: refs.iter().map(|r| r.gl_ratio).fold(0.0, f64::max),
        latency_p99: p99.unwrap_or(Pooled {
            value: 0,
            samples: 0,
        }),
    };
    Ok((refs, simulated))
}
