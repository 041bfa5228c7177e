//! The four workloads and the builders of their models.
//!
//! Each workload is a batch of simulations with fixed simulated-cycle
//! schedules. Load comes from sources inside the simulation whose seeds
//! all derive from the benchmark seed (SplitMix64 of the seed and a
//! per-source stream index), so a seed fixes the whole arrival stream
//! and the simulated results.

use std::time::Duration;

use ssq_arbiter::CounterPolicy;
use ssq_check::Preflight;
use ssq_core::gl::{latency_bound, GlScenario};
use ssq_core::{Policy, QosSwitch, SwitchConfig};
use ssq_net::{compute_routes, Fabric, FlowSpec, LinkDiscipline, Topology};
use ssq_sim::Schedule;
use ssq_traffic::{
    Bernoulli, FixedDest, HotspotDest, Injector, OnOffBursty, Periodic, Saturating, TrafficSource,
    UniformDest,
};
use ssq_types::{bounds, Cycles, Geometry, InputId, OutputId, Rate, TrafficClass};

use crate::host::CpuTimer;

/// The benchmark's workloads. Names are stable identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64×64 SSVC switch, 64 saturated GB flows on one hot output,
    /// saturated BE background, one GL source.
    R64Hotspot,
    /// The Fig. 5 rig under four GB policies × two loads, with a
    /// 4,096-event flight-recorder ring attached.
    R8PoliciesRecorded,
    /// 16×16 switch at 5 % aligned periodic load: idle skipping.
    R16PeriodicSparse,
    /// 3×3 credit-linked mesh of radix-8 switches.
    FabricMeshCredit,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::R64Hotspot,
        Workload::R8PoliciesRecorded,
        Workload::R16PeriodicSparse,
        Workload::FabricMeshCredit,
    ];

    /// The workload's stable name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Workload::R64Hotspot => "r64-hotspot",
            Workload::R8PoliciesRecorded => "r8-policies-recorded",
            Workload::R16PeriodicSparse => "r16-periodic-sparse",
            Workload::FabricMeshCredit => "fabric-mesh-credit",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's simulations for `seed`. `tiny` shrinks every
    /// schedule to a few hundred cycles for tests.
    #[must_use]
    pub fn batch(self, seed: u64, tiny: bool) -> Batch {
        match self {
            Workload::R64Hotspot => Batch::Switch(vec![r64_hotspot(seed, tiny)]),
            Workload::R8PoliciesRecorded => Batch::Switch(r8_policies(seed, tiny)),
            Workload::R16PeriodicSparse => Batch::Switch(vec![r16_periodic(seed, tiny)]),
            Workload::FabricMeshCredit => Batch::Fabric(fabric_mesh(seed, tiny)),
        }
    }
}

/// A workload's simulations.
#[derive(Debug, Clone)]
pub enum Batch {
    /// Single-switch simulations, run one after another.
    Switch(Vec<SwitchSim>),
    /// One multi-hop fabric simulation.
    Fabric(FabricSim),
}

/// SplitMix64 of `seed` and a stream index: the per-source seed.
#[must_use]
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An arrival process, as data so it can be rebuilt identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// A packet every cycle.
    Saturating { len: u64 },
    /// Bernoulli arrivals at `rate` flits/cycle.
    Bernoulli { rate: f64, len: u64, seed: u64 },
    /// On/off bursts: `rate_on` while on, 0.4 % flip probability.
    OnOff { rate_on: f64, len: u64, seed: u64 },
    /// One packet every `interval` cycles at `phase`.
    Periodic { interval: u64, phase: u64, len: u64 },
}

/// A destination pattern, as data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dest {
    /// Always the same output.
    Fixed(usize),
    /// Uniform over every output but `hot`.
    AvoidHot { hot: usize, seed: u64 },
    /// Uniform over all outputs.
    Uniform { seed: u64 },
}

/// One injector of a single-switch simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceSpec {
    /// The input port it feeds.
    pub input: usize,
    /// The class of its packets.
    pub class: TrafficClass,
    /// Its arrival process.
    pub arrivals: Arrivals,
    /// Its destination pattern.
    pub dest: Dest,
}

impl SourceSpec {
    /// Builds the injector; the same spec always yields the same
    /// arrival stream.
    #[must_use]
    pub fn injector(&self, radix: usize) -> Injector {
        let source: Box<dyn TrafficSource + Send + Sync> = match self.arrivals {
            Arrivals::Saturating { len } => Box::new(Saturating::new(len)),
            Arrivals::Bernoulli { rate, len, seed } => Box::new(Bernoulli::new(rate, len, seed)),
            Arrivals::OnOff { rate_on, len, seed } => {
                Box::new(OnOffBursty::new(rate_on, len, 0.004, 0.004, seed))
            }
            Arrivals::Periodic {
                interval,
                phase,
                len,
            } => Box::new(Periodic::new(interval, phase, len)),
        };
        let dest: Box<dyn ssq_traffic::DestinationPattern + Send + Sync> = match self.dest {
            Dest::Fixed(o) => Box::new(FixedDest::new(OutputId::new(o))),
            Dest::AvoidHot { hot, seed } => {
                Box::new(HotspotDest::new(radix, OutputId::new(hot), 0.0, seed))
            }
            Dest::Uniform { seed } => Box::new(UniformDest::new(radix, seed)),
        };
        Injector::new(source, dest, self.class).for_input(InputId::new(self.input))
    }
}

/// One single-switch simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchSim {
    /// Short label (policy and load for the r8 batch).
    pub label: String,
    /// Switch radix.
    pub radix: usize,
    /// Bus width in bits.
    pub bus_bits: usize,
    /// GB arbitration policy.
    pub policy: Policy,
    /// Significant auxVC bits, when overridden.
    pub sig_bits: Option<u32>,
    /// GB reservations `(input, output, rate, packet flits)`.
    pub gb: Vec<(usize, usize, f64, u64)>,
    /// GL allocations `(output, rate)`.
    pub gl: Vec<(usize, f64)>,
    /// The injectors.
    pub sources: Vec<SourceSpec>,
    /// Warm-up and measured cycles.
    pub schedule: Schedule,
    /// Flight-recorder ring capacity, when one is attached.
    pub ring: Option<usize>,
    /// The Eq. 1 GL wait bound the GL flows are held to.
    pub gl_bound: u64,
    /// Window length (cycles) of the GB shortfall accounting.
    pub window: u64,
    /// Windows per block of the GB shortfall accounting.
    pub block: usize,
}

/// What building a model produced besides the model.
#[derive(Debug)]
pub struct Built<M> {
    /// The ready model.
    pub model: M,
    /// CPU time from config build to ready model.
    pub setup: Duration,
}

impl SwitchSim {
    /// The switch configuration with every reservation installed.
    ///
    /// # Errors
    ///
    /// Returns the configuration error as text.
    pub fn config(&self) -> Result<SwitchConfig, String> {
        let geometry = Geometry::new(self.radix, self.bus_bits).map_err(|e| e.to_string())?;
        let mut builder = SwitchConfig::builder(geometry)
            .policy(self.policy)
            .gb_buffer_flits(16)
            .be_buffer_flits(16);
        if let Some(bits) = self.sig_bits {
            builder = builder.sig_bits(bits);
        }
        let mut config = builder.build().map_err(|e| e.to_string())?;
        for &(i, o, rate, len) in &self.gb {
            let rate = Rate::new(rate).map_err(|e| e.to_string())?;
            config
                .reservations_mut()
                .reserve_gb(InputId::new(i), OutputId::new(o), rate, len)
                .map_err(|e| e.to_string())?;
        }
        for &(o, rate) in &self.gl {
            let rate = Rate::new(rate).map_err(|e| e.to_string())?;
            config
                .reservations_mut()
                .reserve_gl(OutputId::new(o), rate)
                .map_err(|e| e.to_string())?;
        }
        Ok(config)
    }

    /// The injectors, freshly built from their specs.
    #[must_use]
    pub fn injectors(&self) -> Vec<Injector> {
        self.sources
            .iter()
            .map(|s| s.injector(self.radix))
            .collect()
    }

    /// Set-up: config build, preflight, `QosSwitch::new`, injectors and
    /// the recorder ring.
    ///
    /// # Errors
    ///
    /// Returns a message when the config is invalid or preflight
    /// reports an error.
    pub fn build(&self) -> Result<Built<QosSwitch>, String> {
        let start = CpuTimer::start();
        let config = self.config()?;
        let report = config.analyze();
        if report.has_errors() {
            return Err(format!(
                "{}: preflight reported errors:\n{report}",
                self.label
            ));
        }
        let mut switch = QosSwitch::new(config).map_err(|e| e.to_string())?;
        for injector in self.injectors() {
            switch.add_injector(injector);
        }
        if let Some(capacity) = self.ring {
            switch.tracer_mut().attach_ring(capacity);
        }
        Ok(Built {
            model: switch,
            setup: start.elapsed(),
        })
    }

    /// Total simulated cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.schedule.total().value()
    }
}

/// The multi-hop fabric simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricSim {
    /// Mesh rows and columns.
    pub mesh: (usize, usize),
    /// The end-to-end flows.
    pub flows: Vec<FlowSpec>,
    /// The fabric's own seed.
    pub seed: u64,
    /// Warm-up and measured cycles.
    pub schedule: Schedule,
    /// Window length (cycles) of the GB shortfall accounting.
    pub window: u64,
    /// Windows per block of the GB shortfall accounting.
    pub block: usize,
}

impl FabricSim {
    /// The topology.
    #[must_use]
    pub fn topology(&self) -> Topology {
        Topology::mesh(self.mesh.0, self.mesh.1, LinkDiscipline::Credit)
    }

    /// Set-up: topology, `Fabric::new` (which builds and preflights
    /// every node switch) and the SSQ013 fabric preflight.
    ///
    /// # Errors
    ///
    /// Returns a message when a node cannot be built or preflight
    /// reports an error.
    pub fn build(&self) -> Result<Built<Fabric>, String> {
        let start = CpuTimer::start();
        let fabric =
            Fabric::new(self.topology(), &self.flows, self.seed).map_err(|e| e.to_string())?;
        let report = fabric.preflight();
        if report.has_errors() {
            return Err(format!("fabric preflight reported errors:\n{report}"));
        }
        Ok(Built {
            model: fabric,
            setup: start.elapsed(),
        })
    }

    /// Total simulated cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.schedule.total().value()
    }

    /// Hops on flow `f`'s healthy route.
    #[must_use]
    pub fn hops(&self, f: usize) -> u64 {
        let topo = self.topology();
        let routes = compute_routes(
            &topo,
            &vec![true; topo.links.len()],
            &vec![true; topo.nodes],
        );
        let (mut node, dest) = (self.flows[f].src, self.flows[f].dest);
        let mut hops = 0;
        while node != dest {
            let Some(l) = routes[node][dest] else { break };
            node = topo.links[l].dst;
            hops += 1;
        }
        hops
    }

    /// The summed per-hop Eq. 1 budget of GL flow `f`, as in
    /// `examples/fabric_adherence.rs`: each switch on the path (source
    /// included) owes its Eq. 1 bound and each wire adds serialization
    /// plus propagation.
    #[must_use]
    pub fn gl_budget(&self, f: usize) -> u64 {
        let len = self.flows[f].len_flits;
        let hops = self.hops(f);
        let per_switch = bounds::gl_latency_bound(len, len, 1, 16);
        let per_wire = len.div_ceil(8) + 1;
        (hops + 1) * per_switch + hops * per_wire
    }
}

/// Shortfall window length; tiny schedules use three 200-cycle windows.
fn window(cycles: u64, tiny: bool) -> u64 {
    if tiny {
        200
    } else {
        cycles
    }
}

/// Windows per shortfall block; tiny schedules use one block.
fn block(windows: usize, tiny: bool) -> usize {
    if tiny {
        3
    } else {
        windows
    }
}

fn schedule(warmup: u64, measure: u64, tiny: bool) -> Schedule {
    if tiny {
        Schedule::new(Cycles::new(200), Cycles::new(600))
    } else {
        Schedule::new(Cycles::new(warmup), Cycles::new(measure))
    }
}

/// The `radix64` campaign rig.
fn r64_hotspot(seed: u64, tiny: bool) -> SwitchSim {
    const RADIX: usize = 64;
    const HOT: usize = 0;
    const LEN: u64 = 8;
    // Distinct reservations summing to 95 %: proportional to 1 + i/63.
    let raw: Vec<f64> = (0..RADIX).map(|i| 1.0 + i as f64 / 63.0).collect();
    let total: f64 = raw.iter().sum();
    let gb = raw
        .iter()
        .enumerate()
        .map(|(i, w)| (i, HOT, 0.95 * w / total, LEN))
        .collect();
    let mut sources = Vec::new();
    for i in 0..RADIX {
        sources.push(SourceSpec {
            input: i,
            class: TrafficClass::GuaranteedBandwidth,
            arrivals: Arrivals::Saturating { len: LEN },
            dest: Dest::Fixed(HOT),
        });
        // Input 63 hosts the GL source and carries no background, so
        // its GL packets never wait behind their own input's BE
        // transmissions (outside Eq. 1's scope).
        if i != RADIX - 1 {
            sources.push(SourceSpec {
                input: i,
                class: TrafficClass::BestEffort,
                arrivals: Arrivals::Saturating { len: 4 },
                dest: Dest::AvoidHot {
                    hot: HOT,
                    seed: derive(seed, 100 + i as u64),
                },
            });
        }
    }
    sources.push(SourceSpec {
        input: RADIX - 1,
        class: TrafficClass::GuaranteedLatency,
        arrivals: Arrivals::Periodic {
            interval: 499,
            phase: derive(seed, 1) % 499,
            len: 1,
        },
        dest: Dest::Fixed(HOT),
    });
    SwitchSim {
        label: "r64".to_owned(),
        radix: RADIX,
        bus_bits: 256,
        policy: Policy::Ssvc(CounterPolicy::SubtractRealClock),
        sig_bits: None,
        gb,
        gl: vec![(HOT, 0.05)],
        sources,
        schedule: schedule(2_000, 18_000, tiny),
        ring: None,
        gl_bound: latency_bound(GlScenario::new(LEN, 1, 1, 4)),
        window: window(2_000, tiny),
        block: block(3, tiny),
    }
}

/// The Fig. 5 reservation vector.
const FIG5_RATES: [f64; 8] = [0.4, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05];

/// The four GB policies of Fig. 5.
const FIG5_POLICIES: [(Policy, &str); 4] = [
    (Policy::ExactVirtualClock, "vc"),
    (Policy::Ssvc(CounterPolicy::SubtractRealClock), "subtract"),
    (Policy::Ssvc(CounterPolicy::Halve), "halve"),
    (Policy::Ssvc(CounterPolicy::Reset), "reset"),
];

/// The Fig. 5 rig: every policy under Bernoulli and on/off loads at
/// 0.85 × each flow's reservation, flight recorder attached. The eight
/// GB flows converge on output 1 and one GL interrupt source (input 7)
/// targets output 0: outputs arbitrate in index order within a cycle,
/// so the GL request is decided before input 7's own GB traffic can
/// claim the input, keeping its wait inside Eq. 1's scope.
fn r8_policies(seed: u64, tiny: bool) -> Vec<SwitchSim> {
    const LEN: u64 = 8;
    const HOT: usize = 1;
    let mut sims = Vec::new();
    for (p, &(policy, name)) in FIG5_POLICIES.iter().enumerate() {
        for (bursty, load) in [(false, "bernoulli"), (true, "onoff")] {
            let sim = (p * 2 + usize::from(bursty)) as u64;
            let mut sources: Vec<SourceSpec> = FIG5_RATES
                .iter()
                .enumerate()
                .map(|(i, &r)| {
                    let seed = derive(seed, 1_000 + sim * 16 + i as u64);
                    SourceSpec {
                        input: i,
                        class: TrafficClass::GuaranteedBandwidth,
                        arrivals: if bursty {
                            Arrivals::OnOff {
                                rate_on: (2.0 * 0.85 * r).min(1.0),
                                len: LEN,
                                seed,
                            }
                        } else {
                            Arrivals::Bernoulli {
                                rate: 0.85 * r,
                                len: LEN,
                                seed,
                            }
                        },
                        dest: Dest::Fixed(HOT),
                    }
                })
                .collect();
            sources.push(SourceSpec {
                input: 7,
                class: TrafficClass::GuaranteedLatency,
                arrivals: Arrivals::Periodic {
                    interval: 499,
                    phase: derive(seed, 2_000 + sim) % 499,
                    len: 1,
                },
                dest: Dest::Fixed(0),
            });
            sims.push(SwitchSim {
                label: format!("{name}/{load}"),
                radix: 8,
                bus_bits: 128,
                policy,
                sig_bits: Some(4),
                gb: FIG5_RATES
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| (i, HOT, r, LEN))
                    .collect(),
                gl: vec![(0, 0.05)],
                sources,
                schedule: schedule(5_000, 400_000, tiny),
                ring: Some(4096),
                gl_bound: latency_bound(GlScenario::new(LEN, 1, 1, 4)),
                window: window(5_000, tiny),
                block: block(10, tiny),
            });
        }
    }
    sims
}

/// 16×16 at 5 % load: every input sends one 8-flit GB-class packet every
/// 160 cycles (aligned phases, uniform destinations). Each input holds a
/// GB reservation to its home output; packets to other outputs have no
/// reservation and are demoted to BE at injection. One GL source
/// (input 15 to output 0) keeps the GL metric defined.
fn r16_periodic(seed: u64, tiny: bool) -> SwitchSim {
    const RADIX: usize = 16;
    const LEN: u64 = 8;
    let mut sources: Vec<SourceSpec> = (0..RADIX)
        .map(|i| SourceSpec {
            input: i,
            class: TrafficClass::GuaranteedBandwidth,
            arrivals: Arrivals::Periodic {
                interval: 160,
                phase: 0,
                len: LEN,
            },
            dest: Dest::Uniform {
                seed: derive(seed, 200 + i as u64),
            },
        })
        .collect();
    sources.push(SourceSpec {
        input: RADIX - 1,
        class: TrafficClass::GuaranteedLatency,
        arrivals: Arrivals::Periodic {
            interval: 499,
            phase: derive(seed, 3) % 499,
            len: 1,
        },
        dest: Dest::Fixed(0),
    });
    SwitchSim {
        label: "r16".to_owned(),
        radix: RADIX,
        bus_bits: Geometry::min_bus_width(RADIX, 3).max(128),
        policy: Policy::Ssvc(CounterPolicy::SubtractRealClock),
        sig_bits: None,
        gb: (0..RADIX).map(|i| (i, i, 0.5, LEN)).collect(),
        gl: vec![(0, 0.05)],
        sources,
        schedule: schedule(1_600, 400_025, tiny),
        ring: None,
        gl_bound: latency_bound(GlScenario::new(LEN, 1, 1, 4)),
        window: window(16_001, tiny),
        block: block(25, tiny),
    }
}

/// A 3×3 credit mesh: six GB flows between corners over 2–4 hops, each
/// offering 0.2–0.25 flits/cycle, plus one GL flow. Periods are
/// lengthened by 0–3 cycles from the seed (the fabric's only
/// seed-dependent input on credit links), so each seed offers a
/// different arrival stream.
fn fabric_mesh(seed: u64, tiny: bool) -> FabricSim {
    let jitter = |k: u64| derive(seed, 300 + k) % 4;
    // Each flow reserves a quarter more than it offers, so its offered
    // rate, not its reserved share, is what it is guaranteed.
    let gb = |k: u64, src: usize, dest: usize, port: usize, offered: f64| {
        let rate = 1.25 * offered;
        let period = (8.0 / offered).round() as u64 + jitter(k);
        FlowSpec::new(src, dest, TrafficClass::GuaranteedBandwidth)
            .ports(port, port)
            .rate(rate)
            .every(period)
    };
    let flows = vec![
        gb(0, 0, 8, 4, 0.2),
        gb(1, 8, 0, 4, 0.2),
        gb(2, 2, 6, 4, 0.2),
        gb(3, 6, 2, 4, 0.2),
        gb(4, 0, 2, 5, 0.25),
        gb(5, 8, 6, 5, 0.25),
        FlowSpec::new(6, 0, TrafficClass::GuaranteedLatency)
            .ports(6, 6)
            .rate(0.05)
            .every(160 + jitter(6)),
    ];
    FabricSim {
        mesh: (3, 3),
        flows,
        seed: derive(seed, 4),
        schedule: schedule(2_000, 60_000, tiny),
        window: window(6_000, tiny),
        block: block(10, tiny),
    }
}
