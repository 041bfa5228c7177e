//! The paper's §4.1 verification, reproduced: "We tested this program
//! with all input combinations of thermometer code vectors and valid LRG
//! states. The arbitration decision of the [wire-]level model was
//! compared to the arbitration decision of a true … auxVC value
//! comparison to verify that each decision was correct."
//!
//! Here the wire-level [`InhibitFabric`] is checked against the
//! behavioural decision rule (smallest significant `auxVC` bits, ties by
//! LRG — i.e. [`SsvcArbiter::peek`]) exhaustively at radix 4 and by
//! property-based sampling at radix 8 and 64.

use ssq_arbiter::{CounterPolicy, Lrg, SsvcArbiter, SsvcConfig};
use ssq_circuit::{CircuitConfig, InhibitFabric, PortRequest, WinnerClass};
use ssq_types::rng::Xoshiro256StarStar;

/// Builds an LRG state with the exact priority order `order` (highest
/// priority first) by granting in top-first sequence.
fn lrg_with_order(n: usize, order: &[usize]) -> Lrg {
    let mut lrg = Lrg::new(n);
    for &w in order {
        lrg.grant(w);
    }
    assert_eq!(&lrg.priority_order(), order, "construction invariant");
    lrg
}

/// The behavioural ("true comparison") reference: smallest thermometer
/// value wins; ties resolve by LRG.
fn reference_winner(msbs: &[u64], lrg: &Lrg, candidates: &[usize]) -> Option<usize> {
    let min = candidates.iter().map(|&c| msbs[c]).min()?;
    let tied: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&c| msbs[c] == min)
        .collect();
    lrg.peek(&tied)
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(prefix: &mut Vec<usize>, rest: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let x = rest.remove(i);
            prefix.push(x);
            rec(prefix, rest, out);
            prefix.pop();
            rest.insert(i, x);
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), &mut (0..n).collect(), &mut out);
    out
}

/// Exhaustive check at radix 4 with 4 lanes: every thermometer-code
/// combination × every non-empty requester subset × every LRG total
/// order. 4⁴ × 15 × 24 = 92 160 arbitration decisions.
#[test]
fn exhaustive_equivalence_radix4() {
    let lanes = 4usize;
    let fabric = InhibitFabric::new(CircuitConfig::new(4, lanes, false));
    let orders = permutations(4);
    let mut checked = 0u64;
    for code in 0..lanes.pow(4) {
        let msbs: Vec<u64> = (0..4)
            .map(|i| ((code / lanes.pow(i as u32)) % lanes) as u64)
            .collect();
        for mask in 1u32..16 {
            let candidates: Vec<usize> = (0..4).filter(|&i| mask & (1 << i) != 0).collect();
            for order in &orders {
                let lrg = lrg_with_order(4, order);
                let mut ports = vec![PortRequest::Idle; 4];
                for &c in &candidates {
                    ports[c] = PortRequest::Gb { msb_value: msbs[c] };
                }
                let circuit = fabric.arbitrate(&ports, &lrg, &lrg).winner();
                let reference = reference_winner(&msbs, &lrg, &candidates);
                assert_eq!(
                    circuit, reference,
                    "mismatch: msbs {msbs:?} candidates {candidates:?} order {order:?}"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 92_160);
}

/// Exhaustive GL-override check at radix 4: any GL subset must defeat
/// every GB request and resolve within itself by the GL LRG order.
#[test]
fn exhaustive_gl_override_radix4() {
    let fabric = InhibitFabric::new(CircuitConfig::new(4, 4, true));
    let orders = permutations(4);
    for gb_mask in 0u32..16 {
        for gl_mask in 1u32..16 {
            if gb_mask & gl_mask != 0 {
                continue; // an input sends one class at a time
            }
            for order in &orders {
                let gl_lrg = lrg_with_order(4, order);
                let gb_lrg = Lrg::new(4);
                let mut ports = vec![PortRequest::Idle; 4];
                for (i, port) in ports.iter_mut().enumerate() {
                    if gb_mask & (1 << i) != 0 {
                        *port = PortRequest::Gb { msb_value: 0 };
                    }
                    if gl_mask & (1 << i) != 0 {
                        *port = PortRequest::Gl;
                    }
                }
                let out = fabric.arbitrate(&ports, &gb_lrg, &gl_lrg);
                assert_eq!(out.class(), Some(WinnerClass::GuaranteedLatency));
                let gl_candidates: Vec<usize> =
                    (0..4).filter(|&i| gl_mask & (1 << i) != 0).collect();
                assert_eq!(out.winner(), gl_lrg.peek(&gl_candidates));
            }
        }
    }
}

/// Equivalence against the actual `SsvcArbiter` (sharing its LRG state)
/// across random counter states at radix 8 — the Fig. 1 configuration.
#[test]
fn ssvc_arbiter_equivalence_radix8() {
    let cfg = SsvcConfig::new(12, 3, CounterPolicy::SubtractRealClock);
    let fabric = InhibitFabric::new(CircuitConfig::new(8, cfg.num_lanes(), false));
    let mut ssvc = SsvcArbiter::new(cfg, &[20, 45, 90, 90, 160, 160, 160, 160]);

    // Drive a long deterministic sequence of wins so the LRG state and
    // counters take many distinct values, checking the fabric each step.
    for round in 0..2000u64 {
        let candidates: Vec<usize> = (0..8)
            .filter(|i| !(round + *i as u64).is_multiple_of(3) || round.is_multiple_of(7))
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let mut ports = vec![PortRequest::Idle; 8];
        for &c in &candidates {
            ports[c] = PortRequest::Gb {
                msb_value: ssvc.msb_value(c),
            };
        }
        let circuit = fabric.arbitrate(&ports, ssvc.lrg(), ssvc.lrg()).winner();
        let behavioural = ssvc.peek(candidates.iter().copied().collect());
        assert_eq!(circuit, behavioural, "round {round}");
        if let Some(w) = behavioural {
            ssvc.commit_win(w);
        }
    }
}

/// Random-state equivalence at radix 64 with 8 lanes — the flagship
/// 64×64 geometry (512-bit bus).
#[test]
fn equivalence_radix64() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xc1c01);
    let fabric = InhibitFabric::new(CircuitConfig::new(64, 8, false));
    for _ in 0..256 {
        let msbs: Vec<u64> = (0..64).map(|_| rng.below(8)).collect();
        let candidates: Vec<usize> = (0..64).filter(|_| rng.chance(0.5)).collect();
        if candidates.is_empty() {
            continue;
        }
        let mut lrg = Lrg::new(64);
        for _ in 0..rng.index(128) {
            lrg.grant(rng.index(64));
        }
        let mut ports = vec![PortRequest::Idle; 64];
        for &c in &candidates {
            ports[c] = PortRequest::Gb { msb_value: msbs[c] };
        }
        let circuit = fabric.arbitrate(&ports, &lrg, &lrg).winner();
        let reference = reference_winner(&msbs, &lrg, &candidates);
        assert_eq!(circuit, reference);
    }
}

/// The fabric never reports zero winners for a non-empty request set and
/// never two (single-charged-wire invariant), at arbitrary lane counts.
#[test]
fn unique_winner_invariant() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xc1c02);
    for _ in 0..256 {
        let radix = 2 + rng.index(14);
        let lanes = 1usize << (1 + rng.index(3));
        let fabric = InhibitFabric::new(CircuitConfig::new(radix, lanes, true));
        let lrg = Lrg::new(radix);
        let ports: Vec<PortRequest> = (0..radix)
            .map(|_| match rng.below(4) {
                0 => PortRequest::Idle,
                1 => PortRequest::Gl,
                _ => PortRequest::Gb {
                    msb_value: rng.below(lanes as u64),
                },
            })
            .collect();
        let requesters = ports
            .iter()
            .filter(|p| !matches!(p, PortRequest::Idle))
            .count();
        let out = fabric.arbitrate(&ports, &lrg, &lrg);
        assert_eq!(out.winner().is_some(), requesters > 0);
    }
}
