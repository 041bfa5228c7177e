//! Micro-benchmark: bit-level fabric arbitration cost versus the
//! behavioural decision rule — the price of wire-accurate verification.

use std::hint::black_box;

use ssq_arbiter::{CounterPolicy, Lrg, SsvcArbiter, SsvcConfig};
use ssq_bench::microbench::{bench, group};
use ssq_circuit::{CircuitConfig, InhibitFabric, PortRequest};
use ssq_types::PortSet;

fn ports(radix: usize, lanes: usize) -> Vec<PortRequest> {
    (0..radix)
        .map(|i| PortRequest::Gb {
            msb_value: (i * 7 % lanes) as u64,
        })
        .collect()
}

fn bench_fabric() {
    group("bitlevel_fabric");
    for radix in [8usize, 16, 32, 64] {
        let lanes = 8;
        let fabric = InhibitFabric::new(CircuitConfig::new(radix, lanes, true));
        let lrg = Lrg::new(radix);
        let reqs = ports(radix, lanes);
        bench("bitlevel_fabric", &radix.to_string(), || {
            black_box(fabric.arbitrate(black_box(&reqs), &lrg, &lrg));
        });
    }
}

fn bench_behavioural_reference() {
    group("behavioural_peek");
    for radix in [8usize, 16, 32, 64] {
        let mut ssvc = SsvcArbiter::new(
            SsvcConfig::new(12, 3, CounterPolicy::SubtractRealClock),
            &vec![9; radix],
        );
        for i in 0..radix {
            ssvc.set_aux_vc(i, ((i * 7 % 8) as u64) << 9);
        }
        let candidates = PortSet::first_n(radix);
        bench("behavioural_peek", &radix.to_string(), || {
            black_box(ssvc.peek(black_box(candidates)));
        });
    }
}

fn main() {
    bench_fabric();
    bench_behavioural_reference();
}
