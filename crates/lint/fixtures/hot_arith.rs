// Fixture: unchecked-hot-arith. Mounted at crates/core/src/kernel.rs —
// the configured hot file — and reached from the `step` root in the
// mask_width fixture. `unbounded_sum` adds two raw u64s and fires;
// `bounded_diff` masks its operand first, which no declared type
// records, so its add fires as well; `waived_mix` indexes an
// unknown-length slice but carries an in-source waiver. `cross_hop`
// enters the arbiter crate through a module-qualified free-fn call —
// the two-hop cross-crate reachability case.

pub fn hot_decide(a: u64, b: u64, lanes: &[u64]) -> u64 {
    unbounded_sum(a, b) ^ bounded_diff(a) ^ waived_mix(a, lanes) ^ cross_hop(b)
}

fn unbounded_sum(a: u64, b: u64) -> u64 {
    a + b
}

fn bounded_diff(a: u64) -> u64 {
    let clamped = a & 0xFF;
    clamped + 1
}

fn waived_mix(a: u64, lanes: &[u64]) -> u64 {
    // ssq-lint: allow(unchecked-hot-arith) — lane table sized by the fabric ctor
    lanes[(a & 3) as usize]
}

fn cross_hop(b: u64) -> u64 {
    lrg::pick_winner(b)
}
