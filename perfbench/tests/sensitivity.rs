//! The layer table must point at the layer that moved: slow one timing
//! decorator on purpose and check that the traced run names it. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::Duration;

use falcon_perfbench::agents;
use falcon_perfbench::layers::{Clock, Family, Injection, Layer};
use falcon_perfbench::report::moved_layer;

const SEED: u64 = 1;

/// Four generator blocks: enough work for every layer to show.
const SCENARIOS: usize = 56;

fn traced(clock: &std::sync::Arc<Clock>) -> falcon_perfbench::report::Outcome {
    agents::run_traced_on(SEED, SCENARIOS, clock)
}

/// One test function, so no other test competes for the CPU while the
/// baseline and the slowed runs are timed.
#[test]
fn injected_delay_is_attributed_to_its_layer() {
    let base = traced(&Clock::timing());
    assert!(base.correct, "{:?}", base.notes);
    let cases = [
        (
            Layer::Apply,
            Injection::Scale(2.0),
            "transfer.harness.apply_s",
        ),
        (
            Layer::Advance,
            Injection::PerCall(Duration::from_micros(20)),
            "sim.advance_s",
        ),
        (
            Layer::Decide(Family::Bo),
            Injection::PerCall(Duration::from_micros(500)),
            "core.decide_s.bo",
        ),
    ];
    for (layer, injection, name) in cases {
        let slowed = traced(&Clock::with_injection(layer, injection));
        assert!(slowed.correct, "{:?}", slowed.notes);
        assert_eq!(moved_layer(&base, &slowed).as_deref(), Some(name));
    }
    // Doubling apply doubles its measured time, give or take the noise of
    // a shared machine.
    let doubled = traced(&Clock::with_injection(Layer::Apply, Injection::Scale(2.0)));
    let ratio = doubled.get("transfer.harness.apply_s").unwrap_or(0.0)
        / base.get("transfer.harness.apply_s").unwrap_or(f64::NAN);
    assert!((1.5..2.7).contains(&ratio), "apply ratio {ratio}");
}

/// Every count in the layer table is exact: two runs of the same code on
/// the same seed report the same counts.
#[test]
fn counts_repeat_exactly() {
    let a = traced(&Clock::timing());
    let b = traced(&Clock::timing());
    let counts: Vec<_> = a.metrics.iter().filter(|m| m.unit == "count").collect();
    // Seven harness call counts, ten decision counts, three simulator
    // counters.
    assert_eq!(counts.len(), 20);
    for m in counts {
        assert!(m.value > 0.0 || m.name.contains("leave"), "{} is 0", m.name);
        assert_eq!(Some(m.value), b.get(&m.name), "{}", m.name);
    }
    assert_eq!(a.notes, b.notes, "digests differ");
}
