//! The repository benchmark for the Falcon reproduction.
//!
//! Three seeded workloads, each run from one process on one thread as a
//! closed loop with one caller:
//!
//! - `agents`: generated single-path scenario documents through
//!   `falcon_cli::scenario::{parse, run}` (the paper's probe loop);
//! - `fabric`: a pod-local k=8 fat-tree campaign on the fleet scale
//!   engine (arrival/departure churn in the incremental allocator);
//! - `wan` (runnable, not listed in `BENCHMARK.json`): a dumbbell WAN
//!   campaign with a learning tuner per transfer, failure waves, diurnal
//!   load and tenant churn.
//!
//! An untraced run reports end-to-end metrics. A traced run reports the
//! per-layer table: it wraps the `TransferHarness`, `Tuner` and
//! `OnlineOptimizer` trait seams in timing decorators ([`layers`]) and
//! reads the product's own deterministic counters. See `README.md` in
//! this directory for the workloads, the metric map and the first table.

pub mod agents;
pub mod fleet;
pub mod gen;
pub mod heap;
pub mod layers;
pub mod report;

/// The workload names `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 2] = ["agents", "fabric"];

/// Workloads the program runs on request but `BENCHMARK.json` does not
/// list: `wan` could not be made steady enough on a shared host to gate
/// on (see `README.md`), and stays runnable for A/B checks by hand.
pub const UNLISTED: [&str; 1] = ["wan"];

/// End-to-end metrics `(name, unit)`: every workload reports all of them
/// in an untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("transfers_per_s", "1/s"),
    ("probes_per_s", "1/s"),
    ("scenario_ms_p50", "ms"),
    ("scenario_ms_tail", "ms"),
    ("sim_goodput_gbps", "Gbps"),
    ("sim_jain", "ratio"),
    ("sim_mean_transfer_s", "s"),
];

/// Per-layer metrics `(name, unit)`: every workload reports all of them
/// in a traced run, 0 for layers it does not exercise.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("transfer.scenario.build_s", "s"),
    ("transfer.runner.run_s", "s"),
    ("transfer.runner.self_s", "s"),
    ("transfer.runner.dataset_clone_s", "s"),
    ("transfer.harness.apply_s", "s"),
    ("transfer.harness.apply_calls", "count"),
    ("transfer.harness.join_s", "s"),
    ("transfer.harness.join_calls", "count"),
    ("transfer.harness.sample_s", "s"),
    ("transfer.harness.sample_calls", "count"),
    ("transfer.harness.rate_s", "s"),
    ("transfer.harness.rate_calls", "count"),
    ("transfer.harness.leave_s", "s"),
    ("transfer.harness.leave_calls", "count"),
    ("transfer.harness.query_s", "s"),
    ("transfer.harness.query_calls", "count"),
    ("sim.advance_s", "s"),
    ("sim.advance_calls", "count"),
    ("core.decide_s.gd", "s"),
    ("core.decide_s.hc", "s"),
    ("core.decide_s.bo", "s"),
    ("core.decide_s.mp", "s"),
    ("core.utility_s", "s"),
    ("rl.decide_s.bandit", "s"),
    ("rl.decide_s.q", "s"),
    ("rl.decide_s.warm", "s"),
    ("baselines.decide_s.harp", "s"),
    ("baselines.decide_s.globus", "s"),
    ("baselines.decide_s.fixed", "s"),
    ("core.decisions.gd", "count"),
    ("core.decisions.hc", "count"),
    ("core.decisions.bo", "count"),
    ("core.decisions.mp", "count"),
    ("rl.decisions.bandit", "count"),
    ("rl.decisions.q", "count"),
    ("rl.decisions.warm", "count"),
    ("baselines.decisions.harp", "count"),
    ("baselines.decisions.globus", "count"),
    ("baselines.decisions.fixed", "count"),
    ("sim.steps", "count"),
    ("sim.alloc_runs", "count"),
    ("sim.alloc_skips", "count"),
    ("heap.peak_mb", "MB"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("fleet.topology_s", "s"),
    ("fleet.campaign_s", "s"),
    ("fleet.ns_per_solve", "ns"),
    ("fleet.solves", "count"),
    ("fleet.streams_resolved", "count"),
    ("fleet.resolved_per_solve", "ratio"),
    ("fleet.probes", "count"),
    ("fleet.peak_active", "count"),
    ("fleet.state_bytes_per_transfer", "B"),
    ("fleet.size_growth", "ratio"),
];

/// Run one workload. `trace` selects the per-layer run. Returns `None`
/// for an unknown workload name.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Option<report::Outcome> {
    use gen::FleetKind;
    let mut out = match (workload, trace) {
        ("agents", false) => agents::run(seed, seconds),
        ("agents", true) => agents::run_traced(seed),
        ("fabric", false) => fleet::run(FleetKind::Fabric, seed, seconds),
        ("fabric", true) => fleet::run_traced(FleetKind::Fabric, seed),
        ("wan", false) => fleet::run(FleetKind::Wan, seed, seconds),
        ("wan", true) => fleet::run_traced(FleetKind::Wan, seed),
        _ => return None,
    };
    let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        match out.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit => ordered.push(m.clone()),
            Some(m) => {
                let msg = format!("metric {name} in {} instead of {unit}", m.unit);
                out.fail_check(msg);
            }
            // A workload that does not exercise a layer reports it as 0;
            // a missing end-to-end metric is a bug in the benchmark.
            None if trace => ordered.push(report::Metric {
                name: name.to_string(),
                value: 0.0,
                unit,
            }),
            None => out.fail_check(format!("metric {name} missing")),
        }
    }
    // A misspelt name would otherwise read as an unexercised layer.
    let unknown: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !catalogue.iter().any(|&(n, _)| n == m.name))
        .map(|m| m.name.clone())
        .collect();
    for name in unknown {
        out.fail_check(format!("metric {name} not in the catalogue"));
    }
    out.metrics = ordered;
    Some(out)
}
