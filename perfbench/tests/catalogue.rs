//! `BENCHMARK.json` at the repository root must list exactly the
//! workloads and metrics this program reports.

use falcon_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    let names: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|&(n, _)| n))
        .chain(PER_LAYER.iter().map(|&(n, _)| n))
        .collect();
    for name in &names {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
    assert_eq!(text.matches("\"name\":").count(), names.len());
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} has another unit in BENCHMARK.json"
        );
    }
}
