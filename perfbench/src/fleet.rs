//! The `fabric` and `wan` workloads: a few scale-engine campaign specs
//! per seed, each run through `falcon_fleet::run_scale_campaign` on one
//! thread.

use std::time::Instant;

use falcon_fleet::{run_scale_campaign, ScaleCampaignSpec, ScaleReport};

use crate::gen::{self, FleetKind};
use crate::heap;
use crate::report::{self, Digest, Outcome};

/// Set-up repetitions before the timed loop. One more follows every
/// campaign, so the reps sample the whole run: host speed on a shared
/// machine drifts over seconds, and `setup_s` is the median of all of
/// them.
const SETUP_REPS: usize = 5;

/// Spec builds per repetition: building a run's specs takes well under a
/// millisecond, so each repetition times a batch and reports the time
/// per build of the run's specs.
const SETUP_BATCH: usize = 16;

/// Campaign repetitions in a traced run; its times are their median.
const TRACE_REPS: usize = 3;

/// Transfers in the reference campaign `fleet.size_growth` divides by.
const GROWTH_BASE: usize = 10_000;

/// Build every campaign spec of the run [`SETUP_BATCH`] times; return
/// the specs (`None` for a topology spec `from_spec` rejects) and the
/// time per build.
fn setup_rep(kind: FleetKind, seed: u64) -> (Option<Vec<ScaleCampaignSpec>>, f64) {
    let build = || -> Option<Vec<ScaleCampaignSpec>> {
        (0..kind.inputs())
            .map(|i| gen::fleet_spec(kind, seed, i, kind.transfers()))
            .collect()
    };
    let t0 = Instant::now();
    let built = build();
    for _ in 1..SETUP_BATCH {
        std::hint::black_box(build());
    }
    (built, t0.elapsed().as_secs_f64() / SETUP_BATCH as f64)
}

/// Set up [`SETUP_REPS`] times; return the specs and the time of each
/// repetition. Every repetition must build the same specs.
fn timed_setup(
    kind: FleetKind,
    seed: u64,
    out: &mut Outcome,
) -> Option<(Vec<ScaleCampaignSpec>, Vec<f64>)> {
    let (specs, first) = setup_rep(kind, seed);
    let Some(specs) = specs else {
        out.fail_check(format!("bad topology spec {}", kind.topology_spec()));
        return None;
    };
    let mut times = vec![first];
    for _ in 1..SETUP_REPS {
        setup_again(kind, seed, &specs, &mut times, out);
    }
    Some((specs, times))
}

/// One more set-up repetition, checked against the run's specs.
fn setup_again(
    kind: FleetKind,
    seed: u64,
    specs: &[ScaleCampaignSpec],
    times: &mut Vec<f64>,
    out: &mut Outcome,
) {
    let (again, t) = setup_rep(kind, seed);
    times.push(t);
    if again.as_deref() != Some(specs) {
        out.fail_check("same seed generated different campaign specs");
    }
}

/// Run one campaign on one thread; return the report, its wall time and
/// the peak heap it needed (MB).
fn campaign(spec: &ScaleCampaignSpec) -> (ScaleReport, f64, f64) {
    let base = heap::rearm();
    let t0 = Instant::now();
    let r = run_scale_campaign(spec, 1);
    let wall = t0.elapsed().as_secs_f64();
    (r, wall, heap::peak_mb_since(base))
}

/// Check the accounting every campaign must satisfy.
fn check_campaign(spec: &ScaleCampaignSpec, r: &ScaleReport, out: &mut Outcome) {
    if r.completions + r.stranded != r.transfers {
        out.fail_check(format!(
            "completions {} + stranded {} != transfers {}",
            r.completions, r.stranded, r.transfers
        ));
    }
    if r.transfers != spec.workload.transfers as u64 {
        out.fail_check(format!(
            "{} of {} transfers admitted before the horizon",
            r.transfers, spec.workload.transfers
        ));
    }
    if !(r.mean_duration_s.is_finite() && r.mean_duration_s > 0.0 && r.makespan_s > 0.0) {
        out.fail_check("campaign reported no transfer time");
    }
}

fn digest_of<'a>(texts: impl IntoIterator<Item = &'a str>) -> String {
    let mut d = Digest::default();
    for t in texts {
        d.update(t.as_bytes());
    }
    d.hex()
}

/// Jain index of the per-link mean utilizations.
fn link_jain(r: &ScaleReport) -> f64 {
    let u: Vec<f64> = r.links.iter().map(|(_, u)| *u).collect();
    report::jain(&u)
}

/// Mean of `f` over the reports.
fn mean_of(reports: &[ScaleReport], f: impl Fn(&ScaleReport) -> f64) -> f64 {
    reports.iter().map(f).sum::<f64>() / reports.len().max(1) as f64
}

/// The untraced run: end-to-end metrics.
pub fn run(kind: FleetKind, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let Some((specs, mut setup_times)) = timed_setup(kind, seed, &mut out) else {
        return out;
    };
    let spec_texts: Vec<String> = specs.iter().map(|s| format!("{s:?}")).collect();
    out.note(format!(
        "input digest {} ({} x {}, {} transfers each, seed {seed}, held-out seed {})",
        digest_of(spec_texts.iter().map(String::as_str)),
        specs.len(),
        kind.topology_spec(),
        kind.transfers(),
        gen::HELD_OUT_SEED
    ));

    // Timed closed loop: whole cycles over the run's specs until the time
    // is up. Every cycle must reproduce the first cycle's summaries.
    let mut cycles: Vec<Vec<f64>> = Vec::new();
    let mut reports: Vec<ScaleReport> = Vec::with_capacity(specs.len());
    let loop_start = Instant::now();
    while cycles.is_empty() || loop_start.elapsed().as_secs_f64() < seconds {
        let mut walls = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let (r, wall, _) = campaign(spec);
            walls.push(wall);
            setup_again(kind, seed, &specs, &mut setup_times, &mut out);
            if cycles.is_empty() {
                reports.push(r);
            } else if r.summary() != reports[i].summary() {
                out.fail_check(format!("campaign {i}: cycle {} differs", cycles.len()));
            }
        }
        cycles.push(walls);
    }
    for (spec, r) in specs.iter().zip(&reports) {
        check_campaign(spec, r, &mut out);
    }

    // Outside the timed loop: the summary must not depend on threads.
    if run_scale_campaign(&specs[0], 2).summary() != reports[0].summary() {
        out.fail_check("summary differs between 1 and 2 threads");
    }
    let summaries: Vec<String> = reports.iter().map(ScaleReport::summary).collect();
    // Each campaign's best time over the cycles. A run has too few
    // campaigns for a tail with ten samples beyond it: the tail is the
    // slowest campaign's best time.
    let best_s = report::best_per_input(&cycles);
    let campaign_ms: Vec<f64> = best_s.iter().map(|s| s * 1e3).collect();
    let (_, rank, count) = report::tail(&campaign_ms);
    out.note(format!(
        "output digest {}; {} cycles of {} campaigns; best per campaign {:.3?} s of {:.3?} s per cycle; tail = rank {rank} of {count}",
        digest_of(summaries.iter().map(String::as_str)),
        cycles.len(),
        specs.len(),
        best_s,
        cycles.iter().map(|c| c.iter().sum::<f64>()).collect::<Vec<_>>()
    ));
    out.note(summaries[0].trim_end().to_string());

    let transfers: u64 = reports.iter().map(|r| r.transfers).sum();
    let stranded: u64 = reports.iter().map(|r| r.stranded).sum();
    // Fabric transfers carry no tuner, so its rate decisions are the
    // allocator's solves; on wan they are the per-transfer tuner probes.
    let decisions: u64 = reports
        .iter()
        .map(|r| match kind {
            FleetKind::Fabric => r.solves,
            FleetKind::Wan => r.probes,
        })
        .sum();
    out.attempted = transfers * cycles.len() as u64;
    out.failed = stranded * cycles.len() as u64;
    let cycle_s: f64 = best_s.iter().sum();
    out.push("setup_s", report::median(&setup_times), "s");
    out.push("transfers_per_s", transfers as f64 / cycle_s, "1/s");
    out.push("probes_per_s", decisions as f64 / cycle_s, "1/s");
    out.push("scenario_ms_p50", report::median(&campaign_ms), "ms");
    out.push("scenario_ms_tail", report::tail(&campaign_ms).0, "ms");
    out.push(
        "sim_goodput_gbps",
        mean_of(&reports, |r| r.bytes_gb * 8.0 / r.makespan_s),
        "Gbps",
    );
    out.push("sim_jain", mean_of(&reports, link_jain), "ratio");
    out.push(
        "sim_mean_transfer_s",
        mean_of(&reports, |r| r.mean_duration_s),
        "s",
    );
    out
}

/// The traced run: topology and campaign time from outside (median of
/// [`TRACE_REPS`] campaigns), the engine's exact work counts, and
/// (fabric) the growth of ns per transfer from 10⁴ transfers to the
/// workload's size. Covers the run's first spec.
pub fn run_traced(kind: FleetKind, seed: u64) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let Some((specs, setup_times)) = timed_setup(kind, seed, &mut out) else {
        return out;
    };
    let spec = &specs[0];
    let (r, first_s, heap_mb) = campaign(spec);
    let mut walls = vec![first_s];
    for _ in 1..TRACE_REPS {
        let (again, wall, _) = campaign(spec);
        if again.summary() != r.summary() {
            out.fail_check("repeated campaign gave a different summary");
        }
        walls.push(wall);
    }
    let campaign_s = report::median(&walls);
    check_campaign(spec, &r, &mut out);
    out.attempted = r.transfers;
    out.failed = r.stranded;
    out.note(format!(
        "input digest {}; output digest {}",
        digest_of([format!("{spec:?}").as_str()]),
        digest_of([r.summary().as_str()])
    ));
    out.note(r.summary().trim_end().to_string());

    out.push("fleet.topology_s", report::median(&setup_times), "s");
    out.push("heap.peak_mb", heap_mb, "MB");
    out.push("fleet.campaign_s", campaign_s, "s");
    out.push(
        "fleet.ns_per_solve",
        campaign_s * 1e9 / r.solves.max(1) as f64,
        "ns",
    );
    out.push("fleet.solves", r.solves as f64, "count");
    out.push("fleet.streams_resolved", r.streams_resolved as f64, "count");
    out.push(
        "fleet.resolved_per_solve",
        r.mean_resolved_per_solve(),
        "ratio",
    );
    out.push("fleet.probes", r.probes as f64, "count");
    out.push("fleet.peak_active", f64::from(r.peak_active), "count");
    out.push(
        "fleet.state_bytes_per_transfer",
        r.bytes_per_transfer(),
        "B",
    );
    if kind == FleetKind::Fabric {
        let Some(small) = gen::fleet_spec(kind, seed, 0, GROWTH_BASE) else {
            return out;
        };
        let base: Vec<f64> = (0..TRACE_REPS).map(|_| campaign(&small).1).collect();
        let per_transfer = campaign_s / r.transfers as f64;
        let base_per_transfer = report::median(&base) / GROWTH_BASE as f64;
        out.push(
            "fleet.size_growth",
            per_transfer / base_per_transfer,
            "ratio",
        );
    }
    out
}
