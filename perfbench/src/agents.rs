//! The `agents` workload: generated single-path scenario documents run
//! one after another through `falcon_cli::scenario::{parse, run}`.
//!
//! The untraced run times `scenario::run` per scenario in a closed loop,
//! whole passes over the seed's scenario set for the requested seconds,
//! then replays every scenario through [`run_decorated`] — the same
//! construction `scenario::run` performs, with the layer decorators on
//! the trait seams — which must render the byte-identical report and
//! yields the decision counts. The traced run covers the same set once with
//! timing decorators and reports the layer table.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use falcon_baselines::{GlobusTuner, HarpHistory, HarpTuner};
use falcon_cli::scenario::{self, OptimizerSpec, Scenario};
use falcon_core::bayesian::{BayesianOptimizer, BoParams};
use falcon_core::conjugate::{CgdParams, ConjugateGradientOptimizer};
use falcon_core::gradient::{GdParams, GradientDescentOptimizer};
use falcon_core::hill_climbing::{HcParams, HillClimbingOptimizer};
use falcon_core::optimizer::OnlineOptimizer;
use falcon_core::{FalconAgent, SearchBounds, TransferSettings, UtilityFunction};
use falcon_rl::{BanditOptimizer, BanditParams, QParams, TabularQOptimizer, WarmTable};
use falcon_sim::Simulation;
use falcon_trace::Tracer;
use falcon_transfer::dataset::Dataset;
use falcon_transfer::harness::SimHarness;
use falcon_transfer::runner::{AgentPlan, FixedTuner, Runner, Tuner};

use crate::gen;
use crate::heap;
use crate::layers::{Clock, Family, Layer, TimedHarness, TimedOptimizer, TimedTuner};
use crate::report::{self, Digest, Outcome};

/// Scenarios per run: forty generator blocks. The untraced run times
/// whole passes over them; the traced run covers them once.
pub const PASS: usize = 40 * gen::BLOCK;

/// Scenarios per tail sample: ten blocks. The ten slowest of a whole pass
/// are a handful of heavy draws whose weight moves with the seed; the
/// tail is taken over the scenarios' best times per sample of this size
/// (rank 130 of 140) and reported as the median over the set's samples.
pub const TAIL_SAMPLE: usize = 10 * gen::BLOCK;

/// Set-up repetitions before the timed loop.
const SETUP_REPS: usize = 5;

/// One more set-up repetition follows every this many scenarios, so the
/// reps sample the whole run: host speed on a shared machine drifts over
/// seconds, and `setup_s` is the median of all of them.
const SETUP_EVERY: usize = 40;

/// Generated, parsed inputs of one run.
pub struct Inputs {
    /// Canonical scenario documents.
    pub docs: Vec<String>,
    /// The parsed scenarios, in the same order.
    pub scenarios: Vec<Scenario>,
    /// Digest over every document.
    pub digest: Digest,
}

/// Generate `count` documents for `seed`, parse each, and check that it
/// round-trips through `scenario::serialize` and `scenario::parse`.
pub fn setup(seed: u64, count: usize) -> Result<Inputs, String> {
    let docs = gen::agent_documents(seed, count);
    let mut scenarios = Vec::with_capacity(docs.len());
    let mut digest = Digest::default();
    for (i, doc) in docs.iter().enumerate() {
        let sc = scenario::parse(doc).map_err(|e| format!("scenario {i}: parse: {}", e.0))?;
        if scenario::serialize(&sc) != *doc {
            return Err(format!("scenario {i}: serialize(parse(doc)) != doc"));
        }
        digest.update(doc.as_bytes());
        scenarios.push(sc);
    }
    Ok(Inputs {
        docs,
        scenarios,
        digest,
    })
}

fn make_dataset(spec: &str) -> Result<Dataset, String> {
    if let Some(count) = spec.strip_prefix("1gb:") {
        let n: usize = count.parse().map_err(|_| format!("dataset {spec}"))?;
        return Ok(Dataset::uniform_1gb(n));
    }
    match spec {
        "small" => Ok(Dataset::small(1)),
        "large" => Ok(Dataset::large(1)),
        "mixed" => Ok(Dataset::mixed(1)),
        other => Err(format!("unknown dataset {other:?}")),
    }
}

/// Build a scenario tuner exactly as `scenario::run` does, with a timing
/// decorator on the tuner and, for `FalconAgent`-based tuners, on its
/// optimizer.
fn make_tuner(
    spec: &str,
    opt: &OptimizerSpec,
    max_cc: u32,
    seed: u64,
    clock: &Arc<Clock>,
) -> Result<Box<dyn Tuner>, String> {
    let family = Family::of(spec).ok_or_else(|| format!("unknown tuner {spec:?}"))?;
    let agent = |utility: UtilityFunction, optimizer: Box<dyn OnlineOptimizer>| {
        let timed = TimedOptimizer::new(optimizer, family, Arc::clone(clock));
        Box::new(FalconAgent::new(utility, Box::new(timed))) as Box<dyn Tuner>
    };
    let mut bandit = BanditParams::new(max_cc, seed);
    bandit.epsilon = opt.epsilon;
    bandit.alpha_floor = opt.alpha;
    let inner: Box<dyn Tuner> = match spec {
        "falcon-gd" => agent(
            UtilityFunction::falcon_default(),
            Box::new(GradientDescentOptimizer::new(GdParams::new(max_cc))),
        ),
        "falcon-bo" => agent(
            UtilityFunction::falcon_default(),
            Box::new(BayesianOptimizer::new(
                BoParams::new(max_cc).with_seed(seed),
            )),
        ),
        "falcon-hc" => agent(
            UtilityFunction::falcon_default(),
            Box::new(HillClimbingOptimizer::new(HcParams::new(max_cc))),
        ),
        "falcon-mp" => agent(
            UtilityFunction::falcon_multi_param(),
            Box::new(ConjugateGradientOptimizer::new(CgdParams::new(
                SearchBounds::multi_parameter(max_cc, 8, 32),
            ))),
        ),
        "rl:bandit" => agent(
            UtilityFunction::falcon_default(),
            Box::new(BanditOptimizer::new(bandit)),
        ),
        "rl:q" => {
            let mut q = QParams::new(max_cc, seed);
            q.gamma = opt.gamma;
            agent(
                UtilityFunction::falcon_default(),
                Box::new(TabularQOptimizer::new(q)),
            )
        }
        "rl:warm" => {
            let history = HarpHistory::for_capacity_gbps(opt.warm_gbps);
            let table = WarmTable::fit(&history, &bandit.bounds, 24, seed);
            agent(
                UtilityFunction::falcon_default(),
                Box::new(BanditOptimizer::warm_started(bandit, &table)),
            )
        }
        "globus" => Box::new(GlobusTuner::for_dataset(&Dataset::uniform_1gb(1000))),
        "harp" => Box::new(HarpTuner::new(HarpHistory::ten_gig_corpus())),
        "harp-rt" => {
            Box::new(HarpTuner::new(HarpHistory::ten_gig_corpus()).with_runtime_retuning(4))
        }
        s => {
            let cc = s
                .strip_prefix("fixed:")
                .ok_or(format!("unknown tuner {s:?}"))?;
            let cc: u32 = cc.parse().map_err(|_| format!("tuner {s}"))?;
            Box::new(FixedTuner {
                settings: TransferSettings::with_concurrency(cc.max(1)),
                name: format!("fixed-{cc}"),
            })
        }
    };
    Ok(Box::new(TimedTuner::new(inner, family, Arc::clone(clock))))
}

/// One decorated scenario run.
pub struct Decorated {
    /// The rendered report (`scenario::render` of the run trace).
    pub report: String,
    /// Host seconds building the simulation, datasets and tuners.
    pub build_s: f64,
    /// Host seconds inside `Runner::run`.
    pub run_s: f64,
}

/// Run a single-path scenario through the same construction
/// `scenario::run` performs, with decorators reporting into `clock`.
pub fn run_decorated(sc: &Scenario, clock: &Arc<Clock>) -> Result<Decorated, String> {
    let t0 = Instant::now();
    let env = falcon_cli::run::resolve_env(&sc.env)
        .ok_or_else(|| format!("unknown environment {:?}", sc.env))?;
    let max_cc = env.max_concurrency;
    let mut sim = Simulation::new(env, sc.seed);
    sim.set_tracer(Tracer::default());
    let mut harness = SimHarness::new(sim);
    for bg in &sc.background {
        harness.sim_mut().add_background_flow(*bg);
    }
    harness
        .sim_mut()
        .try_add_events(sc.events.iter().copied())
        .map_err(|e| format!("[event] rejected: {e}"))?;
    let opt = sc.optimizer.clone().unwrap_or_default();
    let mut plans = Vec::with_capacity(sc.agents.len());
    for (i, a) in sc.agents.iter().enumerate() {
        let seed = sc.seed.wrapping_add(i as u64);
        let tuner = make_tuner(&a.tuner, &opt, max_cc, seed, clock)?;
        let mut plan = AgentPlan::joining_at(tuner, make_dataset(&a.dataset)?, a.start_s);
        if let Some(leave) = a.leave_s {
            plan = plan.leaving_at(leave);
        }
        plans.push(plan);
    }
    let mut harness = TimedHarness::new(harness, Arc::clone(clock));
    let runner = Runner {
        tracer: Tracer::default(),
        ..Runner::default()
    };
    let t1 = Instant::now();
    let trace = runner.run(&mut harness, plans, sc.duration_s);
    let t2 = Instant::now();
    let report = scenario::render(sc, &trace).map_err(|e| e.0)?;
    Ok(Decorated {
        report,
        build_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
    })
}

/// Host seconds to clone and drop every agent's dataset once. The runner
/// clones a plan's dataset on each join, so this estimates that share of
/// its self time from outside.
fn dataset_clone_s(sc: &Scenario) -> Result<f64, String> {
    let mut total = 0.0;
    for a in &sc.agents {
        let dataset = make_dataset(&a.dataset)?;
        let t0 = Instant::now();
        drop(std::hint::black_box(dataset.clone()));
        total += t0.elapsed().as_secs_f64();
    }
    Ok(total)
}

/// `scenario::run` with panics caught and reported as errors.
fn run_untraced(sc: &Scenario) -> Result<String, String> {
    match catch_unwind(AssertUnwindSafe(|| scenario::run(sc))) {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(e.0),
        Err(_) => Err("panicked".into()),
    }
}

/// Modelled outcome of one scenario, read back from its rendered report.
#[derive(Debug, Clone, Default)]
struct Modelled {
    /// Aggregate goodput over the scenario (Gbps): each agent's mean
    /// weighted by the share of the run it was present for.
    goodput_gbps: f64,
    /// Jain index of the final third (multi-agent scenarios only).
    jain: Option<f64>,
    /// Durations (s) of transfers that completed.
    completed_s: Vec<f64>,
}

/// Parse a report and check what the model guarantees: finite
/// non-negative rates no agent above the path capacity, completion
/// within the run, a Jain index in `[0, 1]`.
fn check_report(sc: &Scenario, report: &str) -> Result<Modelled, String> {
    let env = falcon_cli::run::resolve_env(&sc.env).ok_or("unknown environment")?;
    let cap_gbps = env.path_capacity_mbps() / 1000.0 + 0.01;
    let mut lines = report.lines().skip(2);
    let mut m = Modelled::default();
    for (i, a) in sc.agents.iter().enumerate() {
        let line = lines.next().ok_or(format!("missing row {i}"))?;
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() != 5 {
            return Err(format!("row {i}: {line:?}"));
        }
        let num = |s: &str| s.parse::<f64>().map_err(|_| format!("row {i}: {line:?}"));
        let (avg, tail) = (num(cols[2])?, num(cols[3])?);
        for v in [avg, tail] {
            if !(v.is_finite() && (0.0..=cap_gbps).contains(&v)) {
                return Err(format!("row {i}: rate {v} outside [0, {cap_gbps}]"));
            }
        }
        m.goodput_gbps += avg * (sc.duration_s - a.start_s) / sc.duration_s;
        if cols[4] != "-" {
            let done = num(cols[4])?;
            if done < a.start_s.round() || done > sc.duration_s.round() {
                return Err(format!("row {i}: done at {done} outside the run"));
            }
            m.completed_s.push(done - a.start_s);
        }
    }
    if sc.agents.len() > 1 {
        let line = lines.next().ok_or("missing jain line")?;
        let j: f64 = line
            .strip_prefix("jain_index (final third): ")
            .and_then(|v| v.parse().ok())
            .ok_or(format!("bad jain line {line:?}"))?;
        if !(0.0..=1.0005).contains(&j) {
            return Err(format!("jain {j} outside [0, 1]"));
        }
        m.jain = Some(j);
    }
    Ok(m)
}

/// Mean of a sample (0 for an empty one).
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Set up [`SETUP_REPS`] times; return the inputs and the time of each
/// repetition. Every repetition must generate the same documents.
fn timed_setup(seed: u64, out: &mut Outcome) -> Option<(Inputs, Vec<f64>)> {
    let t0 = Instant::now();
    let inputs = match setup(seed, PASS) {
        Ok(i) => i,
        Err(e) => {
            out.fail_check(format!("set-up: {e}"));
            return None;
        }
    };
    let mut times = vec![t0.elapsed().as_secs_f64()];
    for _ in 1..SETUP_REPS {
        setup_again(seed, &inputs, &mut times, out);
    }
    Some((inputs, times))
}

/// One more set-up repetition, checked against the run's documents.
fn setup_again(seed: u64, inputs: &Inputs, times: &mut Vec<f64>, out: &mut Outcome) {
    let t0 = Instant::now();
    let again = setup(seed, PASS);
    times.push(t0.elapsed().as_secs_f64());
    if again.map(|i| i.docs).as_ref() != Ok(&inputs.docs) {
        out.fail_check("same seed generated different documents");
    }
}

/// Host seconds of one pass, from its per-scenario times (ms).
fn pass_seconds(ms: &[f64]) -> f64 {
    ms.iter().sum::<f64>() / 1e3
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let Some((inputs, mut setup_times)) = timed_setup(seed, &mut out) else {
        return out;
    };
    out.note(format!(
        "input digest {} ({} documents, seed {seed}, held-out seed {})",
        inputs.digest.hex(),
        inputs.docs.len(),
        gen::HELD_OUT_SEED
    ));
    let n = inputs.scenarios.len();

    // Timed closed loop: one caller, the next scenario after the previous
    // one returns, whole passes over the scenario set until the time is
    // up. Every pass must reproduce the first pass's reports.
    // Per pass, the wall time of each scenario (ms) in scenario order.
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut reports: Vec<Result<String, String>> = Vec::with_capacity(n);
    let loop_start = Instant::now();
    while passes.is_empty() || loop_start.elapsed().as_secs_f64() < seconds {
        let mut ms = Vec::with_capacity(n);
        for (i, sc) in inputs.scenarios.iter().enumerate() {
            let t0 = Instant::now();
            let r = run_untraced(sc);
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if (i + 1) % SETUP_EVERY == 0 {
                setup_again(seed, &inputs, &mut setup_times, &mut out);
            }
            if passes.is_empty() {
                reports.push(r);
            } else if r != reports[i] {
                out.fail_check(format!("scenario {i}: pass {} differs", passes.len()));
            }
        }
        passes.push(ms);
    }

    // Replay every scenario through the layer decorators: the report
    // must match byte for byte, and the counts give the decisions behind
    // `probes_per_s`.
    let mut decisions = 0;
    let mut modelled = Vec::with_capacity(n);
    let mut digest = Digest::default();
    for (i, (sc, r)) in inputs.scenarios.iter().zip(&reports).enumerate() {
        let clock = Clock::timing();
        let outcome = r.as_ref().map_err(Clone::clone).and_then(|text| {
            let dec = catch_unwind(AssertUnwindSafe(|| run_decorated(sc, &clock)))
                .map_err(|_| "decorated run panicked".to_string())??;
            if dec.report != *text {
                return Err("decorated report differs from scenario::run".into());
            }
            check_report(sc, text)
        });
        match outcome {
            Ok(m) => modelled.push(m),
            Err(e) => {
                out.failed += passes.len() as u64;
                out.fail_check(format!("scenario {i}: {e}"));
            }
        }
        digest.update(r.as_deref().unwrap_or("error").as_bytes());
        decisions += clock.decisions();
    }
    out.attempted = (n * passes.len()) as u64;

    // Each scenario's best time over the passes; the host-speed figures
    // are taken over those.
    let best = report::best_per_input(&passes);
    let transfers: usize = inputs.scenarios.iter().map(|sc| sc.agents.len()).sum();
    let (_, rank, count) = report::tail(&best[..TAIL_SAMPLE.min(n)]);
    let jains: Vec<f64> = modelled.iter().filter_map(|m| m.jain).collect();
    let completed: Vec<f64> = modelled
        .iter()
        .flat_map(|m| m.completed_s.iter().copied())
        .collect();
    let goodputs: Vec<f64> = modelled.iter().map(|m| m.goodput_gbps).collect();
    out.note(format!(
        "{} passes of {n} scenarios in {:.3} s, best per scenario {:.3} s in total; \
         tail = rank {rank} of {count} (p{:.1}) per sample of {count}",
        passes.len(),
        passes.iter().map(|p| pass_seconds(p)).sum::<f64>(),
        pass_seconds(&best),
        100.0 * rank as f64 / count.max(1) as f64
    ));
    out.note(format!(
        "output digest {}; {decisions} decisions, {} completed transfers, {} multi-agent scenarios per pass",
        digest.hex(),
        completed.len(),
        jains.len()
    ));
    out.push("setup_s", report::median(&setup_times), "s");
    out.push(
        "transfers_per_s",
        transfers as f64 / pass_seconds(&best),
        "1/s",
    );
    out.push(
        "probes_per_s",
        decisions as f64 / pass_seconds(&best),
        "1/s",
    );
    out.push("scenario_ms_p50", report::median(&best), "ms");
    let tails: Vec<f64> = best
        .chunks(TAIL_SAMPLE)
        .map(|c| report::tail(c).0)
        .collect();
    out.push("scenario_ms_tail", report::median(&tails), "ms");
    out.push("sim_goodput_gbps", mean(&goodputs), "Gbps");
    out.push("sim_jain", mean(&jains), "ratio");
    out.push("sim_mean_transfer_s", mean(&completed), "s");
    out
}

/// The traced run over the run's scenario set: the per-layer table.
pub fn run_traced(seed: u64) -> Outcome {
    run_traced_on(seed, PASS, &Clock::timing())
}

/// The traced run over the first `count` scenarios of `seed`'s stream
/// (rounded up to whole blocks). `clock` carries the decorators'
/// accumulators; the sensitivity test passes one with an injected delay.
pub fn run_traced_on(seed: u64, count: usize, clock: &Arc<Clock>) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let inputs = match setup(seed, count) {
        Ok(i) => i,
        Err(e) => {
            out.fail_check(format!("set-up: {e}"));
            return out;
        }
    };
    let (mut untraced_s, mut decorated_s) = (0.0, 0.0);
    let (mut run_s, mut build_s, mut clone_s) = (0.0, 0.0, 0.0);
    let (mut steps, mut alloc_runs, mut alloc_skips) = (0u64, 0u64, 0u64);
    let mut digest = Digest::default();
    let mut failed = 0;
    let mut heap_mb = Vec::with_capacity(inputs.scenarios.len());
    for (i, sc) in inputs.scenarios.iter().enumerate() {
        let base = heap::rearm();
        let t0 = Instant::now();
        let plain = run_untraced(sc);
        let t1 = Instant::now();
        heap_mb.push(heap::peak_mb_since(base));
        let dec = catch_unwind(AssertUnwindSafe(|| run_decorated(sc, clock)))
            .map_err(|_| "decorated run panicked".to_string())
            .and_then(|r| r);
        let t2 = Instant::now();
        untraced_s += (t1 - t0).as_secs_f64();
        decorated_s += (t2 - t1).as_secs_f64();
        let counted = catch_unwind(AssertUnwindSafe(|| scenario::run_traced(sc)));
        let checked = (|| -> Result<(), String> {
            let plain = plain?;
            let dec = dec?;
            run_s += dec.run_s;
            build_s += dec.build_s;
            clone_s += dataset_clone_s(sc)?;
            if dec.report != plain {
                return Err("decorated report differs from scenario::run".into());
            }
            let (trace, log) = counted
                .map_err(|_| "run_traced panicked".to_string())?
                .map_err(|e| e.0)?;
            if scenario::render(sc, &trace).map_err(|e| e.0)? != plain {
                return Err("run_traced report differs from scenario::run".into());
            }
            steps += log.counter("sim.steps").unwrap_or(0);
            alloc_runs += log.counter("sim.alloc_runs").unwrap_or(0);
            alloc_skips += log.counter("sim.alloc_skips").unwrap_or(0);
            check_report(sc, &plain)?;
            digest.update(plain.as_bytes());
            Ok(())
        })();
        if let Err(e) = checked {
            failed += 1;
            out.fail_check(format!("scenario {i}: {e}"));
        }
    }
    out.attempted = inputs.scenarios.len() as u64;
    out.failed = failed;
    out.note(format!(
        "input digest {}; output digest {} ({} scenarios)",
        inputs.digest.hex(),
        digest.hex(),
        inputs.scenarios.len()
    ));

    let children = clock.harness_seconds() + clock.tuner_seconds();
    out.push("transfer.scenario.build_s", build_s, "s");
    out.push("transfer.runner.run_s", run_s, "s");
    out.push("transfer.runner.self_s", run_s - children, "s");
    out.push("transfer.runner.dataset_clone_s", clone_s, "s");
    for (name, layer) in [
        ("apply", Layer::Apply),
        ("join", Layer::Join),
        ("sample", Layer::Sample),
        ("rate", Layer::Rate),
        ("leave", Layer::Leave),
        ("query", Layer::Query),
    ] {
        out.push(
            &format!("transfer.harness.{name}_s"),
            clock.seconds(layer),
            "s",
        );
        out.push(
            &format!("transfer.harness.{name}_calls"),
            clock.calls(layer) as f64,
            "count",
        );
    }
    out.push("sim.advance_s", clock.seconds(Layer::Advance), "s");
    out.push(
        "sim.advance_calls",
        clock.calls(Layer::Advance) as f64,
        "count",
    );
    let mut utility_s = 0.0;
    for f in Family::ALL {
        let total = clock.seconds(Layer::Tuner(f));
        let decide = if f.has_optimizer() {
            let d = clock.seconds(Layer::Decide(f));
            utility_s += total - d;
            d
        } else {
            total
        };
        let prefix = f.crate_prefix();
        out.push(&format!("{prefix}.decide_s.{}", f.short()), decide, "s");
        out.push(
            &format!("{prefix}.decisions.{}", f.short()),
            clock.calls(Layer::Tuner(f)) as f64,
            "count",
        );
    }
    out.push("core.utility_s", utility_s, "s");
    out.push("sim.steps", steps as f64, "count");
    out.push("sim.alloc_runs", alloc_runs as f64, "count");
    out.push("sim.alloc_skips", alloc_skips as f64, "count");
    out.push("heap.peak_mb", report::median(&heap_mb), "MB");
    out.push("trace.overhead", decorated_s / untraced_s, "ratio");
    out.push("trace.coverage", children / run_s, "ratio");
    out
}
