//! Outside-in layer timing: decorators on the `TransferHarness`, `Tuner`
//! and `OnlineOptimizer` trait seams that time each call into the layer
//! below and count it. No product code changes; the decorators forward
//! every trait method, so a decorated run must render the same report as
//! an undecorated one (the `agents` workload checks this byte for byte).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use falcon_core::optimizer::{Observation, OnlineOptimizer};
use falcon_core::{ProbeMetrics, TransferSettings};
use falcon_trace::Tracer;
use falcon_transfer::dataset::Dataset;
use falcon_transfer::harness::TransferHarness;
use falcon_transfer::runner::Tuner;

/// Tuner families, one per decision-making implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// falcon-core gradient descent.
    Gd,
    /// falcon-core hill climbing.
    Hc,
    /// falcon-core Bayesian optimization (falcon-gp surrogate).
    Bo,
    /// falcon-core multi-parameter conjugate gradient.
    Mp,
    /// falcon-rl contextual bandit.
    Bandit,
    /// falcon-rl tabular Q-learner.
    Q,
    /// falcon-rl warm-started bandit.
    Warm,
    /// falcon-baselines HARP (with or without runtime re-tuning).
    Harp,
    /// falcon-baselines Globus static heuristic.
    Globus,
    /// Pinned concurrency.
    Fixed,
}

impl Family {
    /// Every family, in report order.
    pub const ALL: [Family; 10] = [
        Family::Gd,
        Family::Hc,
        Family::Bo,
        Family::Mp,
        Family::Bandit,
        Family::Q,
        Family::Warm,
        Family::Harp,
        Family::Globus,
        Family::Fixed,
    ];

    /// The family of a scenario tuner spelling.
    pub fn of(spec: &str) -> Option<Family> {
        Some(match spec {
            "falcon-gd" => Family::Gd,
            "falcon-hc" => Family::Hc,
            "falcon-bo" => Family::Bo,
            "falcon-mp" => Family::Mp,
            "rl:bandit" => Family::Bandit,
            "rl:q" => Family::Q,
            "rl:warm" => Family::Warm,
            "harp" | "harp-rt" => Family::Harp,
            "globus" => Family::Globus,
            s if s.starts_with("fixed:") => Family::Fixed,
            _ => return None,
        })
    }

    /// `core`, `rl` or `baselines`: the crate whose decision code runs.
    pub fn crate_prefix(self) -> &'static str {
        match self {
            Family::Gd | Family::Hc | Family::Bo | Family::Mp => "core",
            Family::Bandit | Family::Q | Family::Warm => "rl",
            Family::Harp | Family::Globus | Family::Fixed => "baselines",
        }
    }

    /// Whether decisions go through an `OnlineOptimizer` inside a
    /// `FalconAgent` (so `Tuner::on_sample` minus `next` is utility work).
    pub fn has_optimizer(self) -> bool {
        self.crate_prefix() != "baselines"
    }

    /// Short name used in metric names.
    pub fn short(self) -> &'static str {
        match self {
            Family::Gd => "gd",
            Family::Hc => "hc",
            Family::Bo => "bo",
            Family::Mp => "mp",
            Family::Bandit => "bandit",
            Family::Q => "q",
            Family::Warm => "warm",
            Family::Harp => "harp",
            Family::Globus => "globus",
            Family::Fixed => "fixed",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A timed boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `TransferHarness::apply`.
    Apply,
    /// `TransferHarness::join`.
    Join,
    /// `TransferHarness::sample`.
    Sample,
    /// `TransferHarness::instantaneous_mbps`.
    Rate,
    /// `TransferHarness::leave` and `restart`.
    Leave,
    /// `TransferHarness::advance_until` and `advance` (the simulator).
    Advance,
    /// The harness's read-only queries: `time_s`, `is_complete`,
    /// `is_attached`, `current_settings`, `sample_interval_s`,
    /// `max_concurrency`.
    Query,
    /// `OnlineOptimizer::next` and `initial` of one family.
    Decide(Family),
    /// `Tuner::on_sample` and `initial` of one family.
    Tuner(Family),
}

const HARNESS_LAYERS: usize = 7;
const SLOTS: usize = HARNESS_LAYERS + 2 * Family::ALL.len();

impl Layer {
    fn index(self) -> usize {
        match self {
            Layer::Apply => 0,
            Layer::Join => 1,
            Layer::Sample => 2,
            Layer::Rate => 3,
            Layer::Leave => 4,
            Layer::Advance => 5,
            Layer::Query => 6,
            Layer::Decide(f) => HARNESS_LAYERS + f.index(),
            Layer::Tuner(f) => HARNESS_LAYERS + Family::ALL.len() + f.index(),
        }
    }
}

/// Extra work injected into one layer, for the sensitivity test: the
/// layer table must name the layer that was slowed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Injection {
    /// Busy-wait so the layer's measured time is multiplied by the factor.
    Scale(f64),
    /// Busy-wait this long on every call.
    PerCall(Duration),
}

/// Per-layer accumulators shared by every decorator of one run. Atomics
/// (relaxed: plain statistics that publish no other data) because the
/// `OnlineOptimizer` seam requires `Send`.
#[derive(Debug)]
pub struct Clock {
    inject: Option<(Layer, Injection)>,
    ns: [AtomicU64; SLOTS],
    calls: [AtomicU64; SLOTS],
}

impl Clock {
    /// A clock that times and counts every call.
    pub fn timing() -> Arc<Clock> {
        Arc::new(Clock::new(None))
    }

    /// A timing clock that slows one layer.
    pub fn with_injection(layer: Layer, injection: Injection) -> Arc<Clock> {
        Arc::new(Clock::new(Some((layer, injection))))
    }

    fn new(inject: Option<(Layer, Injection)>) -> Clock {
        Clock {
            inject,
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Run `f` as one counted call into `layer`.
    pub fn span<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.calls[layer.index()].fetch_add(1, Ordering::Relaxed);
        self.time(layer, f)
    }

    /// Run `f` inside `layer`'s time without counting a call.
    pub fn time<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        if let Some((l, inj)) = self.inject {
            if l == layer {
                let extra = match inj {
                    Injection::Scale(k) => t0.elapsed().mul_f64((k - 1.0).max(0.0)),
                    Injection::PerCall(d) => d,
                };
                let until = Instant::now() + extra;
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
        }
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns[layer.index()].fetch_add(ns, Ordering::Relaxed);
        out
    }

    /// Seconds accumulated in a layer.
    pub fn seconds(&self, layer: Layer) -> f64 {
        self.ns[layer.index()].load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Calls counted into a layer.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()].load(Ordering::Relaxed)
    }

    /// Seconds spent in all harness layers.
    pub fn harness_seconds(&self) -> f64 {
        [
            Layer::Apply,
            Layer::Join,
            Layer::Sample,
            Layer::Rate,
            Layer::Leave,
            Layer::Advance,
            Layer::Query,
        ]
        .iter()
        .map(|&l| self.seconds(l))
        .sum()
    }

    /// Seconds spent in all tuners (decisions and utility work).
    pub fn tuner_seconds(&self) -> f64 {
        Family::ALL
            .iter()
            .map(|&f| self.seconds(Layer::Tuner(f)))
            .sum()
    }

    /// Tuner decisions (`on_sample` calls) across families.
    pub fn decisions(&self) -> u64 {
        Family::ALL
            .iter()
            .map(|&f| self.calls(Layer::Tuner(f)))
            .sum()
    }
}

/// A `TransferHarness` that times every call that does work and forwards
/// every method, defaults included, to the wrapped harness.
pub struct TimedHarness<H> {
    /// The wrapped substrate.
    pub inner: H,
    clock: Arc<Clock>,
}

impl<H> TimedHarness<H> {
    /// Wrap a harness.
    pub fn new(inner: H, clock: Arc<Clock>) -> Self {
        TimedHarness { inner, clock }
    }
}

impl<H: TransferHarness> TransferHarness for TimedHarness<H> {
    fn join(&mut self, dataset: Dataset) -> usize {
        let inner = &mut self.inner;
        self.clock.span(Layer::Join, || inner.join(dataset))
    }

    fn apply(&mut self, agent: usize, settings: TransferSettings) {
        let inner = &mut self.inner;
        self.clock
            .span(Layer::Apply, || inner.apply(agent, settings));
    }

    fn advance(&mut self, dt_s: f64) {
        let inner = &mut self.inner;
        self.clock.span(Layer::Advance, || inner.advance(dt_s));
    }

    fn advance_until(&mut self, t_s: f64) {
        let inner = &mut self.inner;
        self.clock.span(Layer::Advance, || inner.advance_until(t_s));
    }

    fn set_time_resolution(&mut self, dt_s: f64) {
        self.inner.set_time_resolution(dt_s);
    }

    fn sample(&mut self, agent: usize) -> ProbeMetrics {
        let inner = &mut self.inner;
        self.clock.span(Layer::Sample, || inner.sample(agent))
    }

    fn instantaneous_mbps(&self, agent: usize) -> f64 {
        self.clock
            .span(Layer::Rate, || self.inner.instantaneous_mbps(agent))
    }

    fn current_settings(&self, agent: usize) -> TransferSettings {
        self.clock
            .span(Layer::Query, || self.inner.current_settings(agent))
    }

    fn is_complete(&self, agent: usize) -> bool {
        self.clock
            .span(Layer::Query, || self.inner.is_complete(agent))
    }

    fn leave(&mut self, agent: usize) {
        let inner = &mut self.inner;
        self.clock.span(Layer::Leave, || inner.leave(agent));
    }

    fn time_s(&self) -> f64 {
        self.clock.span(Layer::Query, || self.inner.time_s())
    }

    fn sample_interval_s(&self) -> f64 {
        self.clock
            .span(Layer::Query, || self.inner.sample_interval_s())
    }

    fn max_concurrency(&self) -> u32 {
        self.clock
            .span(Layer::Query, || self.inner.max_concurrency())
    }

    fn is_attached(&self, agent: usize) -> bool {
        self.clock
            .span(Layer::Query, || self.inner.is_attached(agent))
    }

    fn restart(&mut self, agent: usize) -> bool {
        let inner = &mut self.inner;
        self.clock.span(Layer::Leave, || inner.restart(agent))
    }
}

/// An `OnlineOptimizer` that times `next` (and `initial`) of the
/// optimizer it wraps.
pub struct TimedOptimizer {
    inner: Box<dyn OnlineOptimizer>,
    family: Family,
    clock: Arc<Clock>,
}

impl TimedOptimizer {
    /// Wrap an optimizer of `family`.
    pub fn new(inner: Box<dyn OnlineOptimizer>, family: Family, clock: Arc<Clock>) -> Self {
        TimedOptimizer {
            inner,
            family,
            clock,
        }
    }
}

impl OnlineOptimizer for TimedOptimizer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initial(&self) -> TransferSettings {
        self.clock
            .time(Layer::Decide(self.family), || self.inner.initial())
    }

    fn next(&mut self, obs: &Observation) -> TransferSettings {
        let inner = &mut self.inner;
        self.clock
            .span(Layer::Decide(self.family), || inner.next(obs))
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }
}

/// A `Tuner` that times `on_sample` (and `initial`) of the tuner it
/// wraps; each `on_sample` call counts as one decision.
pub struct TimedTuner {
    inner: Box<dyn Tuner>,
    family: Family,
    clock: Arc<Clock>,
}

impl TimedTuner {
    /// Wrap a tuner of `family`.
    pub fn new(inner: Box<dyn Tuner>, family: Family, clock: Arc<Clock>) -> Self {
        TimedTuner {
            inner,
            family,
            clock,
        }
    }
}

impl Tuner for TimedTuner {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn initial(&mut self) -> TransferSettings {
        let inner = &mut self.inner;
        self.clock
            .time(Layer::Tuner(self.family), || inner.initial())
    }

    fn on_sample(&mut self, metrics: &ProbeMetrics) -> TransferSettings {
        let inner = &mut self.inner;
        self.clock
            .span(Layer::Tuner(self.family), || inner.on_sample(metrics))
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }
}
