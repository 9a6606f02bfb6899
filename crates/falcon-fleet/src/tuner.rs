//! The tuner registry: the one table that turns a tuner's spelling
//! (`falcon-gd`, `rl:warm`, `fixed:8`, ...) into a constructed tuner.
//! Scenario agents, both fleet engines and the experiments all build
//! through [`TunerSpec`], so a spelling means the same tuner wherever it
//! appears.

use std::fmt;

use falcon_baselines::{GlobusTuner, HarpHistory, HarpTuner};
use falcon_core::optimizer::OnlineOptimizer;
use falcon_core::{FalconAgent, SearchBounds, TransferSettings, UtilityFunction};
use falcon_rl::{BanditOptimizer, BanditParams, QParams, TabularQOptimizer, WarmTable};
use falcon_transfer::dataset::Dataset;
use falcon_transfer::runner::{FixedTuner, Tuner};

/// Which learning-based tuner an `rl:*` spelling names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RlKind {
    /// Seeded epsilon-greedy/UCB bandit over the concurrency lattice.
    Bandit,
    /// Tabular Q-learner with coarse state features.
    Q,
    /// Bandit warm-started from an offline value table fitted on a
    /// synthetic HARP corpus.
    Warm,
}

/// Knobs of the `rl:*` learning tuners (a scenario's `[optimizer]`
/// section). `epsilon`, `alpha` and `gamma` default to the `falcon-rl`
/// parameters; `warm_gbps` defaults to a 10 Gbps corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerSpec {
    /// Bandit exploration-jump probability (`BanditParams::epsilon`).
    pub epsilon: f64,
    /// Bandit recency-blend floor (`BanditParams::alpha_floor`).
    pub alpha: f64,
    /// Q-learner discount factor (`QParams::gamma`).
    pub gamma: f64,
    /// Warm-start corpus capacity in Gbps
    /// (`HarpHistory::for_capacity_gbps`).
    pub warm_gbps: f64,
}

impl Default for OptimizerSpec {
    fn default() -> Self {
        let b = BanditParams::new(2, 0);
        let q = QParams::new(2, 0);
        OptimizerSpec {
            epsilon: b.epsilon,
            alpha: b.alpha_floor,
            gamma: q.gamma,
            warm_gbps: 10.0,
        }
    }
}

/// A tuner, named by its scenario-file spelling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TunerSpec {
    /// `falcon-gd`: Falcon gradient descent (the paper's shared-network
    /// choice).
    GradientDescent,
    /// `falcon-hc`: Falcon hill climbing.
    HillClimbing,
    /// `falcon-bo`: Falcon Bayesian optimization.
    Bayesian,
    /// `falcon-mp`: Falcon's multi-parameter (cc, p, pp) search.
    MultiParameter,
    /// `rl:bandit`, `rl:q`, `rl:warm`: a learning tuner from `falcon-rl`.
    Rl(RlKind),
    /// `globus`: Globus's static per-dataset heuristic.
    Globus,
    /// `harp` (the 10G-class corpus) or `harp:<gbps>` (a corpus
    /// extrapolating to `gbps`, finite and > 0).
    Harp(Option<f64>),
    /// `harp-rt`: HARP with run-time re-tuning.
    HarpRuntime,
    /// `fixed:<cc>`: no tuning, `cc >= 1` connections throughout.
    Fixed(u32),
}

impl TunerSpec {
    /// Parse a tuner spelling. The error names the spelling and, for an
    /// unknown name, lists every accepted one.
    pub fn parse(s: &str) -> Result<TunerSpec, String> {
        if let Some(cc) = s.strip_prefix("fixed:") {
            return match cc.parse() {
                Ok(cc) if cc >= 1 => Ok(TunerSpec::Fixed(cc)),
                _ => Err(format!("tuner {s:?}: concurrency must be an integer >= 1")),
            };
        }
        if let Some(gbps) = s.strip_prefix("harp:") {
            return match gbps.parse::<f64>() {
                Ok(g) if g.is_finite() && g > 0.0 => Ok(TunerSpec::Harp(Some(g))),
                _ => Err(format!("tuner {s:?}: capacity must be finite Gbps > 0")),
            };
        }
        Ok(match s {
            "falcon-gd" => TunerSpec::GradientDescent,
            "falcon-hc" => TunerSpec::HillClimbing,
            "falcon-bo" => TunerSpec::Bayesian,
            "falcon-mp" => TunerSpec::MultiParameter,
            "rl:bandit" => TunerSpec::Rl(RlKind::Bandit),
            "rl:q" => TunerSpec::Rl(RlKind::Q),
            "rl:warm" => TunerSpec::Rl(RlKind::Warm),
            "globus" => TunerSpec::Globus,
            "harp" => TunerSpec::Harp(None),
            "harp-rt" => TunerSpec::HarpRuntime,
            _ => {
                return Err(format!(
                    "unknown tuner {s:?} (expected falcon-gd|falcon-hc|falcon-bo|falcon-mp|\
                     rl:bandit|rl:q|rl:warm|globus|harp|harp:<gbps>|harp-rt|fixed:<cc>)"
                ))
            }
        })
    }

    /// The tuner as a [`FalconAgent`], for the spellings that are one
    /// (`falcon-*` and `rl:*`); `None` for the baselines and `fixed:<cc>`.
    /// `opt` applies to the `rl:*` tuners only.
    pub fn agent(&self, opt: &OptimizerSpec, max_cc: u32, seed: u64) -> Option<FalconAgent> {
        self.construct(opt, max_cc, seed).ok()
    }

    /// Build one transfer's tuner. `opt` applies to the `rl:*` tuners
    /// only.
    pub fn build(&self, opt: &OptimizerSpec, max_cc: u32, seed: u64) -> Box<dyn Tuner> {
        match self.construct(opt, max_cc, seed) {
            Ok(agent) => Box::new(agent),
            Err(tuner) => tuner,
        }
    }

    /// `Ok` with the agent for the [`FalconAgent`] family, `Err` with the
    /// built tuner for every other spelling.
    fn construct(
        &self,
        opt: &OptimizerSpec,
        max_cc: u32,
        seed: u64,
    ) -> Result<FalconAgent, Box<dyn Tuner>> {
        let learner = |optimizer: Box<dyn OnlineOptimizer>| {
            Ok(FalconAgent::new(
                UtilityFunction::falcon_default(),
                optimizer,
            ))
        };
        let bandit = || {
            let mut params = BanditParams::new(max_cc, seed);
            params.epsilon = opt.epsilon;
            params.alpha_floor = opt.alpha;
            params
        };
        match *self {
            TunerSpec::GradientDescent => Ok(FalconAgent::gradient_descent(max_cc)),
            TunerSpec::HillClimbing => Ok(FalconAgent::hill_climbing(max_cc)),
            TunerSpec::Bayesian => Ok(FalconAgent::bayesian(max_cc, seed)),
            TunerSpec::MultiParameter => Ok(FalconAgent::multi_parameter(
                SearchBounds::multi_parameter(max_cc, 8, 32),
            )),
            TunerSpec::Rl(RlKind::Bandit) => learner(Box::new(BanditOptimizer::new(bandit()))),
            TunerSpec::Rl(RlKind::Q) => {
                let mut q = QParams::new(max_cc, seed);
                q.gamma = opt.gamma;
                learner(Box::new(TabularQOptimizer::new(q)))
            }
            TunerSpec::Rl(RlKind::Warm) => {
                let params = bandit();
                let history = HarpHistory::for_capacity_gbps(opt.warm_gbps);
                let table = WarmTable::fit(&history, &params.bounds, 24, seed);
                learner(Box::new(BanditOptimizer::warm_started(params, &table)))
            }
            TunerSpec::Globus => {
                let dataset = Dataset::uniform_1gb(1000);
                Err(Box::new(GlobusTuner::for_dataset(&dataset)))
            }
            TunerSpec::Harp(gbps) => Err(Box::new(HarpTuner::new(
                gbps.map_or_else(HarpHistory::ten_gig_corpus, HarpHistory::for_capacity_gbps),
            ))),
            TunerSpec::HarpRuntime => Err(Box::new(
                HarpTuner::new(HarpHistory::ten_gig_corpus()).with_runtime_retuning(4),
            )),
            TunerSpec::Fixed(cc) => Err(Box::new(FixedTuner {
                settings: TransferSettings::with_concurrency(cc),
                name: self.to_string(),
            })),
        }
    }
}

/// The canonical spelling: `TunerSpec::parse(&t.to_string()) == Ok(t)`.
impl fmt::Display for TunerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TunerSpec::GradientDescent => f.write_str("falcon-gd"),
            TunerSpec::HillClimbing => f.write_str("falcon-hc"),
            TunerSpec::Bayesian => f.write_str("falcon-bo"),
            TunerSpec::MultiParameter => f.write_str("falcon-mp"),
            TunerSpec::Rl(RlKind::Bandit) => f.write_str("rl:bandit"),
            TunerSpec::Rl(RlKind::Q) => f.write_str("rl:q"),
            TunerSpec::Rl(RlKind::Warm) => f.write_str("rl:warm"),
            TunerSpec::Globus => f.write_str("globus"),
            TunerSpec::Harp(None) => f.write_str("harp"),
            TunerSpec::Harp(Some(gbps)) => write!(f, "harp:{gbps}"),
            TunerSpec::HarpRuntime => f.write_str("harp-rt"),
            TunerSpec::Fixed(cc) => write!(f, "fixed:{cc}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spelling_parses_round_trips_and_builds() {
        // (spelling, the agent's optimizer for the FalconAgent family)
        let table = [
            ("falcon-gd", Some("gradient-descent")),
            ("falcon-hc", Some("hill-climbing")),
            ("falcon-bo", Some("bayesian-optimization")),
            ("falcon-mp", Some("conjugate-gradient")),
            ("rl:bandit", Some("rl-bandit")),
            ("rl:q", Some("rl-q")),
            ("rl:warm", Some("rl-warm")),
            ("globus", None),
            ("harp", None),
            ("harp:20", None),
            ("harp-rt", None),
            ("fixed:8", None),
        ];
        let opt = OptimizerSpec::default();
        for (name, optimizer) in table {
            let t = TunerSpec::parse(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(t.to_string(), name);
            assert_eq!(TunerSpec::parse(&t.to_string()), Ok(t));
            assert!(!t.build(&opt, 32, 1).label().is_empty(), "{name}");
            let agent = t.agent(&opt, 32, 1);
            assert_eq!(agent.map(|a| a.optimizer_name()), optimizer, "{name}");
        }
    }

    #[test]
    fn rejects_unknown_names_and_malformed_parameters() {
        for bad in [
            "skynet", "rl:sarsa", "fixed:0", "fixed:x", "fixed:", "fixed:-2", "harp:nan",
            "harp:inf", "harp:-5", "harp:0", "harp:",
        ] {
            let err = TunerSpec::parse(bad).expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")), "{bad}: {err}");
        }
    }
}
