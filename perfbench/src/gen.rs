//! Seeded input generators. The same seed always gives byte-identical
//! inputs; the product receives only the generated documents and specs.

use falcon_cli::scenario::{self, AgentSpec, Scenario};
use falcon_fleet::{
    correlated_failure_waves, RlKind, ScaleCampaignSpec, ScaleTopology, ScaleTuner, ScaleWorkload,
};
use falcon_sim::{EnvironmentEvent, EventAction};

/// The held-out seed: never used while the benchmark was tuned, kept for
/// confirming a later performance claim on unseen inputs.
pub const HELD_OUT_SEED: u64 = 90_001;

/// SplitMix64: a small, fully specified generator, so the inputs do not
/// depend on any library's RNG stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seed the stream. Distinct workloads salt the seed so their
    /// streams never coincide.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The seven environment presets `falcon_cli::run::resolve_env` knows.
pub const ENVS: [&str; 7] = [
    "emulab",
    "emulab48",
    "fig4",
    "xsede",
    "hpclab",
    "campus",
    "stampede2",
];

/// Every tuner spelling a scenario accepts (`fixed` gets a `:<cc>`).
pub const TUNERS: [&str; 11] = [
    "falcon-gd",
    "falcon-hc",
    "falcon-bo",
    "falcon-mp",
    "rl:bandit",
    "rl:q",
    "rl:warm",
    "harp",
    "harp-rt",
    "globus",
    "fixed",
];

/// Scenarios per generator block. Each block holds every environment
/// twice and every tuner and dataset class three times, so any run of
/// whole blocks has the same mix whatever the seed; the seed shuffles
/// the pairings and draws every continuous parameter.
pub const BLOCK: usize = 14;

/// Agents per scenario across one block: 1 to 4, 33 agents in total
/// (three tuner decks of 11).
const AGENT_COUNTS: [usize; BLOCK] = [1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4];

/// Dataset classes per deck: the three §4.4 datasets and eight
/// log-spaced strata of `1gb:<count>` between 10³ and 10⁶ files.
const DATASET_DECK: usize = 11;

/// `1gb:<count>` strata in the dataset deck.
const FILE_STRATA: usize = 8;

fn dataset_class(rng: &mut Rng, class: usize) -> String {
    match class {
        0 => "small".into(),
        1 => "large".into(),
        2 => "mixed".into(),
        s => {
            let pos = ((s - 3) as f64 + rng.unit()) / FILE_STRATA as f64;
            let count = 10f64.powf(3.0 + 3.0 * pos).round() as u64;
            format!("1gb:{}", count.clamp(1_000, 1_000_000))
        }
    }
}

/// A shuffled deck holding `copies` of each of `0..kinds`.
fn deck(rng: &mut Rng, kinds: usize, copies: usize) -> Vec<usize> {
    let mut d: Vec<usize> = (0..copies).flat_map(|_| 0..kinds).collect();
    rng.shuffle(&mut d);
    d
}

/// Generate one block of scenarios.
fn block(rng: &mut Rng) -> Vec<Scenario> {
    let mut envs: Vec<usize> = (0..ENVS.len()).chain(0..ENVS.len()).collect();
    rng.shuffle(&mut envs);
    let mut counts = AGENT_COUNTS;
    rng.shuffle(&mut counts);
    let mut durations: Vec<f64> = (0..BLOCK)
        .map(|i| (150.0 + 300.0 * (i as f64 + rng.unit()) / BLOCK as f64).round())
        .collect();
    rng.shuffle(&mut durations);
    let mut flaps: Vec<bool> = (0..BLOCK).map(|i| i % 2 == 0).collect();
    rng.shuffle(&mut flaps);
    let tuners = deck(rng, TUNERS.len(), 3);
    let datasets = deck(rng, DATASET_DECK, 3);
    let mut slot = 0;

    (0..BLOCK)
        .map(|i| {
            let duration_s = durations[i];
            let agents = (0..counts[i])
                .map(|a| {
                    let tuner = match TUNERS[tuners[slot]] {
                        "fixed" => format!("fixed:{}", 1 + rng.below(16)),
                        t => t.to_string(),
                    };
                    let dataset = dataset_class(rng, datasets[slot]);
                    slot += 1;
                    let start_s = if a == 0 {
                        0.0
                    } else {
                        (rng.unit() * 0.5 * duration_s).round()
                    };
                    let leave_s = (rng.below(4) == 0).then(|| {
                        (start_s + (0.4 + 0.5 * rng.unit()) * (duration_s - start_s)).round()
                    });
                    AgentSpec {
                        tuner,
                        start_s,
                        leave_s,
                        dataset,
                    }
                })
                .collect();
            let events = if flaps[i] {
                let at = ((0.3 + 0.2 * rng.unit()) * duration_s).round();
                let back = at + ((0.1 + 0.1 * rng.unit()) * duration_s).round();
                let factor = (30.0 + 40.0 * rng.unit()).round() / 100.0;
                vec![
                    EnvironmentEvent::at(
                        at,
                        EventAction::LinkCapacityFactor {
                            resource: None,
                            factor,
                        },
                    ),
                    EnvironmentEvent::at(
                        back,
                        EventAction::LinkCapacityFactor {
                            resource: None,
                            factor: 1.0,
                        },
                    ),
                ]
            } else {
                Vec::new()
            };
            Scenario {
                env: ENVS[envs[i]].to_string(),
                duration_s,
                seed: rng.next_u64() >> 16,
                agents,
                events,
                ..Scenario::default()
            }
        })
        .collect()
}

/// The first `count` scenario documents of the `agents` stream for
/// `seed`, rounded up to whole blocks, as canonical INI text.
pub fn agent_documents(seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 1);
    let mut docs = Vec::with_capacity(count + BLOCK);
    while docs.len() < count {
        docs.extend(block(&mut rng).iter().map(scenario::serialize));
    }
    docs
}

/// Fleet workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetKind {
    /// Pod-local k=8 fat-tree, fixed concurrency, no capacity events.
    Fabric,
    /// `dumbbell:16x3` with `rl:bandit` per transfer, failure waves,
    /// diurnal load and tenant churn.
    Wan,
}

impl FleetKind {
    /// The topology spec string `ScaleTopology::from_spec` parses.
    pub fn topology_spec(self) -> &'static str {
        match self {
            FleetKind::Fabric => "fat-tree:8:local",
            FleetKind::Wan => "dumbbell:16x3",
        }
    }

    /// Campaign inputs per run; each run cycles over this many specs with
    /// distinct seeds. Fabric campaigns cost nearly the same whatever the
    /// seed, so one input leaves room for three timed repetitions; a wan
    /// campaign's cost moves by a third with its seed, so a run averages
    /// four.
    pub fn inputs(self) -> usize {
        match self {
            FleetKind::Fabric => 1,
            FleetKind::Wan => 4,
        }
    }

    /// Transfers in each of the workload's campaigns.
    pub fn transfers(self) -> usize {
        match self {
            FleetKind::Fabric => 100_000,
            FleetKind::Wan => 20_000,
        }
    }
}

/// Build campaign spec number `input` of a run: parse the topology,
/// derive its route components and failure waves, and draw the
/// campaign's seed from the run's seed. `transfers` overrides the
/// workload's size (the traced run's size-growth probe uses 10⁴).
pub fn fleet_spec(
    kind: FleetKind,
    seed: u64,
    input: usize,
    transfers: usize,
) -> Option<ScaleCampaignSpec> {
    let topology = ScaleTopology::from_spec(kind.topology_spec())?;
    let mut rng = Rng::new(seed, 2 + kind as u64);
    for _ in 0..input {
        rng.next_u64();
    }
    let seed = rng.next_u64() >> 16;
    Some(match kind {
        FleetKind::Fabric => {
            // One shard per pod, as `ScaleCampaignSpec::fat_tree_local`.
            ScaleCampaignSpec {
                topology,
                workload: ScaleWorkload {
                    transfers,
                    arrivals_per_min: 60_000.0,
                    mean_file_mb: 50.0,
                    concurrency: 2,
                    per_conn_cap_mbps: 750.0,
                    ..ScaleWorkload::default()
                },
                failures: Vec::new(),
                duration_s: 600.0,
                seed,
                shards: 8,
            }
        }
        FleetKind::Wan => {
            let duration_s = 3000.0;
            let failures = correlated_failure_waves(&topology, 3, duration_s);
            ScaleCampaignSpec {
                topology,
                workload: ScaleWorkload {
                    transfers,
                    arrivals_per_min: 800.0,
                    mean_file_mb: 800.0,
                    tuner: ScaleTuner::Rl(RlKind::Bandit),
                    diurnal: 0.4,
                    tenants: 3,
                    ..ScaleWorkload::default()
                },
                failures,
                duration_s,
                seed,
                shards: 16,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_balance_tuners_and_envs() {
        let docs = agent_documents(7, BLOCK);
        assert_eq!(docs.len(), BLOCK);
        for t in TUNERS {
            let n: usize = docs
                .iter()
                .map(|d| d.matches(&format!("tuner = {t}")).count())
                .sum();
            // `harp` also prefixes `harp-rt`.
            let expect = if t == "harp" { 6 } else { 3 };
            assert_eq!(n, expect, "{t}");
        }
        for e in ENVS {
            let n = docs
                .iter()
                .filter(|d| d.starts_with(&format!("env = {e}\n")))
                .count();
            assert_eq!(n, 2, "{e}");
        }
    }

    #[test]
    fn same_seed_same_bytes() {
        assert_eq!(agent_documents(3, 30), agent_documents(3, 30));
        assert_ne!(agent_documents(3, 14), agent_documents(4, 14));
        for kind in [FleetKind::Fabric, FleetKind::Wan] {
            let a = fleet_spec(kind, 5, 1, 1000).expect("spec");
            let b = fleet_spec(kind, 5, 1, 1000).expect("spec");
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_ne!(a.seed, fleet_spec(kind, 5, 0, 1000).expect("spec").seed);
        }
    }
}
