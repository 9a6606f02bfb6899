//! Metric records, order statistics, digests and the JSON result line.

use std::fmt::Write as _;

/// One reported number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ms`, `1/s`, `MB`, `Gbps`, `count`, `ratio`).
    pub unit: &'static str,
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (scenarios on `agents`, transfers on the
    /// fleet workloads).
    pub attempted: u64,
    /// Operations that failed (error, panic or failed check on
    /// `agents`; stranded transfers on the fleet workloads).
    pub failed: u64,
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line: digests,
    /// sample counts, check results.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Append a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Append a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record a failed check: the run is no longer correct.
    pub fn fail_check(&mut self, what: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {}", what.into()));
    }

    /// Value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The single-line JSON object the benchmark prints last. A
    /// non-finite value cannot be written as JSON; it is printed as 0 and
    /// the run is marked incorrect.
    pub fn json_line(&self) -> String {
        let mut correct = self.correct;
        let mut out = String::from("{");
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                m.value
            } else {
                correct = false;
                0.0
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            );
        }
        let _ = write!(
            out,
            "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
        out
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The layer that moved between two traced runs: the per-layer time
/// (unit `s`, leaving out the `Runner::run` total its layers share) whose
/// value grew the most, in seconds.
pub fn moved_layer(base: &Outcome, candidate: &Outcome) -> Option<String> {
    candidate
        .metrics
        .iter()
        .filter(|m| m.unit == "s" && m.name != "transfer.runner.run_s")
        .map(|m| (m.name.clone(), m.value - base.get(&m.name).unwrap_or(0.0)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(name, _)| name)
}

/// Median of a sample (mean of the two middle values for even counts).
/// Returns 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Each input's best time over the rounds of a closed loop: `rounds[r][i]`
/// is input `i`'s time in round `r`, and every round covers the same
/// inputs. Other tenants of a shared host only ever slow a repetition
/// down (on a shared 2-vCPU VM, by 16% for a compute-bound kernel and by
/// a third or more for memory-bound code), so the fastest repetition is
/// the estimate that least depends on them.
pub fn best_per_input(rounds: &[Vec<f64>]) -> Vec<f64> {
    let mut best = rounds.first().cloned().unwrap_or_default();
    for round in &rounds[1.min(rounds.len())..] {
        for (b, &t) in best.iter_mut().zip(round) {
            *b = b.min(t);
        }
    }
    best
}

/// The tail order statistic: the highest rank that still has at least
/// ten samples beyond it. Returns `(value, rank, count)` with a 1-based
/// rank in ascending order; samples of ten or fewer report the maximum.
pub fn tail(values: &[f64]) -> (f64, usize, usize) {
    let n = values.len();
    if n == 0 {
        return (0.0, 0, 0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = if n > 10 { n - 10 } else { n };
    (v[rank - 1], rank, n)
}

/// 64-bit FNV-1a digest, folded over several byte strings.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold in bytes, followed by a separator so `["ab","c"]` and
    /// `["a","bc"]` differ.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(std::iter::once(&0xff)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hex form for printing.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Jain's fairness index of a set of shares (1 for an empty or all-zero
/// set).
pub fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        1.0
    } else {
        sum * sum / (xs.len() as f64 * sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (190.0, 190, 200));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 3, 3));
    }

    #[test]
    fn best_per_input_takes_each_inputs_minimum() {
        let rounds = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 6.0],
            vec![9.0, 9.0, 4.0],
        ];
        assert_eq!(best_per_input(&rounds), vec![2.0, 1.0, 4.0]);
        assert!(best_per_input(&[]).is_empty());
    }

    #[test]
    fn json_line_is_one_object() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        o.push("setup_s", 0.5, "s");
        o.push("x", 2.0, "count");
        assert_eq!(
            o.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
