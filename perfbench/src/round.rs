//! One round: a workload executed once in a fresh process.
//!
//! The kernel-cost memo in `targets::common` and the build caches are
//! process-global and start empty for every CLI user, so each round runs
//! in its own child process. The child prints its [`Round`] in the line
//! format below; the parent aggregates the rounds of a run.

use std::collections::BTreeMap;

/// Everything one round measured and checked.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Wall-clock time of the first timed operation, ns since the epoch;
    /// the parent subtracts its own spawn time to get `setup_s`.
    pub first_op_unix_ns: u128,
    /// Workload wall time, seconds.
    pub wall_s: f64,
    /// Configurations finished (succeeded, or infeasible in the model).
    pub points: u64,
    /// Operations attempted (points, HTTP requests, searches).
    pub attempted: u64,
    /// Failed operations, by operation label, with the reason.
    pub failures: BTreeMap<String, String>,
    /// `VmHWM` at the end of the round, MiB.
    pub peak_rss_mb: f64,
    /// Named sample lists (latencies, per-point paper errors, lateness).
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Named scalar results with their unit (deterministic checks such
    /// as `dse_gap_pct`, counters).
    pub values: BTreeMap<String, (f64, String)>,
    /// Bit-exact digest of every simulated measurement, by point label,
    /// in workload order.
    pub digests: Vec<(String, u64)>,
}

impl Round {
    /// Record a failed operation (the first reason per operation wins).
    pub fn fail(&mut self, op: impl Into<String>, why: impl Into<String>) {
        self.failures.entry(op.into()).or_insert_with(|| why.into());
    }

    /// Append one sample to a named list.
    pub fn sample(&mut self, name: &str, x: f64) {
        self.samples.entry(name.to_string()).or_default().push(x);
    }

    /// Set a named scalar.
    pub fn value(&mut self, name: &str, x: f64, unit: &str) {
        self.values.insert(name.to_string(), (x, unit.to_string()));
    }

    /// The line format a child prints to its parent.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("first_op_unix_ns {}\n", self.first_op_unix_ns));
        out.push_str(&format!("wall_s {:e}\n", self.wall_s));
        out.push_str(&format!("points {}\n", self.points));
        out.push_str(&format!("attempted {}\n", self.attempted));
        out.push_str(&format!("peak_rss_mb {:e}\n", self.peak_rss_mb));
        for (op, why) in &self.failures {
            out.push_str(&format!(
                "fail {}\t{}\n",
                op,
                why.replace(['\n', '\t'], " ")
            ));
        }
        for (name, xs) in &self.samples {
            let list: Vec<String> = xs.iter().map(|x| format!("{x:e}")).collect();
            out.push_str(&format!("samples {name} {}\n", list.join(",")));
        }
        for (name, (x, unit)) in &self.values {
            out.push_str(&format!("value {name} {unit} {x:e}\n"));
        }
        for (label, d) in &self.digests {
            out.push_str(&format!("digest {d:016x} {label}\n"));
        }
        out
    }

    /// Parse [`to_lines`](Self::to_lines) output; unknown lines are
    /// ignored so a child's human-readable chatter cannot break parsing.
    pub fn from_lines(text: &str) -> Result<Round, String> {
        let mut r = Round::default();
        let num = |s: &str| s.parse::<f64>().map_err(|e| format!("{s:?}: {e}"));
        for line in text.lines() {
            let Some((key, rest)) = line.split_once(' ') else {
                continue;
            };
            match key {
                "first_op_unix_ns" => {
                    r.first_op_unix_ns = rest.parse().map_err(|e| format!("{rest:?}: {e}"))?
                }
                "wall_s" => r.wall_s = num(rest)?,
                "points" => r.points = rest.parse().map_err(|e| format!("{rest:?}: {e}"))?,
                "attempted" => r.attempted = rest.parse().map_err(|e| format!("{rest:?}: {e}"))?,
                "peak_rss_mb" => r.peak_rss_mb = num(rest)?,
                "fail" => {
                    let (op, why) = rest.split_once('\t').unwrap_or((rest, ""));
                    r.fail(op, why);
                }
                "samples" => {
                    let (name, list) = rest.split_once(' ').unwrap_or((rest, ""));
                    let xs = list
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(num)
                        .collect::<Result<Vec<f64>, String>>()?;
                    r.samples.entry(name.to_string()).or_default().extend(xs);
                }
                "value" => {
                    let mut it = rest.splitn(3, ' ');
                    let (Some(name), Some(unit), Some(x)) = (it.next(), it.next(), it.next())
                    else {
                        return Err(format!("bad value line {line:?}"));
                    };
                    r.value(name, num(x)?, unit);
                }
                "digest" => {
                    let (hex, label) = rest.split_once(' ').unwrap_or((rest, ""));
                    let d = u64::from_str_radix(hex, 16).map_err(|e| format!("{hex:?}: {e}"))?;
                    r.digests.push((label.to_string(), d));
                }
                _ => {}
            }
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_its_line_format() {
        let mut r = Round {
            first_op_unix_ns: 1_700_000_000_123_456_789,
            wall_s: 1.25,
            points: 7,
            attempted: 9,
            peak_rss_mb: 12.5,
            ..Round::default()
        };
        r.fail("fig1a/cpu/3", "validation\tfailed");
        r.sample("result_ms", 0.1);
        r.sample("result_ms", 1.0 / 3.0);
        r.value("dse_gap_pct", 9.3, "%");
        r.digests.push(("fig1a cpu 1KiB".into(), 0xdead_beef));
        let back = Round::from_lines(&r.to_lines()).expect("parses");
        assert_eq!(back.first_op_unix_ns, r.first_op_unix_ns);
        assert_eq!(back.wall_s, r.wall_s);
        assert_eq!(back.points, 7);
        assert_eq!(back.attempted, 9);
        assert_eq!(back.samples, r.samples, "floats keep every digit");
        assert_eq!(back.values, r.values);
        assert_eq!(back.digests, r.digests);
        assert_eq!(back.failures.len(), 1);
    }
}
