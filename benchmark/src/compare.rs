//! `compare A B`: did the end-to-end metrics move between two sets of
//! runs, judged against the registry's bounds?

use crate::json::Json;
use crate::metrics::{Better, Def, END_TO_END};
use crate::stats;
use std::collections::BTreeMap;

/// What happened to one metric on one workload between set A and set B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than both sets' own spread.
    Improved,
    /// B's median is within the bound of A's.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Run-to-run spread exceeds the bound, and the sets overlap.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric from the two sets' values. How much worse B's
/// median is than A's is taken as a share of A's median.
pub fn judge(def: &Def, a: &[f64], b: &[f64]) -> Option<(Verdict, f64)> {
    let bound = def.bound?;
    let (ma, mb) = (stats::median(a)?, stats::median(b)?);
    let sign = match def.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse = sign * (mb - ma) / ma.abs();
    let spread = stats::spread(a)
        .unwrap_or(0.0)
        .max(stats::spread(b).unwrap_or(0.0));
    // "Every run of B reads better than every run of A."
    let all_better = a.iter().all(|x| b.iter().all(|y| sign * (y - x) < 0.0));
    let verdict = if spread > bound {
        if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else if all_better
        && -worse
            > if a.len().min(b.len()) > 1 {
                spread
            } else {
                bound
            }
    {
        // Without repeats there is no spread to clear: ask for the bound.
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Some((verdict, worse))
}

/// The runs of one workload in one file.
#[derive(Debug, Default)]
struct Runs {
    metrics: BTreeMap<String, Vec<f64>>,
    attempted: f64,
    failed: f64,
    late: f64,
    incorrect: usize,
    digests: Vec<(u64, String)>,
}

fn load(path: &str) -> Result<BTreeMap<String, Runs>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<String, Runs> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", i + 1))?;
        let runs = out.entry(workload.to_string()).or_default();
        let num = |key: &str| rec.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        runs.attempted += num("attempted");
        runs.failed += num("failed");
        runs.late += num("late");
        runs.incorrect += usize::from(rec.get("correct") != Some(&Json::Bool(true)));
        if let Some(d) = rec.get("wire_digest").and_then(Json::as_str) {
            runs.digests.push((num("seed") as u64, d.to_string()));
        }
        for (name, m) in rec.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.metrics.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// Compares two result files; prints one line per workload × end-to-end
/// metric. `Ok(true)` when nothing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    for (workload, ra) in &a {
        let Some(rb) = b.get(workload) else {
            println!("{workload}: only in {path_a}");
            continue;
        };
        for def in END_TO_END {
            let (Some(va), Some(vb)) = (ra.metrics.get(def.name), rb.metrics.get(def.name)) else {
                continue;
            };
            let Some((verdict, worse)) = judge(def, va, vb) else {
                continue;
            };
            clean &= verdict != Verdict::Regressed;
            println!(
                "{workload:<14} {:<26} {:<10} A {:>12.4} (n={}) B {:>12.4} (n={}) {} worse {:+.2}% bound {:.1}%",
                def.name,
                verdict.as_str(),
                stats::median(va).unwrap_or(f64::NAN),
                va.len(),
                stats::median(vb).unwrap_or(f64::NAN),
                vb.len(),
                def.unit,
                100.0 * worse,
                100.0 * def.bound.unwrap_or(0.0),
            );
        }
        for (label, r) in [("A", ra), ("B", rb)] {
            println!(
                "{workload:<14} ops {label}: attempted {} failed {:.4}% late {:.4}% incorrect runs {}",
                r.attempted,
                100.0 * r.failed / r.attempted.max(1.0),
                100.0 * r.late / r.attempted.max(1.0),
                r.incorrect
            );
            clean &= r.incorrect == 0 && r.failed == 0.0;
        }
        // Same seed, same commit: the replay's wire bytes must repeat.
        for (seed, digest) in &ra.digests {
            if let Some((_, other)) = rb.digests.iter().find(|(s, d)| s == seed && d != digest) {
                println!("{workload:<14} wire_digest differs on seed {seed}: {digest} vs {other}");
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bounds() {
        let def = |better, bound| Def {
            name: "m",
            unit: "u",
            better,
            bound: Some(bound),
        };
        let (lat, thr) = (&def(Better::Lower, 0.10), &def(Better::Higher, 0.05));
        let v = |d, a: &[f64], b: &[f64]| judge(d, a, b).unwrap().0;
        assert_eq!(
            v(lat, &[30.0, 30.5, 29.5], &[30.2, 30.1, 30.4]),
            Verdict::Unchanged
        );
        assert_eq!(
            v(lat, &[30.0, 30.5, 29.5], &[34.0, 34.5, 33.9]),
            Verdict::Regressed
        );
        assert_eq!(
            v(lat, &[30.0, 30.5, 29.5], &[25.0, 25.5, 24.5]),
            Verdict::Improved
        );
        // Spread beyond the bound and overlapping sets: no call.
        assert_eq!(
            v(lat, &[30.0, 40.0, 20.0], &[31.0, 41.0, 22.0]),
            Verdict::Unresolved
        );
        // ... unless every B run beats every A run.
        assert_eq!(
            v(lat, &[30.0, 40.0, 20.0], &[10.0, 12.0, 11.0]),
            Verdict::Improved
        );
        // Higher-is-better flips the sign.
        assert_eq!(
            v(thr, &[100.0, 101.0, 99.0], &[90.0, 91.0, 89.0]),
            Verdict::Regressed
        );
        assert_eq!(
            v(thr, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]),
            Verdict::Improved
        );
        // Single runs have no spread to hide behind.
        assert_eq!(v(lat, &[30.0], &[30.9]), Verdict::Unchanged);
        assert_eq!(v(lat, &[30.0], &[34.0]), Verdict::Regressed);
        assert_eq!(v(lat, &[30.0], &[29.0]), Verdict::Unchanged);
        assert_eq!(v(lat, &[30.0], &[25.0]), Verdict::Improved);
    }
}
