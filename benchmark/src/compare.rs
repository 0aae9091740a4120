//! `benchmark compare A.json B.json`: the regression verdict between two
//! `results.json` files, A being the parent and B the change.
//!
//! One row per workload and end-to-end metric: both medians, both
//! inter-quartile ranges, the ratio with its base, the bound and a
//! verdict. `worse` means B's median is worse than A's by more than the
//! bound; `better` the same the other way; `unresolved` that either
//! file's own spread exceeds the bound, so the pair cannot show a change
//! that size. Simulated results have bound 0: any difference is a change
//! in what the simulator computes. This tool does not establish a gain —
//! that takes the alternating pairs of the README's measurement rule.

use crate::json::{self, Json};
use crate::spec::Better;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and inter-quartile range of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub iqr: f64,
}

/// `floor` is the absolute change, in the metric's unit, at or below
/// which the verdict is `same` whatever share of the median it is.
pub fn verdict(a: Side, b: Side, better: Better, bound: f64, floor: f64) -> Verdict {
    if (a.median - b.median).abs() <= floor {
        return Verdict::Same;
    }
    let spread = |s: Side| {
        if s.median == 0.0 {
            0.0
        } else {
            s.iqr / s.median.abs()
        }
    };
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    // Positive when B is worse, as a share of the parent's median; a
    // parent of exactly 0 makes any move unbounded.
    let toward_worse = match better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    let change = if a.median == 0.0 {
        f64::INFINITY.copysign(toward_worse)
    } else {
        toward_worse / a.median.abs()
    };
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn side(row: &Json) -> Option<Side> {
    match row.num("value") {
        Ok(value) => Some(Side {
            median: value,
            iqr: 0.0,
        }),
        Err(_) => Some(Side {
            median: row.num("median").ok()?,
            iqr: row.num("q3").ok()? - row.num("q1").ok()?,
        }),
    }
}

/// The comparison table, and whether any row is `worse`.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut any_worse = false;
    for key in [
        "git_revision",
        "seed",
        "reps",
        "dependency_mode",
        "rustc",
        "smoke",
    ] {
        let of = |doc: &Json| {
            doc.get("provenance")
                .and_then(|p| p.get(key))
                .map_or("?".to_string(), Json::compact)
        };
        let (va, vb) = (of(a), of(b));
        let note = if va == vb || key == "git_revision" {
            ""
        } else {
            "   <-- differs"
        };
        let _ = writeln!(out, "{key:<16} A {va}   B {vb}{note}");
    }
    let _ = writeln!(
        out,
        "\n{:<14} {:<20} {:>14} {:>11} {:>14} {:>11} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "A IQR", "B median", "B IQR", "B/A", "bound"
    );
    let blocks_a = a.list("workloads");
    let blocks_b = b.list("workloads");
    if blocks_a.is_empty() || blocks_b.is_empty() {
        return Err("a results file lists no workloads".to_string());
    }
    for block_a in blocks_a {
        let name = block_a.str("name")?;
        let Some(block_b) = blocks_b.iter().find(|w| w.str("name") == Ok(name)) else {
            let _ = writeln!(out, "{name:<14} only in A");
            continue;
        };
        for list in ["end_to_end", "simulated"] {
            for row_a in block_a.list(list) {
                let metric = row_a.str("name")?;
                let Some(row_b) = block_b
                    .list(list)
                    .iter()
                    .find(|r| r.str("name") == Ok(metric))
                else {
                    continue;
                };
                let (Some(sa), Some(sb)) = (side(row_a), side(row_b)) else {
                    continue;
                };
                let better = match row_a.str("better")? {
                    "higher" => Better::Higher,
                    _ => Better::Lower,
                };
                let bound = row_a.num("bound")?;
                let floor = row_a.num("floor").unwrap_or(0.0);
                let v = verdict(sa, sb, better, bound, floor);
                any_worse |= v == Verdict::Worse;
                let ratio = if sa.median == 0.0 {
                    "-".to_string()
                } else {
                    format!("{:.4}", sb.median / sa.median)
                };
                let _ = writeln!(
                    out,
                    "{name:<14} {metric:<20} {:>14.6} {:>11.6} {:>14.6} {:>11.6} {ratio:>9} {:>5.0}%  {}",
                    sa.median,
                    sa.iqr,
                    sb.median,
                    sb.iqr,
                    100.0 * bound,
                    v.as_str()
                );
            }
        }
        let (da, db) = (block_a.str("sim_digest")?, block_b.str("sim_digest")?);
        if da != db {
            let _ = writeln!(
                out,
                "{name:<14} sim_digest differs: A {da}  B {db} — the simulator computes something else"
            );
        }
    }
    for block_b in blocks_b {
        let name = block_b.str("name")?;
        if !blocks_a.iter().any(|w| w.str("name") == Ok(name)) {
            let _ = writeln!(out, "{name:<14} only in B");
        }
    }
    let _ = writeln!(
        out,
        "\nB/A is B's median over A's; A is the base of every ratio and bound."
    );
    Ok((out, any_worse))
}

/// Loads both files, prints the table, returns the exit code.
pub fn run(path_a: &str, path_b: &str) -> i32 {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    match load(path_a).and_then(|a| load(path_b).and_then(|b| compare(&a, &b))) {
        Ok((table, any_worse)) => {
            print!("{table}");
            i32::from(any_worse)
        }
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn s(median: f64, iqr: f64) -> Side {
        Side { median, iqr }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        use Verdict::{Better as B, Same, Unresolved, Worse};
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(s(1.0, 0.02), s(1.12, 0.02), Lower, 0.10, 0.0),
            Worse
        );
        assert_eq!(verdict(s(1.0, 0.02), s(1.09, 0.02), Lower, 0.10, 0.0), Same);
        assert_eq!(verdict(s(1.0, 0.02), s(0.85, 0.02), Lower, 0.10, 0.0), B);
        // Higher is better: the same numbers read the other way.
        assert_eq!(verdict(s(1.0, 0.02), s(1.12, 0.02), Higher, 0.10, 0.0), B);
        assert_eq!(
            verdict(s(1.0, 0.02), s(0.85, 0.02), Higher, 0.10, 0.0),
            Worse
        );
        // Either side noisier than the bound: no verdict either way.
        assert_eq!(
            verdict(s(1.0, 0.15), s(1.5, 0.02), Lower, 0.10, 0.0),
            Unresolved
        );
        assert_eq!(
            verdict(s(1.0, 0.02), s(1.5, 0.2), Lower, 0.10, 0.0),
            Unresolved
        );
        // Bound 0 (simulated results): identical or not.
        assert_eq!(
            verdict(s(201_208.0, 0.0), s(201_208.0, 0.0), Lower, 0.0, 0.0),
            Same
        );
        assert_eq!(
            verdict(s(201_208.0, 0.0), s(201_209.0, 0.0), Lower, 0.0, 0.0),
            Worse
        );
        assert_eq!(verdict(s(2.4, 0.0), s(2.3, 0.0), Lower, 0.0, 0.0), B);
        // Under the floor nothing moved, however large the share.
        assert_eq!(
            verdict(s(0.0002, 0.0), s(0.0004, 0.0), Lower, 0.25, 0.02),
            Same
        );
        assert_eq!(
            verdict(s(0.10, 0.0), s(0.14, 0.0), Lower, 0.25, 0.02),
            Worse
        );
        // A parent of 0 (failed_frac on a healthy workload).
        assert_eq!(verdict(s(0.0, 0.0), s(0.0, 0.0), Lower, 0.0, 0.0), Same);
        assert_eq!(verdict(s(0.0, 0.0), s(0.001, 0.0), Lower, 0.0, 0.0), Worse);
    }

    fn results(e2e: f64, digest: &str, hops: f64) -> Json {
        let text = format!(
            r#"{{"provenance": {{"seed": 7, "git_revision": "abc"}},
                "workloads": [{{"name": "mice128", "sim_digest": "{digest}",
                  "end_to_end": [{{"name": "e2e_s", "unit": "s", "better": "lower", "bound": 0.1,
                                   "median": {e2e}, "q1": {}, "q3": {}, "n": 5}}],
                  "simulated": [{{"name": "sim_mean_hops", "unit": "hops", "better": "lower",
                                  "bound": 0, "value": {hops}}}]}}]}}"#,
            e2e * 0.99,
            e2e * 1.01
        );
        json::parse(&text).unwrap()
    }

    #[test]
    fn same_file_twice_is_all_same() {
        let a = results(3.4, "00ff", 2.375);
        let (table, worse) = compare(&a, &a).unwrap();
        assert!(!worse);
        assert_eq!(table.matches(" same").count(), 2, "{table}");
        assert!(!table.contains("differs"));
    }

    #[test]
    fn a_slowdown_and_a_changed_digest_are_both_reported() {
        let a = results(3.4, "00ff", 2.375);
        let b = results(4.0, "00fe", 2.376);
        let (table, worse) = compare(&a, &b).unwrap();
        assert!(worse);
        assert_eq!(table.matches(" worse").count(), 2, "{table}");
        assert!(table.contains("sim_digest differs"));
        assert!(compare(&Json::obj(), &a).is_err());
    }
}
