//! The repo benchmark. See `benchmark/README.md`; `benchmark/run.sh`
//! builds this and calls `benchmark run`.
//!
//! ```text
//! benchmark run [--seed N] [--reps N] [--workload W]... [--smoke] [--out-dir DIR]
//! benchmark run --workload W --seconds S --trace 0|1 [--seed N] [--smoke] [--out-dir DIR]
//! benchmark compare A.json B.json
//! benchmark child --workload W --seed N --out-dir DIR [--traced] [--smoke] [--reference]
//! ```

mod child;
mod compare;
mod digest;
mod driver;
mod instrument;
mod json;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "usage:
  benchmark run [--seed N] [--reps N] [--workload W]... [--smoke] [--out-dir DIR]
      every workload (or the named ones): N untraced reps each, round-robin,
      then one traced rep each; prints the ledgers and every metric, writes
      DIR/results.json and DIR/trace.json. Defaults: seed 7, reps 5 (1 with
      --smoke), out-dir benchmark/out.
  benchmark run --workload W --seconds S --trace 0|1 [--seed N] [--smoke] [--out-dir DIR]
      one workload, repeated for S seconds (at least 3 reps), untraced for
      the end-to-end metrics or traced for the per-layer ones; the last line
      of output is one JSON object.
  benchmark compare A.json B.json
      regression verdict of B against A; exit code 1 if any row is worse.
  benchmark child ...
      one rep; what `run` spawns.";

/// Flags with a value, bare flags, and the positional rest.
struct Args {
    valued: Vec<(String, String)>,
    bare: Vec<String>,
    rest: Vec<String>,
}

fn parse(args: &[String], valued: &[&str], bare: &[&str]) -> Result<Args, String> {
    let mut out = Args {
        valued: Vec::new(),
        bare: Vec::new(),
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if valued.contains(&arg.as_str()) {
            let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
            out.valued.push((arg.clone(), value.clone()));
        } else if bare.contains(&arg.as_str()) {
            out.bare.push(arg.clone());
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg}"));
        } else {
            out.rest.push(arg.clone());
        }
    }
    Ok(out)
}

impl Args {
    fn all(&self, flag: &str) -> Vec<&str> {
        self.valued
            .iter()
            .filter(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.all(flag).last() {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: '{v}' is not a valid number")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.bare.iter().any(|f| f == flag)
    }
}

fn run_command(args: &[String]) -> Result<i32, String> {
    let a = parse(
        args,
        &[
            "--seed",
            "--reps",
            "--workload",
            "--out-dir",
            "--seconds",
            "--trace",
        ],
        &["--smoke"],
    )?;
    if !a.rest.is_empty() {
        return Err(format!("unexpected argument '{}'", a.rest[0]));
    }
    let smoke = a.has("--smoke");
    let named: Vec<&'static spec::Workload> = a
        .all("--workload")
        .into_iter()
        .map(|name| spec::workload(name).ok_or_else(|| format!("unknown workload '{name}'")))
        .collect::<Result<_, _>>()?;
    let measured = match (
        a.number::<f64>("--seconds")?,
        a.all("--trace").last().copied(),
    ) {
        (None, None) => None,
        (Some(seconds), Some(trace @ ("0" | "1"))) if seconds > 0.0 && seconds <= 3600.0 => {
            if named.len() != 1 {
                return Err("--seconds measures exactly one --workload".to_string());
            }
            Some((seconds, trace == "1"))
        }
        _ => return Err("--seconds S (0 < S <= 3600) and --trace 0|1 go together".to_string()),
    };
    let opts = driver::Options {
        seed: a.number("--seed")?.unwrap_or(7),
        reps: a.number("--reps")?.unwrap_or(if smoke { 1 } else { 5 }),
        workloads: if named.is_empty() {
            spec::WORKLOADS.iter().collect()
        } else {
            named
        },
        smoke,
        out_dir: a
            .all("--out-dir")
            .last()
            .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from),
        measured,
    };
    Ok(driver::run(&opts))
}

fn child_command(args: &[String], origin: Instant) -> Result<i32, String> {
    let a = parse(
        args,
        &["--workload", "--seed", "--out-dir"],
        &["--traced", "--smoke", "--reference"],
    )?;
    let required = |flag: &str| {
        a.all(flag)
            .last()
            .copied()
            .ok_or_else(|| format!("child needs {flag}"))
    };
    let args = child::ChildArgs {
        workload: required("--workload")?.to_string(),
        seed: a.number("--seed")?.ok_or("child needs --seed")?,
        out_dir: PathBuf::from(required("--out-dir")?),
        traced: a.has("--traced"),
        smoke: a.has("--smoke"),
        reference: a.has("--reference"),
    };
    Ok(child::run(&args, origin))
}

fn main() {
    // The child's clock starts here: everything before it is the
    // driver's process row.
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "child" => child_command(rest, origin),
        Some((cmd, rest)) if cmd == "run" => run_command(rest),
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [a, b] => Ok(compare::run(a, b)),
            _ => Err("compare takes two results files".to_string()),
        },
        _ => Err("expected run, compare or child".to_string()),
    };
    std::process::exit(match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            2
        }
    });
}
