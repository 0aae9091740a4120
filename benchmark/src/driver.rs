//! The driver: runs reps as fresh single-threaded child processes, one
//! at a time, and turns what they print into medians, checks, the ledger,
//! `results.json` and `trace.json`.
//!
//! Two ways in. A *suite* run does `--reps` untraced reps of every chosen
//! workload, round-robin so that drift on the host hits all of them
//! alike, then one traced rep of each. A *measured* run (`--seconds`, the
//! acceptance pipeline's form) repeats one workload, traced or not, until
//! the time is up and prints one JSON object as its last line.

use crate::json::{self, Json};
use crate::spec::{
    Metric, Workload, CROSS_RUN, END_TO_END, PER_LAYER, SIMULATED, UNATTRIBUTED_FAIL,
    UNATTRIBUTED_WARN, UNIFORM_END_TO_END,
};
use crate::stats::Summary;
use crate::trace::{self, Span};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fewer reps than this and a median says little; a measured run keeps
/// going past its time until it has them.
pub const MIN_REPS: usize = 3;

pub struct Options {
    pub seed: u64,
    pub reps: usize,
    pub workloads: Vec<&'static Workload>,
    pub smoke: bool,
    pub out_dir: PathBuf,
    /// `Some((seconds, traced))` for a measured run.
    pub measured: Option<(f64, bool)>,
}

/// One child process, as the driver saw it.
struct Rep {
    id: usize,
    workload: &'static str,
    traced: bool,
    /// Spawn to exit.
    wall_s: f64,
    /// What the child printed; `None` if it printed nothing usable.
    doc: Option<Json>,
    /// Exit code 0 and a parsed object.
    passed: bool,
}

impl Rep {
    fn num(&self, key: &str) -> f64 {
        self.doc
            .as_ref()
            .and_then(|d| d.num(key).ok())
            .unwrap_or(f64::NAN)
    }

    /// Spawn to exit, less the time the child spent checking its own
    /// outputs: that stage is the harness's work, not the user's.
    fn e2e_s(&self) -> f64 {
        self.wall_s - self.num("check_s")
    }

    fn spans(&self) -> Vec<Span> {
        self.doc
            .as_ref()
            .and_then(|d| d.get("spans"))
            .and_then(|s| trace::spans_from_json(s).ok())
            .unwrap_or_default()
    }
}

fn run_rep(
    exe: &Path,
    opts: &Options,
    id: usize,
    workload: &'static str,
    traced: bool,
    reference: bool,
) -> Rep {
    // A clean directory per rep, emptied outside the timed window.
    let dir = opts.out_dir.join(workload);
    let _ = std::fs::remove_dir_all(&dir);
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .arg("--out-dir")
        .arg(&dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    for (flag, on) in [
        ("--traced", traced),
        ("--smoke", opts.smoke),
        ("--reference", reference),
    ] {
        if on {
            cmd.arg(flag);
        }
    }
    let start = Instant::now();
    let output = cmd.spawn().and_then(|child| child.wait_with_output());
    let wall_s = start.elapsed().as_secs_f64();
    let (doc, clean_exit) = match output {
        Ok(out) => (
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .last()
                .and_then(|line| json::parse(line).ok()),
            out.status.success(),
        ),
        Err(e) => {
            eprintln!("benchmark: cannot run child for {workload}: {e}");
            (None, false)
        }
    };
    let passed = clean_exit && doc.is_some();
    eprintln!(
        "  rep {id:>3} {workload:<14} {} {wall_s:>8.3} s {}",
        if traced { "traced  " } else { "untraced" },
        if passed { "ok" } else { "FAILED" }
    );
    Rep {
        id,
        workload,
        traced,
        wall_s,
        doc,
        passed,
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn provenance(opts: &Options) -> Json {
    let revision = command_line("git", &["rev-parse", "HEAD"]).map_or_else(
        || "unknown".to_string(),
        |rev| match command_line("git", &["status", "--porcelain"]) {
            Some(changes) if !changes.is_empty() => format!("{rev}-dirty"),
            _ => rev,
        },
    );
    let mut p = Json::obj();
    p.set("git_revision", revision)
        .set("seed", opts.seed)
        .set("reps", opts.reps)
        .set("smoke", opts.smoke)
        .set("engine_threads", 1u64)
        .set(
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .set(
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        )
        // run.sh knows which way it built; a bare `cargo run` does not say.
        .set(
            "dependency_mode",
            std::env::var("SORN_BENCH_DEPS").unwrap_or_else(|_| "unknown".to_string()),
        );
    p
}

fn metric_header(m: &Metric) -> Json {
    let mut row = Json::obj();
    row.set("name", m.name)
        .set("unit", m.unit)
        .set("better", m.better.as_str());
    if let Some(bound) = m.bound {
        row.set("bound", bound).set("floor", m.floor);
    }
    row
}

/// One workload's block of `results.json`, and what went wrong in it.
struct Block {
    json: Json,
    ledger: String,
    problems: Vec<String>,
    warnings: Vec<String>,
    attempted: u64,
    failed: u64,
}

fn host_values(w: &Workload, name: &str, reps: &[&Rep]) -> Vec<f64> {
    reps.iter()
        .map(|r| match name {
            "e2e_s" => r.e2e_s(),
            "setup_s" => r.num("setup_s"),
            "peak_rss_mb" => r.num("peak_rss_mb"),
            rate if rate == w.rate || rate == "work_per_s" => r.num("work") / r.num("run_s"),
            _ => f64::NAN,
        })
        .collect()
}

/// `observed128`'s run stage without its checkpoint spans, per delivered
/// cell, over `mice128`'s `sim.ns_per_cell`, less one: what the attached
/// observers add to the same engine on the same inputs.
fn telemetry_overhead(observed: &Json, mice: &Json) -> Option<f64> {
    let layer = |doc: &Json, name: &str| doc.get("layers")?.num(name).ok();
    let run = layer(observed, "stage.run.busy_s")?
        - layer(observed, "sim.checkpoint.snapshot.busy_s")?
        - layer(observed, "sim.checkpoint.write.busy_s")?
        - layer(observed, "sim.checkpoint.restore.busy_s")?;
    let cells = observed.num("work").ok()?;
    let base = layer(mice, "sim.ns_per_cell")?;
    (cells > 0.0 && base > 0.0).then(|| run * 1e9 / cells / base - 1.0)
}

fn summarize(w: &'static Workload, all: &[Rep]) -> Block {
    let mine: Vec<&Rep> = all.iter().filter(|r| r.workload == w.name).collect();
    let untraced: Vec<&Rep> = mine
        .iter()
        .copied()
        .filter(|r| !r.traced && r.passed)
        .collect();
    let traced: Vec<&Rep> = mine
        .iter()
        .copied()
        .filter(|r| r.traced && r.passed)
        .collect();
    let mut problems = Vec::new();
    let mut warnings = Vec::new();

    // A child that exits non-zero or fails a check counts all its
    // operations as failed.
    let offered = mine
        .iter()
        .find_map(|r| r.doc.as_ref()?.num("offered").ok())
        .unwrap_or(1.0) as u64;
    let attempted = offered * mine.len() as u64;
    let failed = offered * mine.iter().filter(|r| !r.passed).count() as u64;
    for rep in mine.iter().filter(|r| !r.passed) {
        let failing: Vec<String> = rep
            .doc
            .as_ref()
            .map_or(&[][..], |d| d.list("checks"))
            .iter()
            .filter(|c| c.get("ok").and_then(Json::as_bool) == Some(false))
            .map(|c| {
                format!(
                    "{}: {}",
                    c.str("name").unwrap_or("?"),
                    c.str("detail").unwrap_or("")
                )
            })
            .collect();
        problems.push(format!(
            "{} rep {} failed ({})",
            w.name,
            rep.id,
            if failing.is_empty() {
                "child did not finish".to_string()
            } else {
                failing.join("; ")
            }
        ));
    }

    let mut block = Json::obj();
    block.set("name", w.name).set("why", w.why);
    let first = mine.iter().find_map(|r| r.doc.as_ref());
    if let Some(params) = first.and_then(|d| d.get("params")) {
        block.set("params", params.clone());
    }
    block
        .set("untraced_reps", untraced.len())
        .set("traced_reps", traced.len());

    // Simulated results and their digest repeat exactly, traced or not.
    let simulated_of = |doc: &Json| {
        (
            doc.str("sim_digest").unwrap_or("").to_string(),
            doc.get("simulated").cloned().unwrap_or(Json::Null),
        )
    };
    if let Some(first) = first {
        let (digest, simulated) = simulated_of(first);
        for rep in &mine {
            if let Some(doc) = &rep.doc {
                if simulated_of(doc) != (digest.clone(), simulated.clone()) {
                    problems.push(format!(
                        "{} rep {}: simulated results differ from the first rep's (sim_digest {} vs {digest})",
                        w.name,
                        rep.id,
                        doc.str("sim_digest").unwrap_or("?"),
                    ));
                }
            }
        }
        block.set("sim_digest", digest);
        block.set(
            "simulated",
            Json::Arr(
                SIMULATED
                    .iter()
                    .map(|m| {
                        let mut row = metric_header(m);
                        row.set("value", simulated.num(m.name).unwrap_or(0.0));
                        row
                    })
                    .collect(),
            ),
        );
    }

    // Host-time metrics: medians over the untraced reps.
    let mut end_to_end = Vec::new();
    for m in &END_TO_END {
        let values = host_values(w, m.name, &untraced);
        if let Some(s) = Summary::of(&values) {
            let mut row = metric_header(m);
            row.set("median", s.median)
                .set("q1", s.q1)
                .set("q3", s.q3)
                .set("spread", s.spread())
                .set("n", s.n)
                .set(
                    "values",
                    values.into_iter().map(Json::Num).collect::<Vec<_>>(),
                );
            end_to_end.push(row);
        }
    }
    let e2e_median = Summary::of(&host_values(w, "e2e_s", &untraced)).map(|s| s.median);
    block.set("end_to_end", end_to_end);

    // Per-layer metrics: medians over the traced reps (one, in a suite).
    let mut ledger = String::new();
    if !traced.is_empty() {
        let mut per_rep: Vec<Vec<(&str, f64)>> = Vec::new();
        for rep in &traced {
            let doc = rep.doc.as_ref().expect("a passed rep has a document");
            let spans = rep.spans();
            let staged: f64 = spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.dur_ns() as f64 / 1e9)
                .sum();
            let main_s = rep.num("main_s");
            let mut values: Vec<(&str, f64)> = PER_LAYER
                .iter()
                .filter_map(|m| Some((m.name, doc.get("layers")?.num(m.name).ok()?)))
                .collect();
            for m in &SIMULATED {
                values.push((
                    m.name,
                    doc.get("simulated")
                        .and_then(|s| s.num(m.name).ok())
                        .unwrap_or(0.0),
                ));
            }
            values.push(("bench.process.busy_s", rep.wall_s - main_s));
            values.push(("bench.unattributed_frac", (main_s - staged) / rep.wall_s));
            if let Some(base) = e2e_median {
                values.push(("bench.trace_overhead_frac", rep.e2e_s() / base - 1.0));
            }
            if w.name == "observed128" {
                let mice = all
                    .iter()
                    .find(|r| r.workload == "mice128" && r.traced && r.passed)
                    .and_then(|r| r.doc.as_ref());
                if let Some(overhead) = mice.and_then(|mice| telemetry_overhead(doc, mice)) {
                    values.push(("telemetry.overhead_frac", overhead));
                }
            }
            per_rep.push(values);
            if ledger.is_empty() {
                ledger = trace::ledger(w.name, &spans, rep.wall_s, main_s)
                    .unwrap_or_else(|e| format!("{}: no ledger: {e}\n", w.name));
            }
        }
        let mut rows = Vec::new();
        for m in &PER_LAYER {
            let values: Vec<f64> = per_rep
                .iter()
                .filter_map(|rep| rep.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v))
                .collect();
            if let Some(s) = Summary::of(&values) {
                let mut row = metric_header(m);
                row.set("value", s.median).set("n", s.n);
                rows.push(row);
                if m.name == "bench.unattributed_frac" {
                    if s.median > UNATTRIBUTED_FAIL {
                        problems.push(format!(
                            "{}: {:.1} % of the traced rep is outside every span (limit {:.0} %)",
                            w.name,
                            100.0 * s.median,
                            100.0 * UNATTRIBUTED_FAIL
                        ));
                    } else if s.median > UNATTRIBUTED_WARN {
                        warnings.push(format!(
                            "{}: {:.1} % of the traced rep is outside every span (ROADMAP asks for at most {:.0} %)",
                            w.name,
                            100.0 * s.median,
                            100.0 * UNATTRIBUTED_WARN
                        ));
                    }
                }
            }
        }
        block.set("per_layer", rows);
    }
    if let Some(checks) = mine
        .iter()
        .rev()
        .find_map(|r| r.doc.as_ref()?.get("checks"))
    {
        block.set("checks", checks.clone());
    }
    block.set("attempted", attempted).set("failed", failed);
    Block {
        json: block,
        ledger,
        problems,
        warnings,
        attempted,
        failed,
    }
}

fn print_metrics(out: &mut String, block: &Json) {
    let name = block.str("name").unwrap_or("?");
    let _ = writeln!(
        out,
        "{name} — end-to-end (median [q1 .. q3] over n untraced reps, spread = (q3 - q1) / median)"
    );
    for row in block.list("end_to_end") {
        let _ = writeln!(
            out,
            "  {:<34} {:>16.6} {:<9} [{:.6} .. {:.6}] n={} spread {:.2} % bound {:.0} %",
            row.str("name").unwrap_or("?"),
            row.num("median").unwrap_or(f64::NAN),
            row.str("unit").unwrap_or("?"),
            row.num("q1").unwrap_or(f64::NAN),
            row.num("q3").unwrap_or(f64::NAN),
            row.num("n").unwrap_or(0.0),
            100.0 * row.num("spread").unwrap_or(f64::NAN),
            100.0 * row.num("bound").unwrap_or(0.0),
        );
    }
    let _ = writeln!(
        out,
        "{name} — simulated (exact per seed; sim_digest {})",
        block.str("sim_digest").unwrap_or("?")
    );
    let plain = |out: &mut String, rows: &[Json]| {
        for row in rows {
            let _ = writeln!(
                out,
                "  {:<34} {:>16.6} {}",
                row.str("name").unwrap_or("?"),
                row.num("value").unwrap_or(f64::NAN),
                row.str("unit").unwrap_or("?"),
            );
        }
    };
    plain(out, block.list("simulated"));
    if block.get("per_layer").is_some() {
        let _ = writeln!(out, "{name} — per layer (traced rep)");
        plain(out, block.list("per_layer"));
    }
}

/// The measured run's last line: `correct`, `attempted`, `failed` and
/// the medians the pipeline asked for; `None` when one of them could not
/// be measured, in which case there is no result to print.
fn measured_line(block: &Block, traced: bool, correct: bool) -> Option<Json> {
    let mut metrics = Json::obj();
    let mut complete = true;
    let mut put = |name: &str, unit: &str, value: Option<f64>| match value {
        Some(value) => {
            let mut m = Json::obj();
            m.set("value", value).set("unit", unit);
            metrics.set(name, m);
        }
        None => complete = false,
    };
    let find = |list: &str, name: &str, field: &str| {
        block
            .json
            .list(list)
            .iter()
            .find(|row| row.str("name") == Ok(name))?
            .num(field)
            .ok()
    };
    if traced {
        for m in PER_LAYER.iter().filter(|m| !CROSS_RUN.contains(&m.name)) {
            put(m.name, m.unit, find("per_layer", m.name, "value"));
        }
    } else {
        for name in UNIFORM_END_TO_END {
            let m = END_TO_END
                .iter()
                .find(|m| m.name == name)
                .expect("listed above");
            put(m.name, m.unit, find("end_to_end", m.name, "median"));
        }
    }
    let mut line = Json::obj();
    line.set("correct", correct)
        .set("attempted", block.attempted.max(1))
        .set("failed", block.failed)
        .set("metrics", metrics);
    complete.then_some(line)
}

/// Runs the plan and returns the process exit code.
pub fn run(opts: &Options) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return 2;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("benchmark: cannot create {}: {e}", opts.out_dir.display());
        return 2;
    }
    let mut reps: Vec<Rep> = Vec::new();
    match opts.measured {
        Some((seconds, traced)) => {
            let w = opts.workloads[0];
            let start = Instant::now();
            while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
                let first = reps.is_empty();
                reps.push(run_rep(&exe, opts, reps.len(), w.name, traced, first));
                // A rep that fails, fails every time: do not spend the
                // rest of the time (or, if it dies at once, thousands of
                // processes) finding that out.
                if reps.last().is_some_and(|r| !r.passed) {
                    break;
                }
            }
        }
        None => {
            for round in 0..opts.reps {
                for w in &opts.workloads {
                    reps.push(run_rep(&exe, opts, reps.len(), w.name, false, round == 0));
                }
            }
            for w in &opts.workloads {
                reps.push(run_rep(
                    &exe,
                    opts,
                    reps.len(),
                    w.name,
                    true,
                    opts.reps == 0,
                ));
            }
        }
    }

    let blocks: Vec<Block> = opts.workloads.iter().map(|w| summarize(w, &reps)).collect();
    let mut report = String::new();
    for block in &blocks {
        report.push_str(&block.ledger);
        print_metrics(&mut report, &block.json);
        report.push('\n');
    }
    print!("{report}");

    let provenance = provenance(opts);
    let mut results = Json::obj();
    results
        .set("schema", 1u64)
        .set("provenance", provenance.clone())
        .set(
            "workloads",
            blocks.iter().map(|b| b.json.clone()).collect::<Vec<_>>(),
        );
    let mut traces = Json::obj();
    traces
        .set("schema", 1u64)
        .set("provenance", provenance)
        .set(
            "reps",
            reps.iter()
                .map(|r| {
                    let mut row = Json::obj();
                    row.set("rep", r.id)
                        .set("workload", r.workload)
                        .set("traced", r.traced)
                        .set("wall_s", r.wall_s)
                        .set("passed", r.passed)
                        .set(
                            "spans",
                            r.doc
                                .as_ref()
                                .and_then(|d| d.get("spans"))
                                .cloned()
                                .unwrap_or(Json::Arr(Vec::new())),
                        );
                    row
                })
                .collect::<Vec<_>>(),
        );
    let mut problems: Vec<String> = blocks.iter().flat_map(|b| b.problems.clone()).collect();
    for (name, doc) in [("results.json", &results), ("trace.json", &traces)] {
        let path = opts.out_dir.join(name);
        if let Err(e) = std::fs::write(&path, doc.pretty()) {
            problems.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    for warning in blocks.iter().flat_map(|b| &b.warnings) {
        eprintln!("benchmark: warning: {warning}");
    }
    for problem in &problems {
        eprintln!("benchmark: FAILED: {problem}");
    }
    let correct = problems.is_empty();
    if let Some((_, traced)) = opts.measured {
        // The verdict travels in the line; the exit code says only
        // whether there is a line.
        return match measured_line(&blocks[0], traced, correct) {
            Some(line) => {
                println!("{}", line.compact());
                0
            }
            None => 1,
        };
    }
    println!(
        "{} workloads, {} reps, {}: {} and {}",
        blocks.len(),
        reps.len(),
        if correct {
            "all checks passed"
        } else {
            "FAILED"
        },
        opts.out_dir.join("results.json").display(),
        opts.out_dir.join("trace.json").display(),
    );
    i32::from(!correct)
}
