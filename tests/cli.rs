//! End-to-end tests for `sorn-cli`, the one binary, run as a child
//! process.
//!
//! Every command in `sorn_analysis::COMMANDS` runs and prints its
//! paper-defining numbers (the measured columns of EXPERIMENTS.md). The
//! flag parser rejects what a command does not read. The tools
//! round-trip a trace through files. And `resilience` keeps the
//! process-level determinism contract: stdout and report files do not
//! depend on `--jobs` or `--engine-threads`, observers do not change
//! the results, a SIGTERM mid-run exits 3 with a checkpoint that
//! `--resume` finishes into the uninterrupted run's output. No command
//! serves its results: they are stdout and the files a run leaves.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

/// `sorn-cli` with a whitespace-separated command line, run in `dir`.
fn sorn_cli(dir: &Path, line: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sorn-cli"));
    cmd.current_dir(dir).args(line.split_whitespace());
    cmd
}

/// Runs [`sorn_cli`] to completion: exit code, stdout, stderr.
fn cli_in(dir: &Path, line: &str) -> (Option<i32>, String, String) {
    let out = sorn_cli(dir, line).output().expect("launch sorn-cli");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// [`cli_in`] the temp directory: success, stdout, stderr.
fn cli(line: &str) -> (bool, String, String) {
    let (code, out, err) = cli_in(&std::env::temp_dir(), line);
    (code == Some(0), out, err)
}

/// `text` with each line's whitespace runs collapsed to one space, so
/// a table row reads as `cell cell cell`.
fn words(text: &str) -> String {
    let lines: Vec<String> = text
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    lines.join("\n")
}

/// `gen-trace` writing `trace.json`, the input of `simulate` below.
const GEN_TRACE: &str = "gen-trace --n 16 --cliques 4 --locality 0.5 --load 0.2 \
                         --duration-us 100 --dist fixed:5000 --seed 3 --out trace.json";

/// One command line per command, and rows its whitespace-collapsed
/// stdout must contain: the numbers EXPERIMENTS.md records.
#[rustfmt::skip]
const EXPECTED: &[(&str, &[&str])] = &[
    ("table1", &[
        "Optimal ORN 1D (Sirius) 2 4095 26.59 us 50.00% 2.00x", "Optimal ORN 2D 4 252 3.58 us 25.00% 4.00x",
        "Opera (bulk) 2 4095 23.04 ms 31.25% 3.20x", "SORN Nc=64 (intra-clique) 2 77 1.48 us 40.98% 2.44x",
        "SORN Nc=64 (inter-clique) 3 364 3.77 us 40.98% 2.44x", "SORN Nc=32 (inter-clique) 3 296 3.35 us 40.98% 2.44x",
        "SORN Nc=64 (inter-clique) 3 427 4.16 us", "measured mean expander path length: 3.594",
        "resulting throughput: 31.29%",
    ]),
    ("table1_sim_validation", &[
        "1D ORN (Sirius-style) 26.60 26.60 13.66", "2D ORN 7.70 8.40 4.54", "SORN Nc=16 intra 2.90 3.03 1.93",
        "SORN Nc=16 inter 11.10 11.85 6.73", "Opera short (diam 5) 3.40 5.50 2.63", "shape assertions passed",
    ]),
    ("fig1_schedule", &["1 B C D E A", "4 E A B C D", "period N-1 = 4 slots"]),
    ("fig2_topologies", &["src m1 m2 m3 m4 m5", "every cyclic matching within reach = true", "Topology A", "Topology B"]),
    ("fig2f", &[
        "0.0 0.3333 0.3333 2.937", "0.5 0.4000 0.4000 2.435", "0.9 0.4762 0.4762 2.034",
        "0.20 603 true 2.703 0.370", "0.56 626 true 2.439 0.410", "0.80 657 true 2.186 0.457",
    ]),
    ("expressivity", &["[1, 16, 32, 64, 128, 256, 512, 1024, 2048]", "full-mesh capable: true"]),
    ("adaptation", &["post-shift steady state: adaptive 0.460 vs static 0.202 (2.3x)"]),
    ("nonuniform_cliques", &[
        "uniform 4x4 (community split) true 2.284 0.438 7.2", "non-uniform 8/4/4 (matched) true 2.100 0.476 6.7",
        "matched cliques cut the bandwidth tax 8.1%",
    ]),
    ("blast_radius", &["flat VLB 16256 253.0 253", "SORN Nc=8 2816 42.3 45", "SORN Nc=32 4352 8.2 9"]),
    ("resilience", &[
        "32 nodes, 4 cliques, 3838 flows over 400000 ns;", "6.7% of estimated demand masked",
        "flat-vlb 37959 0 0 4 1297 9.946 8.540 0.859 0 ns 0 ns", "sorn 37909 0 0 4 1297 9.448 9.538 1.010 0 ns 0 ns",
        "install attempts: 3, modeled retry backoff: 150000000 ns, gave up: false",
    ]),
    ("sync_domains", &[
        "flat ORN (4096 nodes) 4096 10250 - 0.010", "SORN (16 cliques of 256) 256 650 10260 0.111",
        "SORN (128 cliques of 32) 32 90 10260 0.433",
    ]),
    ("diurnal_tracking", &["day-average throughput: fixed q 0.367, tracking 0.383 (+4.2%)"]),
    ("hierarchy", &[
        "2-level 64x64 level-0 traffic (2 hops) 77 1.48 us 40.98% 2.44x", "flows: 192, drained: true, completed: 192",
        "3-level 16^3 level-0 traffic (2 hops) 20 1.12 us 37.88% 2.64x", "worst hops observed: 4 (<= levels + 1 = 4)",
        "3-level 16^3 level-1 traffic (3 hops) 110 2.19 us 37.88% 2.64x",
    ]),
    ("adversarial", &[
        "flat VLB adversarial search 0.5000 (guarantee 0.5 holds)", "SORN gravity-matched same adversarial demand 0.2778",
        "SORN uniform-inter adversarial search 0.1111 (= 1/((q+1)(Nc-1)) = 0.1111)",
    ]),
    ("ablation_routing", &[
        "flat + VLB 1.97 2.8 0.46", "flat + adaptive VLB 1.00 2.4 0.54", "SORN 2.31 2.3 0.37",
        "SORN + adaptive intra 1.83 2.0 0.37",
    ]),
    ("analyze --n 4096 --cliques 64 --locality 0.56 --uplinks 16", &[
        "intra delta_m (slots) 77", "inter delta_m (slots) 364", "worst-case throughput 40.98%",
    ]),
    ("schedule --n 8 --cliques 2 --q 3", &["4 4 5 6 7 0 1 2 3"]),
    (GEN_TRACE, &["wrote 812 flows to trace.json"]),
    ("simulate --trace trace.json --cliques 4 --locality 0.5", &[
        "drained true", "flows completed 812", "mean hops 2.231",
    ]),
];

#[test]
fn every_command_reproduces_its_recorded_numbers() {
    let list = cli("list").1;
    let tasks: Vec<sorn_analysis::Task<()>> = sorn_analysis::COMMANDS
        .iter()
        .map(|c| -> sorn_analysis::Task<()> {
            assert!(
                list.contains(&format!("{:<22} {}", c.name, c.artifact)),
                "{list}"
            );
            let &(line, want) = EXPECTED
                .iter()
                .find(|(line, _)| line.split_whitespace().next() == Some(c.name))
                .unwrap_or_else(|| panic!("no EXPECTED entry for `{}`", c.name));
            Box::new(move || {
                let dir = scratch_dir(&format!("cmd-{}", c.name));
                if c.name == "simulate" {
                    assert_eq!(cli_in(&dir, GEN_TRACE).0, Some(0));
                }
                let (code, out, err) = cli_in(&dir, line);
                assert_eq!(code, Some(0), "{line}: {err}");
                let out = words(&out);
                for w in want {
                    assert!(out.contains(w), "`{line}` lacks `{w}`:\n{out}");
                }
                let _ = std::fs::remove_dir_all(dir);
            })
        })
        .collect();
    sorn_analysis::run_jobs(2, tasks);
}

/// Runs `line`, expecting exit 2 with nothing on stdout and `flag`
/// named on stderr.
fn rejects(line: &str, flag: &str) {
    let (code, out, err) = cli_in(&std::env::temp_dir(), line);
    assert_eq!(code, Some(2), "`{line}` exited {code:?}: {err}");
    assert!(out.is_empty(), "`{line}` printed before rejecting: {out}");
    assert!(err.contains(flag), "`{line}`: stderr lacks {flag}: {err}");
}

#[test]
fn a_misspelt_flag_is_an_error() {
    rejects("analyze --n 16 --cliques 4 --lcality 0.9", "--lcality");
}

#[test]
fn a_flag_the_command_does_not_read_is_an_error() {
    rejects("schedule --n 8 --cliques 2 --q 3 --resume", "--resume");
}

#[test]
fn flag_values_may_follow_an_equals_sign() {
    let (ok, inline, err) = cli("analyze --n=16 --cliques 4");
    assert!(ok, "{err}");
    assert_eq!(inline, cli("analyze --n 16 --cliques 4").1);
}

/// The `--serve-<name> <value>` flags of a live metrics endpoint: no
/// command serves anything, so each is an unread flag everywhere.
#[test]
fn no_command_takes_the_serve_flags() {
    for cmd in [
        "resilience",
        "fig2f",
        "blast_radius",
        "adaptation",
        "diurnal_tracking",
        "sync_domains",
        "adversarial",
    ] {
        for (name, value) in [("metrics", "127.0.0.1:0"), ("linger-ms", "10")] {
            let flag = format!("--serve-{name}");
            rejects(&format!("{cmd} {flag} {value}"), &flag);
        }
    }
}

#[test]
fn flagless_commands_take_no_flags() {
    for cmd in [
        "table1",
        "table1_sim_validation",
        "fig1_schedule",
        "fig2_topologies",
        "expressivity",
    ] {
        rejects(&format!("{cmd} --n 16"), "--n");
    }
    rejects("nonuniform_cliques --weather", "--weather");
    rejects("ablation_routing --jobs 2", "--jobs");
    rejects("hierarchy --anything 1", "--anything");
}

/// The validations the old per-flag parsers made, each still exit 2.
#[test]
fn bad_flag_values_exit_2() {
    for (line, flag) in [
        ("resilience --jobs 0", "--jobs"),
        ("resilience --engine-threads x", "--engine-threads"),
        ("resilience --trace-flows 0", "--trace-flows"),
        ("resilience --flight-ring 1000", "--flight-ring"),
        ("resilience --weather-topk 0", "--weather-topk"),
        ("resilience --resume", "--checkpoint-dir"),
        ("resilience --checkpoint-every 9", "--checkpoint-dir"),
        ("resilience --checkpoint-dir d --trace-out t", "--trace-out"),
        ("fig2f --sample-interval-ns 0", "--sample-interval-ns"),
        ("hierarchy --radices 4,4,4", "--radices"),
        ("simulate --trace t --resume", "--checkpoint-dir"),
        ("gen-trace --n 8 --cliques 2 --load 0", "--load"),
        ("gen-trace --n 8 --cliques 2 --load nan", "--load"),
        ("gen-trace --n 8 --cliques 2 --out t --load 1e300", "--load"),
        (
            "gen-trace --n 8 --cliques 2 --out t --duration-us 18446744073709551615",
            "--duration-us",
        ),
        (
            "gen-trace --n 8 --cliques 2 --out t --dist fixed:0",
            "--dist",
        ),
    ] {
        rejects(line, flag);
    }
}

#[test]
fn analyze_prints_the_table1_numbers() {
    let (ok, out, _) = cli("analyze --n 4096 --cliques 64 --locality 0.56 --uplinks 16");
    assert!(ok);
    for want in ["77", "364", "1.48 us", "40.98%"] {
        assert!(out.contains(want), "{out}");
    }
}

#[test]
fn schedule_prints_topology_a() {
    let (ok, out, _) = cli("schedule --n 8 --cliques 2 --q 3");
    assert!(ok);
    // 4-slot schedule; slot 4 is the inter matching 0->4.
    assert_eq!(out.lines().count(), 5);
    assert!(out.contains("4\t4\t5\t6\t7\t0\t1\t2\t3"), "{out}");
}

#[test]
fn trace_round_trip_through_files() {
    let dir = std::env::temp_dir().join("sorn-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let (code, out, err) = cli_in(&dir, GEN_TRACE);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.contains("wrote"), "{out}");

    let (code, out, err) = cli_in(
        &dir,
        "simulate --trace trace.json --cliques 4 --locality 0.5",
    );
    assert_eq!(code, Some(0), "{err}");
    for want in ["drained", "true", "FCT slowdown by flow size"] {
        assert!(out.contains(want), "{out}");
    }
}

#[test]
fn table1_subcommand_matches_paper() {
    let (ok, out, _) = cli("table1");
    assert!(ok);
    assert!(out.contains("26.59 us"), "{out}");
    assert!(out.contains("40.98%"), "{out}");
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let (ok, _, err) = cli("bogus-command");
    assert!(!ok);
    assert!(err.contains("unknown command"), "{err}");

    let (ok2, _, err2) = cli("analyze --n 10 --cliques 3");
    assert!(!ok2);
    assert!(err2.contains("divide"), "{err2}");

    let (ok3, _, err3) = cli("simulate --cliques 4");
    assert!(!ok3);
    assert!(err3.contains("--trace"), "{err3}");
}

/// A fresh working directory for one run: commands write their reports
/// (`FLIGHT_*`, `WEATHER_*`, `results/`) where they run. Tests remove it
/// when they pass; a failure leaves it behind to look at.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `sorn-cli resilience <flags>` to completion in `dir` and
/// returns its stdout.
fn resilience(dir: &Path, flags: &str) -> String {
    let (code, out, err) = cli_in(dir, &format!("resilience {flags}"));
    assert_eq!(code, Some(0), "resilience {flags}: {err}");
    out
}

/// The `WEATHER_*` and `FLIGHT_*` files a run left in `dir`, by name.
fn reports(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter_map(|e| {
            let name = e.file_name().into_string().unwrap();
            (name.starts_with("WEATHER_") || name.starts_with("FLIGHT_"))
                .then(|| (name, std::fs::read(e.path()).unwrap()))
        })
        .collect()
}

/// Stdout without the observers' own lines (`[scheme] ...` notes and
/// the indented autopsy table): the header, the results table, the
/// commentary and the control-plane demo.
fn sans_observer_lines(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| !l.starts_with('[') && !l.starts_with("  "))
        .collect()
}

#[test]
fn resilience_stdout_ignores_jobs_and_engine_threads() {
    let dir = scratch_dir("resilience-jobs");
    let serial = resilience(&dir, "");
    assert!(
        serial.contains("flat-vlb") && serial.contains("sorn"),
        "{serial}"
    );
    for flags in ["--jobs 2", "--engine-threads 2"] {
        assert_eq!(resilience(&dir, flags), serial, "{flags}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn resilience_observers_keep_the_table_and_reports_ignore_engine_threads() {
    let (dir0, dir1, dir4) = (
        scratch_dir("resilience-obs0"),
        scratch_dir("resilience-obs1"),
        scratch_dir("resilience-obs4"),
    );
    let plain = resilience(&dir0, "");
    let observed = resilience(&dir1, "--trace-flows 1 --weather");
    assert!(observed.contains("hop events"), "{observed}");
    assert_eq!(sans_observer_lines(&observed), sans_observer_lines(&plain));

    let sharded = resilience(&dir4, "--trace-flows 1 --weather --engine-threads 4");
    assert_eq!(sharded, observed);
    let files = reports(&dir1);
    let count = |prefix: &str| files.keys().filter(|k| k.starts_with(prefix)).count();
    assert_eq!(count("WEATHER_"), 4, "{:?}", files.keys());
    assert!(count("FLIGHT_") >= 1, "{:?}", files.keys());
    assert!(files == reports(&dir4), "report bytes differ at 4 threads");
    for dir in [dir0, dir1, dir4] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A flight dump's engine-originated lines. The header's event counts
/// and the `checkpoint_*` lines are the *driver's* notes about the
/// files this process wrote and restored, which an interrupted-and-
/// resumed run and an uninterrupted one differ in by construction.
fn engine_events(flight: &[u8]) -> Vec<&str> {
    std::str::from_utf8(flight)
        .unwrap()
        .lines()
        .skip(1)
        .filter(|l| !l.starts_with(r#"{"type":"checkpoint_"#))
        .collect()
}

#[cfg(unix)]
#[test]
fn resilience_sigterm_then_resume_reproduces_the_uninterrupted_run() {
    const OBSERVERS: &str = "--trace-flows 1 --weather";
    let ref_dir = scratch_dir("resilience-ckref");
    let reference = resilience(&ref_dir, OBSERVERS);

    // Interrupt once the first periodic checkpoint is on disk. A run
    // that outpaces the signal exits 0: retry with a shorter cadence.
    let dir = scratch_dir("resilience-ck");
    let interrupt = |cadence: u32| -> Option<String> {
        let _ = std::fs::remove_dir_all(dir.join("ck"));
        let every = format!("--checkpoint-dir ck --checkpoint-every {cadence}");
        let mut child = sorn_cli(&dir, &format!("resilience {OBSERVERS} {every}"))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("launch resilience");
        // Signal only a child that is still running: once `try_wait`
        // has reaped it the pid may belong to someone else.
        while child.try_wait().unwrap().is_none() {
            if checkpoints(&dir.join("ck/flat-vlb")) > 0 {
                let kill = Command::new("kill")
                    .args(["-TERM", &child.id().to_string()])
                    .status()
                    .expect("launch kill");
                assert!(kill.success(), "kill -TERM failed");
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        match child.wait().unwrap().code() {
            Some(3) => Some(every),
            Some(0) => None,
            code => panic!("interrupted run exited {code:?}, want 3 (EXIT_INTERRUPTED)"),
        }
    };
    let every = [1_000, 250, 60]
        .into_iter()
        .find_map(interrupt)
        .expect("three runs each finished before SIGTERM could land");
    let on_disk = checkpoints(&dir.join("ck/flat-vlb")) + checkpoints(&dir.join("ck/sorn"));
    assert!(on_disk >= 2, "periodic + final checkpoint, found {on_disk}");

    let resumed = resilience(&dir, &format!("{OBSERVERS} {every} --resume"));
    assert_eq!(resumed, reference);
    let (want, got) = (reports(&ref_dir), reports(&dir));
    assert_eq!(
        want.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &want {
        if name.starts_with("FLIGHT_") {
            assert_eq!(engine_events(bytes), engine_events(&got[name]), "{name}");
        } else {
            assert!(*bytes == got[name], "{name} differs after resume");
        }
    }
    for dir in [ref_dir, dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Checkpoint generations in one scheme's store directory.
#[cfg(unix)]
fn checkpoints(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                let name = name.to_string_lossy();
                name.starts_with("ckpt-") && name.ends_with(".sorn")
            })
            .count()
    })
}
