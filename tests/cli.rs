//! End-to-end tests for the shipped binaries, run as child processes.
//!
//! `sorn-cli`: analyze, schedule, gen-trace → simulate round trip, and
//! error handling. `resilience`: the process-level determinism
//! contract — stdout and report files do not depend on `--jobs` or
//! `--engine-threads`, observers do not change the results, a SIGTERM
//! mid-run exits 3 with a checkpoint that `--resume` finishes into the
//! uninterrupted run's output, and `--serve-metrics` answers a scrape.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

fn cli(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sorn-cli"))
        .args(args)
        .output()
        .expect("launch sorn-cli");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn analyze_prints_the_table1_numbers() {
    let (ok, out, _) = cli(&[
        "analyze",
        "--n",
        "4096",
        "--cliques",
        "64",
        "--locality",
        "0.56",
        "--uplinks",
        "16",
    ]);
    assert!(ok);
    assert!(out.contains("77"), "{out}");
    assert!(out.contains("364"), "{out}");
    assert!(out.contains("1.48 us"), "{out}");
    assert!(out.contains("40.98%"), "{out}");
}

#[test]
fn schedule_prints_topology_a() {
    let (ok, out, _) = cli(&["schedule", "--n", "8", "--cliques", "2", "--q", "3"]);
    assert!(ok);
    // 4-slot schedule; slot 4 is the inter matching 0->4.
    assert_eq!(out.lines().count(), 5);
    assert!(out.contains("4\t4\t5\t6\t7\t0\t1\t2\t3"), "{out}");
}

#[test]
fn trace_round_trip_through_files() {
    let dir = std::env::temp_dir().join("sorn-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let trace_s = trace.to_str().unwrap();

    let (ok, out, err) = cli(&[
        "gen-trace",
        "--n",
        "16",
        "--cliques",
        "4",
        "--locality",
        "0.5",
        "--load",
        "0.2",
        "--duration-us",
        "100",
        "--dist",
        "fixed:5000",
        "--seed",
        "3",
        "--out",
        trace_s,
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("wrote"), "{out}");

    let (ok2, out2, err2) = cli(&[
        "simulate",
        "--trace",
        trace_s,
        "--cliques",
        "4",
        "--locality",
        "0.5",
    ]);
    assert!(ok2, "{err2}");
    assert!(out2.contains("drained"), "{out2}");
    assert!(out2.contains("true"), "{out2}");
    assert!(out2.contains("FCT slowdown by flow size"), "{out2}");
}

#[test]
fn table1_subcommand_matches_paper() {
    let (ok, out, _) = cli(&["table1"]);
    assert!(ok);
    assert!(out.contains("26.59 us"), "{out}");
    assert!(out.contains("40.98%"), "{out}");
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let (ok, _, err) = cli(&["bogus-command"]);
    assert!(!ok);
    assert!(err.contains("unknown command"), "{err}");

    let (ok2, _, err2) = cli(&["analyze", "--n", "10", "--cliques", "3"]);
    assert!(!ok2);
    assert!(err2.contains("divide"), "{err2}");

    let (ok3, _, err3) = cli(&["simulate", "--cliques", "4"]);
    assert!(!ok3);
    assert!(err3.contains("--trace"), "{err3}");
}

/// A fresh working directory for one `resilience` test: the binary
/// writes its `FLIGHT_*` / `WEATHER_*` reports where it runs. Tests
/// remove it when they pass; a failure leaves it behind to look at.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("resilience-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn resilience_cmd(dir: &Path, args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_resilience"));
    cmd.current_dir(dir).args(args);
    cmd
}

/// Runs `resilience` to completion in `dir` and returns its stdout.
fn resilience(dir: &Path, args: &[&str]) -> String {
    let out = resilience_cmd(dir, args)
        .output()
        .expect("launch resilience");
    assert!(
        out.status.success(),
        "resilience {args:?} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
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
    let dir = scratch_dir("jobs");
    let serial = resilience(&dir, &[]);
    assert!(
        serial.contains("flat-vlb") && serial.contains("sorn"),
        "{serial}"
    );
    for flags in [["--jobs", "2"], ["--engine-threads", "2"]] {
        assert_eq!(resilience(&dir, &flags), serial, "{flags:?}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn resilience_observers_keep_the_table_and_reports_ignore_engine_threads() {
    let (dir0, dir1, dir4) = (
        scratch_dir("obs0"),
        scratch_dir("obs1"),
        scratch_dir("obs4"),
    );
    let plain = resilience(&dir0, &[]);
    let observed = resilience(&dir1, &["--trace-flows", "1", "--weather"]);
    assert!(observed.contains("hop events"), "{observed}");
    assert_eq!(sans_observer_lines(&observed), sans_observer_lines(&plain));

    let sharded = resilience(
        &dir4,
        &["--trace-flows", "1", "--weather", "--engine-threads", "4"],
    );
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
    const OBSERVERS: [&str; 3] = ["--trace-flows", "1", "--weather"];
    let ref_dir = scratch_dir("ckref");
    let reference = resilience(&ref_dir, &OBSERVERS);

    // Interrupt once the first periodic checkpoint is on disk. A run
    // that outpaces the signal exits 0: retry with a shorter cadence.
    let dir = scratch_dir("ck");
    let interrupt = |cadence: u32| -> Option<String> {
        let _ = std::fs::remove_dir_all(dir.join("ck"));
        let every = cadence.to_string();
        let mut args = OBSERVERS.to_vec();
        args.extend(["--checkpoint-dir", "ck", "--checkpoint-every", &every]);
        let mut child = resilience_cmd(&dir, &args)
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

    let mut args = OBSERVERS.to_vec();
    args.extend([
        "--checkpoint-dir",
        "ck",
        "--checkpoint-every",
        &every,
        "--resume",
    ]);
    assert_eq!(resilience(&dir, &args), reference);
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

#[test]
fn resilience_serves_prometheus_metrics() {
    let dir = scratch_dir("serve");
    // The linger outlasts the test; the child is killed after the scrape.
    let mut child = resilience_cmd(
        &dir,
        &[
            "--serve-metrics",
            "127.0.0.1:0",
            "--serve-linger-ms",
            "60000",
        ],
    )
    .stdout(Stdio::null())
    .stderr(Stdio::piped())
    .spawn()
    .expect("launch resilience");
    // Lives to the end of the test, so a later write to stderr cannot
    // fail the child with a closed pipe.
    let mut stderr = BufReader::new(child.stderr.take().unwrap()).lines();
    let addr = stderr
        .by_ref()
        .find_map(|l| {
            l.unwrap()
                .split_once("serving /metrics on http://")
                .map(|(_, addr)| addr.trim().to_string())
        })
        .expect("resilience never announced its /metrics address");

    let scrape = || -> std::io::Result<String> {
        let mut stream = std::net::TcpStream::connect(&addr)?;
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")?;
        let mut body = String::new();
        stream.read_to_string(&mut body)?;
        Ok(body)
    };
    // The first snapshot is published at a slot boundary shortly after
    // the bind; poll until it is there.
    let mut body = String::new();
    for _ in 0..500 {
        body = scrape().expect("scrape /metrics");
        if body.contains("# TYPE sorn_engine_") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().unwrap();
    child.wait().unwrap();
    assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
    assert!(
        body.lines().any(|l| l.starts_with("# TYPE sorn_engine_")),
        "no TYPE line:\n{body}"
    );
    let is_sample = |l: &str| {
        l.strip_prefix("sorn_engine_")
            .and_then(|rest| rest.split_once(' '))
            .is_some_and(|(_, value)| value.starts_with(|c: char| c.is_ascii_digit()))
    };
    assert!(body.lines().any(is_sample), "no sample:\n{body}");
    let _ = std::fs::remove_dir_all(dir);
}
