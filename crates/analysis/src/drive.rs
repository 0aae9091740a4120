//! The one run path of every packet run in `sorn-analysis`: [`open`]
//! a run before any output — its observers and its `--trace-out` file —
//! then [`Opened::drive`] the engine to its goal and write the
//! observers' reports. Nothing else in the crate builds or advances
//! an engine.

use crate::autopsy::TailAutopsy;
use crate::timeseries::snapshots_of;
use sorn_sim::{Engine, FaultPlan, Flow, LinkHealth, Metrics, Router, SimConfig};
use sorn_telemetry::{
    read_jsonl, IntervalSampler, JsonlTraceSink, Observers, Snapshot, WeatherProbe,
};
use sorn_topology::CircuitSchedule;
use std::path::{Path, PathBuf};

/// How far a run drives its engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Run exactly this many slots.
    UntilSlot(u64),
    /// Run until the engine drains, giving up after this many slots.
    UntilDrained(u64),
}

/// The slot budget of every run driven [`RunMode::UntilDrained`]
/// (`simulate --max-slots` defaults to it). Every experiment's run
/// drains long before it, so the budget shows in no output.
pub const DRAIN_SLOTS: u64 = 10_000_000;

/// The observer stack every driven run carries; its sampler writes a
/// `--trace-out` JSONL file.
pub type Stack = Observers<JsonlTraceSink>;

/// What a run simulates, beyond its [`SimConfig`].
pub struct Run<'a> {
    /// The circuit schedule.
    pub schedule: &'a CircuitSchedule,
    /// The router.
    pub router: &'a dyn Router,
    /// The workload.
    pub flows: Vec<Flow>,
    /// Scripted failures (empty for a healthy fabric).
    pub faults: FaultPlan,
    /// The link-health view a fault-aware router reads, if any.
    pub health: Option<LinkHealth>,
    /// How far to run.
    pub mode: RunMode,
}

impl<'a> Run<'a> {
    /// `flows` on a healthy fabric, run until drained within
    /// [`DRAIN_SLOTS`].
    pub fn new(schedule: &'a CircuitSchedule, router: &'a dyn Router, flows: Vec<Flow>) -> Self {
        Run {
            schedule,
            router,
            flows,
            faults: FaultPlan::new(),
            health: None,
            mode: RunMode::UntilDrained(DRAIN_SLOTS),
        }
    }
}

/// A finished run.
pub struct Finished {
    /// Its metrics, stranded cells counted.
    pub metrics: Metrics,
    /// Whether the engine drained.
    pub drained: bool,
    /// Cells still queued in the nodes at the end.
    pub queued: usize,
    /// Events written to the `--trace-out` file (0 without one).
    pub events: u64,
    /// That trace's snapshot series as read back, in order; the last is
    /// the run's end.
    pub snapshots: Vec<Snapshot>,
    /// The weather roll-up, if attached; its report files are written.
    pub weather: Option<WeatherProbe>,
    /// Lines for stdout: the run trace written, the tail autopsy, the
    /// weather report files and the flight-recorder dump.
    pub notes: Vec<String>,
}

/// `WEATHER_<name>.txt` and `WEATHER_<name>.json`.
pub fn weather_paths(name: &str) -> [PathBuf; 2] {
    ["txt", "json"].map(|ext| PathBuf::from(format!("WEATHER_{name}.{ext}")))
}

/// One run's observers and trace file: [`open`] makes it before
/// anything reaches stdout, [`Opened::drive`] runs it.
pub struct Opened {
    /// `WEATHER_` / `FLIGHT_` report suffix.
    name: String,
    /// Prefix of errors and stdout notes: `"[sorn] "`, or empty.
    tag: String,
    cfg: SimConfig,
    observers: Stack,
    /// The `--trace-out` file the stack's sampler writes.
    trace_out: Option<PathBuf>,
}

/// Opens run `name` with `observers`; the flight recorder, if any,
/// dumps to `FLIGHT_<name>.jsonl`. With `trace_out`, creates that JSONL
/// file (and its directory) for a sampler snapshotting every given
/// nanoseconds of simulated time — before any output, so a bad path
/// exits with nothing printed.
pub fn open(
    name: &str,
    tag: &str,
    cfg: SimConfig,
    mut observers: Stack,
    trace_out: Option<(&Path, u64)>,
) -> Result<Opened, String> {
    let dump = format!("FLIGHT_{name}.jsonl");
    observers.flight = observers.flight.take().map(|f| f.with_dump_path(dump));
    if let Some((path, interval_ns)) = trace_out {
        observers.sampler = Some(trace_sampler(path, interval_ns)?);
    }
    Ok(Opened {
        name: name.to_string(),
        tag: tag.to_string(),
        cfg,
        observers,
        trace_out: trace_out.map(|(path, _)| path.to_path_buf()),
    })
}

/// [`open`]s a run of `cfg` that carries no observer but the
/// `trace_out` sampler, if any.
pub fn plain(cfg: SimConfig, trace_out: Option<(&Path, u64)>) -> Result<Opened, String> {
    open("", "", cfg, Observers::none(), trace_out)
}

/// A sampler writing the JSONL trace at `path` (its directory created
/// if missing), one snapshot every `interval_ns` of simulated time.
fn trace_sampler(path: &Path, interval_ns: u64) -> Result<IntervalSampler<JsonlTraceSink>, String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| {
            format!(
                "cannot create --trace-out directory {}: {e}",
                parent.display()
            )
        })?;
    }
    let sink = JsonlTraceSink::create(path).map_err(trace_file(path))?;
    Ok(IntervalSampler::new(sink, interval_ns))
}

/// The error message of an I/O failure on the trace file at `path`.
fn trace_file(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("--trace-out file {}: {e}", path.display())
}

impl Opened {
    /// The one run path. Builds `run`'s engine and runs it to
    /// `run.mode`. At the end the run trace is read back and checked
    /// against the metrics (every event written, the final snapshot's
    /// delivered cells), and the weather reports and flight dump are
    /// written.
    pub fn drive(self, run: Run<'_>) -> Result<Finished, String> {
        let tag = &self.tag;
        let mut eng = Engine::with_probe(self.cfg, run.schedule, run.router, self.observers);
        eng.set_fault_plan(run.faults);
        eng.add_flows(run.flows).map_err(|e| format!("{tag}{e}"))?;
        if let Some(health) = run.health {
            eng.set_health_mirror(health);
        }
        let failed = |e| format!("{tag}simulation failed: {e}");
        let drained = match run.mode {
            RunMode::UntilSlot(slots) => {
                eng.run_slots(slots).map_err(failed)?;
                eng.is_drained()
            }
            RunMode::UntilDrained(max_slots) => eng.run_until_drained(max_slots).map_err(failed)?,
        };

        let queued = eng.total_queued();
        let mut metrics = eng.metrics().clone();
        metrics.stranded_cells = eng.count_stranded();
        let Observers {
            sampler,
            trace,
            weather,
            flight,
        } = eng.finish();
        let mut notes = Vec::new();
        let (mut events, mut snapshots) = (0, Vec::new());
        if let (Some(sampler), Some(path)) = (sampler, &self.trace_out) {
            events = sampler.into_sink().finish().map_err(trace_file(path))?;
            let read = read_jsonl(path).map_err(trace_file(path))?;
            snapshots = snapshots_of(&read);
            let delivered = snapshots.last().map(|s| s.delivered_cells);
            if read.len() as u64 != events || delivered != Some(metrics.delivered_cells) {
                return Err(format!(
                    "--trace-out file {}: read back {} of {events} events, final snapshot \
                     delivered {delivered:?} cells, the run {}",
                    path.display(),
                    read.len(),
                    metrics.delivered_cells
                ));
            }
            notes.push(format!(
                "{tag}wrote {events} trace events to {}",
                path.display()
            ));
        }
        if let Some(c) = trace {
            notes.push(format!("{tag}traced {} hop events", c.len()));
            let autopsy = TailAutopsy::from_breakdowns(&c.cell_breakdowns(), 5).render();
            notes.extend(autopsy.lines().map(|line| format!("  {line}")));
        }
        if let Some(w) = &weather {
            let (name, [txt, json]) = (&self.name, weather_paths(&self.name));
            std::fs::write(&txt, w.render_txt(name))
                .and_then(|()| std::fs::write(&json, w.render_json(name)))
                .map_err(|e| format!("{tag}writing weather report: {e}"))?;
            notes.push(format!(
                "{tag}weather: {} and {}",
                txt.display(),
                json.display()
            ));
        }
        if let Some(mut recorder) = flight {
            let dumped = recorder.dump_if_anomalous();
            if let Some(path) = dumped.map_err(|e| format!("{tag}flight-recorder dump: {e}"))? {
                notes.push(format!(
                    "{tag}flight recorder: anomaly -> {}",
                    path.display()
                ));
            }
        }
        Ok(Finished {
            metrics,
            drained,
            queued,
            events,
            snapshots,
            weather,
            notes,
        })
    }
}
