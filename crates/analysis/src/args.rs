//! The one command-line parser behind every `sorn-cli` command, and the
//! flag groups several commands share.

use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Flags that take no value: `--weather`, not `--weather true`.
const SWITCHES: &[&str] = &["weather"];

/// A command's flags: `--key value`, `--key=value`, and the bare
/// switch `--weather`.
///
/// Parsing only splits the command line; a command asks for the flags
/// it knows ([`Args::get`], [`Args::flag`], ...) and then calls
/// [`Args::reject_unknown`], which fails on any flag it never asked
/// for. So a misspelt or misplaced flag is an error, never silently
/// ignored. When a flag repeats, the last value wins.
#[derive(Debug)]
pub struct Args {
    /// `(key, value)` in command-line order; `None` for a bare switch.
    flags: Vec<(String, Option<String>)>,
    /// Every key the command has asked for, in asking order.
    known: Vec<&'static str>,
}

impl Args {
    /// Splits `argv` (the command's arguments, without the program and
    /// command names) into flags.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("expected --flag, got `{arg}`"));
            };
            let flag = match key.split_once('=') {
                Some((k, v)) => (k.to_string(), Some(v.to_string())),
                None if SWITCHES.contains(&key) => (key.to_string(), None),
                None => match it.next() {
                    Some(v) if !v.starts_with("--") => (key.to_string(), Some(v.clone())),
                    _ => return Err(format!("flag `{arg}` is missing a value")),
                },
            };
            flags.push(flag);
        }
        Ok(Args {
            flags,
            known: Vec::new(),
        })
    }

    /// The last occurrence of `--key`, remembering that the command
    /// reads it. `Some(None)` is a bare switch.
    fn lookup(&mut self, key: &'static str) -> Option<Option<&str>> {
        if !self.known.contains(&key) {
            self.known.push(key);
        }
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_deref())
    }

    /// `--key`'s value parsed as `T`, or `None` when absent.
    pub fn opt<T: FromStr>(&mut self, key: &'static str) -> Result<Option<T>, String> {
        match self.lookup(key) {
            None => Ok(None),
            Some(None) => Err(format!("flag --{key} needs a value")),
            Some(Some(v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("flag --{key}: cannot parse `{v}`")),
        }
    }

    /// `--key`'s value parsed as `T`, or `default` when absent.
    pub fn get<T: FromStr>(&mut self, key: &'static str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// Like [`Args::get`] for a count: an explicit value must be at
    /// least 1 (`default` may be 0, meaning "off").
    pub fn count<T: FromStr + PartialEq + From<u8>>(
        &mut self,
        key: &'static str,
        default: T,
    ) -> Result<T, String> {
        match self.opt(key)? {
            Some(v) if v == T::from(0) => Err(format!("--{key} must be at least 1")),
            v => Ok(v.unwrap_or(default)),
        }
    }

    /// `--key`'s raw value; an error when absent.
    pub fn required(&mut self, key: &'static str) -> Result<String, String> {
        self.opt(key)?
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// A comma-separated `--key a,b,c`, or `default` when absent.
    pub fn list<T: FromStr>(
        &mut self,
        key: &'static str,
        default: Vec<T>,
    ) -> Result<Vec<T>, String> {
        let Some(s) = self.opt::<String>(key)? else {
            return Ok(default);
        };
        s.split(',')
            .map(|p| {
                p.trim()
                    .parse()
                    .map_err(|_| format!("bad --{key} entry `{p}`"))
            })
            .collect()
    }

    /// True when the bare switch `--key` is present.
    pub fn flag(&mut self, key: &'static str) -> Result<bool, String> {
        match self.lookup(key) {
            None => Ok(false),
            Some(None) => Ok(true),
            Some(Some(v)) => Err(format!("--{key} takes no value, got `{v}`")),
        }
    }

    /// Fails on the first flag the command never asked for, naming it
    /// and the flags the command does read. Call once every flag is
    /// read and before any output.
    pub fn reject_unknown(&self) -> Result<(), String> {
        let Some((key, _)) = self
            .flags
            .iter()
            .find(|(k, _)| !self.known.contains(&k.as_str()))
        else {
            return Ok(());
        };
        if self.known.is_empty() {
            return Err(format!("unknown flag --{key}: this command takes no flags"));
        }
        let known: Vec<String> = self.known.iter().map(|k| format!("--{k}")).collect();
        Err(format!(
            "unknown flag --{key}: this command reads {}",
            known.join(", ")
        ))
    }
}

/// The run-trace flags of the experiments that can record one:
/// `--trace-out <path>` writes a JSONL trace, and
/// `--sample-interval-ns <n>` sets the simulated time between its
/// snapshots (default 100 µs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryOpts {
    /// Where to write the JSONL trace; `None` disables tracing.
    pub trace_out: Option<PathBuf>,
    /// Snapshot sampling interval in simulated nanoseconds.
    pub sample_interval_ns: u64,
}

impl TelemetryOpts {
    /// Default snapshot interval: 100 µs of simulated time.
    pub const DEFAULT_INTERVAL_NS: u64 = 100_000;

    /// Reads `--trace-out` and `--sample-interval-ns`.
    pub fn read(args: &mut Args) -> Result<Self, String> {
        Ok(TelemetryOpts {
            trace_out: args.opt("trace-out")?,
            sample_interval_ns: args.count("sample-interval-ns", Self::DEFAULT_INTERVAL_NS)?,
        })
    }

    /// The trace file and its sampling interval, when tracing.
    pub fn trace(&self) -> Option<(&Path, u64)> {
        (self.trace_out.as_deref()).map(|path| (path, self.sample_interval_ns))
    }
}

/// The network-weather flags: `--weather` attaches the clique-level
/// weather probe and writes `WEATHER_<scheme>.{txt,json}` reports;
/// `--weather-topk <K>` (at most [`sorn_telemetry::MAX_TOPK`]) sizes its
/// heavy-hitter sketches and implies `--weather`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeatherOpts {
    /// True when the weather layer is on.
    pub enabled: bool,
    /// Heavy-hitter slots per sketch.
    pub topk: usize,
}

impl WeatherOpts {
    /// Reads `--weather` and `--weather-topk`.
    pub fn read(args: &mut Args) -> Result<Self, String> {
        let topk: Option<usize> = args.opt("weather-topk")?;
        if let Some(k) = topk.filter(|k| !(1..=sorn_telemetry::MAX_TOPK).contains(k)) {
            let max = sorn_telemetry::MAX_TOPK;
            return Err(format!("--weather-topk must be in 1..={max}, got {k}"));
        }
        Ok(WeatherOpts {
            enabled: args.flag("weather")? || topk.is_some(),
            topk: topk.unwrap_or(sorn_telemetry::DEFAULT_TOPK),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn values_counts_and_switches() {
        let mut a = args(&["--n=16", "--weather", "--n", "32", "--jobs", "0", "--k=4"]);
        assert_eq!(a.get("n", 0usize).unwrap(), 32, "the last value wins");
        assert!(a.flag("weather").unwrap() && !a.flag("absent").unwrap());
        assert!(a.count("jobs", 1usize).is_err());
        assert_eq!(a.count("k", 0u64).unwrap(), 4);
        assert_eq!(a.count("absent", 0u64).unwrap(), 0);
        assert!(a.reject_unknown().is_ok());
        assert!(args(&["--weather=yes"]).flag("weather").is_err());
        assert!(Args::parse(&["--jobs".into(), "--weather".into()]).is_err());
    }

    #[test]
    fn flag_groups_default_and_imply() {
        // --weather-topk implies --weather.
        let w = WeatherOpts::read(&mut args(&["--weather-topk=8"])).unwrap();
        assert_eq!((w.enabled, w.topk), (true, 8));
        let w = WeatherOpts::read(&mut args(&[])).unwrap();
        assert_eq!((w.enabled, w.topk), (false, sorn_telemetry::DEFAULT_TOPK));
        let t = TelemetryOpts::read(&mut args(&[])).unwrap();
        assert_eq!(t.trace_out, None);
        assert_eq!(t.sample_interval_ns, TelemetryOpts::DEFAULT_INTERVAL_NS);
    }
}
