//! `sorn-cli` — the one binary that drives every experiment and tool.
//!
//! ```text
//! sorn-cli list                                   # every command
//! sorn-cli table1                                 # one paper artifact
//! sorn-cli resilience --jobs 2 --weather          # flags: --k v, --k=v, switches
//! sorn-cli analyze --n 4096 --cliques 64 --locality 0.56 --uplinks 16
//! ```
//!
//! The commands live in `sorn_analysis::COMMANDS`. An unknown command or
//! flag, a bad value, or a failed run prints a message and exits 2.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match sorn_analysis::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// The command-line contract: flag parsing and the value parsers the
/// tools share.
#[cfg(test)]
mod tests {
    use sorn::topology::Ratio;
    use sorn_analysis::tools::{build_config, parse_dist, parse_q};
    use sorn_analysis::Args;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    fn args(line: &str) -> Args {
        parse(line).unwrap()
    }

    #[test]
    fn parse_key_value_pairs() {
        let mut a = args("--n 16 --cliques 4");
        assert_eq!(a.get("n", 0usize).unwrap(), 16);
        assert_eq!(a.get("missing", 7u64).unwrap(), 7);
        assert!(a.required("cliques").is_ok());
        assert!(a.required("nope").is_err());
        let mut inline = args("--n=16");
        assert_eq!(inline.get("n", 0usize).unwrap(), 16);
    }

    #[test]
    fn parse_bool_flags_take_no_value() {
        let mut a = args("--weather --n 4");
        assert!(a.flag("weather").unwrap());
        assert_eq!(a.get("n", 0usize).unwrap(), 4);
        assert!(a.reject_unknown().is_ok());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse("positional").is_err());
        assert!(parse("--dangling").is_err());
        let mut a = args("--n abc");
        assert!(a.get("n", 0usize).is_err());
        let mut unread = args("--n 16 --lcality 0.9");
        unread.get("n", 0usize).unwrap();
        assert!(unread.reject_unknown().is_err());
    }

    #[test]
    fn parse_q_forms() {
        assert_eq!(parse_q("3").unwrap(), Ratio::integer(3));
        assert_eq!(parse_q("50/11").unwrap(), Ratio::new(50, 11));
        assert!(parse_q("0").is_err());
        assert!(parse_q("a/b").is_err());
        assert!(parse_q("3/0").is_err());
    }

    #[test]
    fn parse_dist_forms() {
        assert_eq!(
            parse_dist("web-search").unwrap().name(),
            "pfabric-web-search"
        );
        assert_eq!(parse_dist("fixed:1500").unwrap().name(), "fixed-1500B");
        assert!(parse_dist("bogus").is_err());
        assert!(parse_dist("fixed:x").is_err());
        assert!(parse_dist("fixed:0").is_err());
    }

    #[test]
    fn parse_list_forms() {
        let mut a = args("--radices 4,4,8");
        assert_eq!(a.list::<usize>("radices", vec![]).unwrap(), vec![4, 4, 8]);
        let mut spaced = Args::parse(&["--profile".into(), "0.6, 0.25, 0.15".into()]).unwrap();
        assert_eq!(spaced.list::<f64>("profile", vec![]).unwrap().len(), 3);
        assert_eq!(a.list("absent", vec![16usize]).unwrap(), vec![16]);
        assert!(args("--radices 4,x")
            .list::<usize>("radices", vec![])
            .is_err());
    }

    #[test]
    fn build_config_validates() {
        let mut a = args("--n 16 --cliques 4 --locality 0.5");
        let cfg = build_config(&mut a).unwrap();
        assert_eq!(cfg.n, 16);
        assert_eq!(cfg.effective_q(), Ratio::integer(4));
        let mut bad = args("--n 10 --cliques 3");
        assert!(build_config(&mut bad).is_err());
    }
}
