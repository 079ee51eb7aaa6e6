//! The one benchmark for GeoTorch-RS. See `benchmark/README.md`.
//!
//! ```text
//! bench once --workload W --seed N --seconds S --trace 0|1   one run in this process
//! bench run [--seed N] [--workload W]… [--repeats R] [--seconds S] [--vary-seed] [--trace] [--out FILE]
//! bench compare A.json B.json [--force]
//! bench check
//! ```

mod http;
mod once;
mod report;
mod seam;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::Size;

/// The flags after the subcommand: `--name value` pairs, bare `--name`
/// switches, and positional arguments.
pub struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => args.flags.push((name.to_string(), None)),
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    args.flags.push((name.to_string(), Some(value.clone())));
                }
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    pub fn all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.all(name).last() {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} {v}: not a number")),
        }
    }

    /// Fail on a flag none of `known` names.
    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            Some((name, _)) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }
}

fn once_main(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &[])?;
    args.only(&["workload", "seed", "seconds", "trace", "size"])?;
    let workload = args
        .all("workload")
        .last()
        .ok_or("--workload is required")?
        .to_string();
    let size = match args.all("size").last().copied() {
        None | Some("full") => Size::Full,
        Some("check") => Size::Check,
        Some(other) => return Err(format!("--size {other}: expected full or check")),
    };
    let config = once::Config {
        workload,
        seed: args.number("seed", report::DEFAULT_SEED)?,
        seconds: args.number("seconds", report::DEFAULT_SECONDS)?,
        trace: match args.all("trace").last().copied() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
        },
        size,
    };
    let outcome = once::run(&config)?;
    for error in &outcome.errors {
        eprintln!("failed: {error}");
    }
    println!("{}", report::result_line(&outcome));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => ("help", &raw[..]),
    };
    let outcome = match command {
        "once" => once_main(rest),
        "run" => report::run_main(rest),
        "compare" => report::compare_main(rest),
        "check" => report::check_main(rest),
        _ => Err("usage: bench once|run|compare|check … (see benchmark/README.md)".to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("bench: {message}");
        ExitCode::from(2)
    })
}
