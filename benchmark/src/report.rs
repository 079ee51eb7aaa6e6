//! `run`, `compare` and `check`: many runs, each in a child process of
//! its own, folded into medians; two such documents set side by side;
//! and the smoke test of the benchmark itself.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use serde::Value;

use crate::once::Outcome;
use crate::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{highest, lowest, median, quartiles, spread};
use crate::Args;

pub const DEFAULT_SEED: u64 = 11;
pub const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_REPEATS: usize = 3;
const SCHEMA: &str = "geotorch-benchmark/1";

fn number(v: f64) -> Value {
    Value::Number(if v.is_finite() { v } else { 0.0 })
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The last line of a run's standard output: the contract with the driver.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value)| {
            let unit = spec::unit_of(name).expect("every emitted metric is in the tables");
            (
                name,
                object(vec![
                    ("value", number(value)),
                    ("unit", Value::String(unit.to_string())),
                ]),
            )
        })
        .collect();
    let line = object(vec![
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", number(outcome.attempted as f64)),
        ("failed", number(outcome.failed as f64)),
        ("metrics", object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree always serialises")
}

/// One child's answer.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
    /// Hash of the outputs that must repeat for one seed.
    digest: Option<String>,
}

/// Run one workload once in a child process and read its result line.
fn spawn(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: &str,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "once",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", size])
        .output()
        .map_err(|e| format!("spawn the {workload} child: {e}"))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    for line in stderr.lines().filter(|l| !l.starts_with("digest: ")) {
        eprintln!("{workload}: {line}");
    }
    if !output.status.success() {
        return Err(format!(
            "the {workload} child exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {workload} child printed nothing"))?;
    let doc: Value =
        serde_json::from_str(line).map_err(|e| format!("{workload} result line: {e}"))?;
    let count = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{workload} result line lacks `{key}`"))
    };
    let Some(Value::Object(fields)) = doc.get("metrics") else {
        return Err(format!("{workload} result line lacks `metrics`"));
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {name} lacks a value"))?;
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("metric {name} lacks a unit"))?;
            Ok((name.clone(), (value, unit.to_string())))
        })
        .collect::<Result<_, String>>()?;
    Ok(Child {
        correct: doc.get("correct") == Some(&Value::Bool(true)),
        attempted: count("attempted")? as u64,
        failed: count("failed")? as u64,
        metrics,
        digest: stderr
            .lines()
            .find_map(|l| l.strip_prefix("digest: "))
            .map(String::from),
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What two result documents must share to be comparable, and what they
/// were measured on.
fn host_stamp(seed: u64) -> Value {
    object(vec![
        ("nproc", number(crate::seam::nproc() as f64)),
        (
            "simd_kernel",
            Value::String(crate::seam::simd_kernel_name().to_string()),
        ),
        (
            "rustc",
            Value::String(command_line("rustc", &["--version"])),
        ),
        (
            "git_rev",
            Value::String(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seed", number(seed as f64)),
    ])
}

fn summary(values: &[f64], unit: &str) -> Value {
    let (q1, q3) = quartiles(values);
    object(vec![
        ("unit", Value::String(unit.to_string())),
        ("median", number(median(values))),
        ("min", number(lowest(values))),
        ("max", number(highest(values))),
        ("q1", number(q1)),
        ("q3", number(q3)),
        ("spread", number(spread(values))),
        ("n", number(values.len() as f64)),
    ])
}

/// Two-space indented JSON: the committed trajectory is read by people.
fn pretty(value: &Value, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth + 1);
    match value {
        // A summary or a stamp reads best on one line.
        Value::Object(fields)
            if fields
                .iter()
                .all(|(_, v)| !matches!(v, Value::Object(_) | Value::Array(_))) =>
        {
            out.push_str(&serde_json::to_string(value).expect("a value tree always serialises"));
        }
        Value::Object(fields) => {
            out.push_str("{\n");
            for (i, (key, item)) in fields.iter().enumerate() {
                out.push_str(&format!(
                    "{pad}{}: ",
                    serde_json::to_string(key).expect("a string serialises")
                ));
                pretty(item, depth + 1, out);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            out.push_str(&format!("{}}}", "  ".repeat(depth)));
        }
        other => {
            out.push_str(&serde_json::to_string(other).expect("a value tree always serialises"))
        }
    }
}

/// Run the chosen workloads, each repeat in a child of its own, and fold
/// the repeats into one document.
fn run_all(
    workloads: &[&str],
    seed: u64,
    seconds: f64,
    repeats: usize,
    vary_seed: bool,
    trace: bool,
    size: &str,
) -> Result<(Value, bool), String> {
    let mut all_correct = true;
    let mut documents = Vec::new();
    for &workload in workloads {
        let mut children = Vec::new();
        for repeat in 0..repeats {
            let child_seed = if vary_seed {
                seed + repeat as u64
            } else {
                seed
            };
            children.push(spawn(workload, child_seed, seconds, false, size)?);
        }
        let (attempted, failed): (u64, u64) = children
            .iter()
            .fold((0, 0), |(a, f), c| (a + c.attempted, f + c.failed));
        let mut correct = children.iter().all(|c| c.correct);
        let digests: Vec<&String> = children.iter().filter_map(|c| c.digest.as_ref()).collect();
        if !vary_seed && digests.windows(2).any(|pair| pair[0] != pair[1]) {
            eprintln!(
                "failed: {workload}: outputs differ between repeats of seed {seed}: {digests:?}"
            );
            correct = false;
        }
        println!(
            "\n{workload}: {attempted} ops attempted, {failed} failed, fail share {}",
            failed as f64 / attempted.max(1) as f64
        );
        let mut end_to_end = Vec::new();
        for (metric, bound) in END_TO_END {
            let values: Vec<f64> = children
                .iter()
                .filter_map(|c| c.metrics.get(metric.name).map(|m| m.0))
                .collect();
            if values.len() != children.len() {
                return Err(format!(
                    "{workload}: a child did not report {}",
                    metric.name
                ));
            }
            println!(
                "  {:<34} {:>14.4} {:<8} [{:.4} .. {:.4}] spread {:.4} (bound {bound})",
                metric.name,
                median(&values),
                metric.unit,
                lowest(&values),
                highest(&values),
                spread(&values),
            );
            end_to_end.push((metric.name, summary(&values, metric.unit)));
        }
        let mut fields = vec![
            ("correct", Value::Bool(correct)),
            ("attempted", number(attempted as f64)),
            ("failed", number(failed as f64)),
            ("end_to_end", object(end_to_end)),
        ];
        if trace {
            let child = spawn(workload, seed, seconds, true, size)?;
            correct &= child.correct;
            let mut per_layer = Vec::new();
            for metric in PER_LAYER {
                let value = child.metrics.get(metric.name).map(|m| m.0).ok_or_else(|| {
                    format!(
                        "{workload}: the traced child did not report {}",
                        metric.name
                    )
                })?;
                if value != 0.0 {
                    println!("  {:<34} {:>14.6} {}", metric.name, value, metric.unit);
                }
                per_layer.push((
                    metric.name,
                    object(vec![
                        ("unit", Value::String(metric.unit.to_string())),
                        ("value", number(value)),
                    ]),
                ));
            }
            fields[0] = ("correct", Value::Bool(correct));
            fields.push(("per_layer", object(per_layer)));
        }
        all_correct &= correct;
        documents.push((workload, object(fields)));
    }
    let document = object(vec![
        ("schema", Value::String(SCHEMA.to_string())),
        ("host", host_stamp(seed)),
        ("seconds", number(seconds)),
        ("repeats", number(repeats as f64)),
        ("vary_seed", Value::Bool(vary_seed)),
        ("workloads", object(documents)),
    ]);
    Ok((document, all_correct))
}

fn chosen_workloads(args: &Args) -> Result<Vec<&'static str>, String> {
    let named = args.all("workload");
    if named.is_empty() {
        return Ok(WORKLOADS.to_vec());
    }
    named
        .iter()
        .map(|name| {
            WORKLOADS
                .iter()
                .copied()
                .find(|w| w == name)
                .ok_or_else(|| format!("unknown workload `{name}`"))
        })
        .collect()
}

pub fn run_main(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &["vary-seed", "trace"])?;
    args.only(&[
        "seed",
        "workload",
        "repeats",
        "seconds",
        "vary-seed",
        "trace",
        "out",
    ])?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let (document, correct) = run_all(
        &chosen_workloads(&args)?,
        seed,
        args.number("seconds", DEFAULT_SECONDS)?,
        args.number("repeats", DEFAULT_REPEATS)?.max(1),
        args.has("vary-seed"),
        args.has("trace"),
        "full",
    )?;
    let out = args
        .all("out")
        .last()
        .copied()
        .unwrap_or("benchmark/out/run.json")
        .to_string();
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    let mut text = String::new();
    pretty(&document, 0, &mut text);
    text.push('\n');
    std::fs::write(&out, text).map_err(|e| format!("write {out}: {e}"))?;
    println!("\nwrote {out}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("{path} is not a `{SCHEMA}` document"));
    }
    Ok(doc)
}

/// `ok`, `worse`, or `unresolved` when either side's spread is wider
/// than the bound and so cannot show a change of that size.
fn verdict(better: &str, a: f64, b: f64, spread: f64, bound: f64) -> &'static str {
    let worse = match better {
        "lower" => b > a * (1.0 + bound),
        _ => b < a * (1.0 - bound),
    };
    if spread > bound {
        "unresolved"
    } else if worse {
        "worse"
    } else {
        "ok"
    }
}

pub fn compare_main(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &["force"])?;
    args.only(&["force"])?;
    let [path_a, path_b] = &args.positional[..] else {
        return Err("usage: bench compare A.json B.json [--force]".to_string());
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    for key in ["nproc", "simd_kernel", "rustc"] {
        let (host_a, host_b) = (
            a.get("host").and_then(|h| h.get(key)),
            b.get("host").and_then(|h| h.get(key)),
        );
        if host_a != host_b && !args.has("force") {
            return Err(format!("host stamps differ on `{key}`: {host_a:?} and {host_b:?}; pass --force to compare anyway"));
        }
    }
    let field = |doc: &Value, workload: &str, path: &[&str]| -> Option<f64> {
        path.iter()
            .try_fold(doc.get("workloads")?.get(workload)?, |v, key| v.get(key))?
            .as_f64()
    };
    let mut bad = false;
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "spread", "bound"
    );
    for workload in WORKLOADS {
        for (metric, bound) in END_TO_END {
            let get = |doc, key| field(doc, workload, &["end_to_end", metric.name, key]);
            let (Some(ma), Some(mb)) = (get(&a, "median"), get(&b, "median")) else {
                continue;
            };
            let wider = get(&a, "spread")
                .unwrap_or(0.0)
                .max(get(&b, "spread").unwrap_or(0.0));
            let verdict = verdict(metric.better, ma, mb, wider, bound);
            bad |= verdict == "worse";
            println!("{workload:<14} {:<12} {ma:>14.4} {mb:>14.4} {:>9.4} {wider:>7.4} {bound:>7}  {verdict}", metric.name, mb / ma);
        }
        let share = |doc| {
            Some(
                field(doc, workload, &["failed"])? / field(doc, workload, &["attempted"])?.max(1.0),
            )
        };
        if let (Some(fa), Some(fb)) = (share(&a), share(&b)) {
            let verdict = if fb > fa { "worse" } else { "ok" };
            bad |= fb > fa;
            println!(
                "{workload:<14} {:<12} {fa:>14.6} {fb:>14.6} {:>9} {:>7} {:>7}  {verdict}",
                "fail_share", "", "", 0
            );
        }
    }
    println!("(B/A is B's median over A's; `unresolved` means a spread wider than the bound)");
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Smoke mode: tiny sizes, every correctness check, two seeds, and the
/// names and units of `BENCHMARK.json` against what is emitted.
pub fn check_main(raw: &[String]) -> Result<ExitCode, String> {
    Args::parse(raw, &[])?.only(&[])?;
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json from the repository root: {e}"))?;
    let mut problems = spec::differences(&declared);
    const SECONDS: f64 = 0.2;
    for (seed, trace) in [
        (DEFAULT_SEED, false),
        (DEFAULT_SEED, true),
        (DEFAULT_SEED + 1, false),
    ] {
        for workload in WORKLOADS {
            let child = spawn(workload, seed, SECONDS, trace, "check")?;
            if !child.correct {
                problems.push(format!(
                    "{workload} seed {seed} trace {trace}: {} of {} ops failed",
                    child.failed, child.attempted
                ));
            }
            let expected: Vec<(&str, &str)> = if trace {
                PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
            } else {
                END_TO_END.iter().map(|(m, _)| (m.name, m.unit)).collect()
            };
            for (name, unit) in &expected {
                match child.metrics.get(*name) {
                    None => problems.push(format!("{workload}: `{name}` is missing")),
                    Some((_, emitted)) if emitted != unit => problems.push(format!(
                        "{workload}: `{name}` has unit {emitted}, not {unit}"
                    )),
                    Some(_) => {}
                }
            }
            for name in child
                .metrics
                .keys()
                .filter(|n| !expected.iter().any(|(e, _)| e == n))
            {
                problems.push(format!("{workload}: `{name}` is emitted but unknown"));
            }
            println!(
                "{workload:<14} seed {seed} trace {} ok: {} ops",
                u8::from(trace),
                child.attempted
            );
        }
    }
    for problem in &problems {
        eprintln!("check: {problem}");
    }
    Ok(if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
