//! `nous-bench` — the one way performance is claimed in this repository.
//!
//! ```text
//! nous-bench driver  --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    [--size full|smoke] [--record <file>]
//! nous-bench run     [--all | --workload <name>]... [--seed <n>] [--seconds <s>]
//!                    [--size full|smoke] [--traced] [--out <file>] [--append <file>]
//! nous-bench compare <parent.json> <change.json>
//! ```
//!
//! `driver` runs one workload in this process and prints the one-line
//! result `BENCHMARK.json`'s contract asks for as the last line of
//! standard output (`--record` also writes the full record `run` reads
//! back). `run` runs each workload in a `driver` child process of its own
//! (so peak memory and caches never carry over), prints every metric by
//! name with its unit, and refuses to report a run whose outputs were
//! wrong. Everything else goes to standard error.

use nousbench::harness::report::{
    append_point, compare, contract_line, print_metrics, read_json, recall_floor, run_record,
    write_json,
};
use nousbench::harness::spec::{Size, WORKLOADS};
use nousbench::harness::workloads::{run_workload, Outcome, RunArgs};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Where stores, traces and result files go: under the cargo target
/// directory, which the driver places inside the checkout.
fn work_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("nousbench/target"), PathBuf::from);
    target.join("nous-bench")
}

struct Cli {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Cli {
    /// `--name value` pairs, bare `--switches` and positionals.
    fn parse(args: &[String], switches: &[&str]) -> Cli {
        let mut cli = Cli {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if switches.contains(&name) => cli.flags.push((name.to_owned(), None)),
                Some(name) => cli.flags.push((name.to_owned(), it.next().cloned())),
                None => cli.positional.push(a.clone()),
            }
        }
        cli
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.all(name).last() {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read '{v}'")),
        }
    }

    /// `--seconds`, else the window `BENCHMARK.json` measures at, or one
    /// that keeps a smoke run of a workload under a second.
    fn seconds(&self) -> Result<f64, String> {
        let default = match self.size()? {
            Size::Full => 10.0,
            Size::Smoke => 0.5,
        };
        self.get("seconds", default)
    }

    fn size(&self) -> Result<Size, String> {
        match self.get("size", "full".to_owned())?.as_str() {
            "full" => Ok(Size::Full),
            "smoke" => Ok(Size::Smoke),
            other => Err(format!("--size: '{other}' is neither full nor smoke")),
        }
    }
}

/// Why a finished run must not be reported.
fn gate(args: &RunArgs, out: &Outcome) -> Vec<String> {
    let mut why = out.failures.clone();
    if out.failed > 0 {
        why.push(format!(
            "failed_fraction = {} / {} > 0",
            out.failed, out.attempted
        ));
    }
    let floor = recall_floor(&args.workload, args.size);
    match out.metrics.get("answer_recall") {
        Some(recall) if recall >= floor => {}
        recall => why.push(format!(
            "answer_recall {recall:?} is below the pinned floor {floor}"
        )),
    }
    why
}

/// A traced run whose spans leave more than 5% of its window
/// unexplained, or whose tracing slowed it by more than 10%, describes a
/// different program: `run` fails on either, `driver` warns.
const LEDGER_LIMITS: [(&str, f64); 2] = [
    ("ledger.residual_fraction", 0.05),
    ("obs.trace_overhead_fraction", 0.10),
];

fn driver(rest: &[String]) -> Result<(), String> {
    let cli = Cli::parse(rest, &[]);
    let seconds = cli.seconds()?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_owned());
    }
    let args = RunArgs {
        workload: cli.get("workload", String::new())?,
        seed: cli.get("seed", 11)?,
        seconds,
        traced: cli.get("trace", 0u8)? != 0,
        size: cli.size()?,
        work_root: work_root(),
    };
    let out = run_workload(&args).map_err(|e| format!("{}: {e}", args.workload))?;
    // The driver's protocol carries the verdict in `correct`; the figures
    // of a run whose outputs are wrong are never shown to a reader.
    let refused = gate(&args, &out);
    if refused.is_empty() {
        print_metrics(&args.workload, &out.metrics);
    } else {
        let why = refused.join("\n  ");
        eprintln!(
            "nous-bench: {}: outputs are wrong, timings withheld:\n  {why}",
            args.workload
        );
    }
    if let Some(path) = cli.all("record").last() {
        let record = run_record(&args, &out, &refused);
        write_json(Path::new(path), &record).map_err(|e| e.to_string())?;
    }
    for (name, limit) in LEDGER_LIMITS {
        if let Some(v) = out.metrics.get(name).filter(|v| *v > limit) {
            eprintln!("warning: {name} = {v:.4} exceeds {limit}");
        }
    }
    println!("{}", contract_line(args.traced, &out, refused.is_empty())?);
    Ok(())
}

/// Run one workload in a child process and read back its record.
fn run_child(workload: &str, cli: &Cli, traced: bool, n: usize) -> Result<Value, String> {
    let record = work_root().join(format!("record-{workload}-{}-{n}.json", std::process::id()));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .arg("driver")
        .args(["--workload", workload])
        .args(["--seed", &cli.get("seed", 11u64)?.to_string()])
        .args(["--seconds", &cli.seconds()?.to_string()])
        .args(["--size", cli.size()?.name()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--record")
        .arg(&record)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("{workload}: cannot start child: {e}"))?;
    let doc = read_json(&record).map_err(|e| format!("{workload}: {e}"));
    let _ = std::fs::remove_file(&record);
    if !status.success() {
        return Err(format!("{workload}: child exited with {status}"));
    }
    doc
}

fn run(rest: &[String]) -> Result<(), String> {
    let cli = Cli::parse(rest, &["all", "traced"]);
    let mut workloads: Vec<&str> = cli.all("workload");
    if cli.has("all") || workloads.is_empty() {
        workloads = WORKLOADS.iter().map(|w| w.0).collect();
    }
    let mut runs = Vec::new();
    let mut refused = Vec::new();
    for (n, workload) in workloads.iter().enumerate() {
        // End-to-end figures always come from an untraced run; `--traced`
        // repeats the workload for the per-layer ledger.
        for traced in [false, true] {
            if traced && !cli.has("traced") {
                continue;
            }
            match run_child(workload, &cli, traced, n) {
                Ok(doc) if doc["correct"].as_bool() != Some(true) => {
                    let why = doc["failures"].as_array().cloned().unwrap_or_default();
                    let why: Vec<&str> = why.iter().filter_map(|f| f.as_str()).collect();
                    refused.push(format!("{workload}: outputs are wrong: {}", why.join("; ")));
                }
                Ok(doc) => {
                    for (name, limit) in LEDGER_LIMITS {
                        let v = doc["metrics"][name]["value"].as_f64();
                        if v.is_some_and(|v| v > limit) {
                            refused.push(format!("{workload}: {name} = {v:?} exceeds {limit}"));
                        }
                    }
                    runs.push(doc);
                }
                Err(e) => refused.push(e),
            }
        }
    }
    // Two serving paths, one seed, one graph: the same rendered answers.
    let print = |w: &str| {
        runs.iter()
            .find(|r| r["workload"].as_str() == Some(w) && r["traced"].as_bool() == Some(false))
            .and_then(|r| r["point_fingerprint"].as_str().map(str::to_owned))
    };
    if let (Some(a), Some(b)) = (print("query_mix"), print("http_point")) {
        if a != b {
            refused.push(format!(
                "http_point answers ({b}) differ from query_mix answers ({a})"
            ));
        }
    }
    let out = cli.get(
        "out",
        work_root().join("results.json").display().to_string(),
    )?;
    let doc = Value::Object(
        [
            (
                "schema".to_owned(),
                Value::String("nous-bench-run/1".into()),
            ),
            ("runs".to_owned(), Value::Array(runs.clone())),
        ]
        .into_iter()
        .collect(),
    );
    write_json(Path::new(&out), &doc).map_err(|e| e.to_string())?;
    eprintln!("results written to {out}");
    if let Some(path) = cli.all("append").last() {
        let points = append_point(Path::new(path), runs).map_err(|e| e.to_string())?;
        eprintln!("{path}: trajectory now has {points} point(s)");
    }
    if refused.is_empty() {
        Ok(())
    } else {
        Err(refused.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("driver") => driver(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("compare") => match &args[1..] {
            [parent, change] => compare(Path::new(parent), Path::new(change))
                .map(|table| print!("{table}"))
                .map_err(|e| e.to_string()),
            _ => Err("compare takes two result files".to_owned()),
        },
        _ => Err(
            "usage: nous-bench driver|run|compare … (see the top of src/bin/nous-bench.rs)"
                .to_owned(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("nous-bench: {e}");
            ExitCode::from(2)
        }
    }
}
