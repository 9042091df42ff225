//! Result files: what one run records about itself, the one-line result
//! the benchmark driver reads, trajectories that grow by one point per
//! run, and `compare`.

use super::spec::{Metric, Metrics, Size, Sizes, END_TO_END, FSYNC_EVERY, PER_LAYER};
use super::stats;
use super::workloads::{Outcome, RunArgs};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn num(v: f64) -> Value {
    Value::Number(v)
}

fn text(s: &str) -> Value {
    Value::String(s.to_owned())
}

/// The commit the numbers belong to: `NOUS_BENCH_COMMIT` when set (a
/// checkout that is not a git repository), else `git rev-parse HEAD`.
pub fn git_commit() -> String {
    if let Ok(c) = std::env::var("NOUS_BENCH_COMMIT") {
        return c;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Everything one run records: inputs, host, configuration, every
/// metric with its unit and sample count, and why its outputs were
/// refused (`refused` empty: they were correct).
pub fn run_record(args: &RunArgs, out: &Outcome, refused: &[String]) -> Value {
    let metrics = out
        .metrics
        .0
        .iter()
        .map(|(name, m)| {
            let entry = obj(vec![
                ("value", num(m.value)),
                ("unit", text(m.unit)),
                ("samples", num(m.samples as f64)),
            ]);
            (name.clone(), entry)
        })
        .collect();
    let sizes = Sizes::of(args.size).to_map();
    obj(vec![
        ("schema", text("nous-bench/1")),
        ("workload", text(&args.workload)),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds)),
        ("size", text(args.size.name())),
        ("traced", Value::Bool(args.traced)),
        ("commit", text(&git_commit())),
        ("host_cpus", num(out.host_cpus as f64)),
        ("threads", num(out.threads as f64)),
        ("extract_workers", num(1.0)),
        ("fsync_policy", text(&format!("EveryN({FSYNC_EVERY})"))),
        (
            "corpus_fingerprint",
            text(&format!("{:016x}", out.corpus_fingerprint)),
        ),
        (
            "point_fingerprint",
            out.point_fingerprint
                .map_or(Value::Null, |f| text(&format!("{f:016x}"))),
        ),
        (
            "sizes",
            Value::Object(sizes.into_iter().map(|(k, v)| (k, num(v))).collect()),
        ),
        ("attempted", num(out.attempted as f64)),
        ("failed", num(out.failed as f64)),
        ("correct", Value::Bool(refused.is_empty())),
        (
            "failures",
            Value::Array(refused.iter().map(|f| text(f)).collect()),
        ),
        (
            "trace_file",
            out.trace_file
                .as_ref()
                .map_or(Value::Null, |p| text(&p.display().to_string())),
        ),
        ("metrics", Value::Object(metrics)),
    ])
}

/// The last line of a driver run: exactly `correct`, `attempted`,
/// `failed` and the metrics `BENCHMARK.json` names for this kind of run
/// (end-to-end untraced, per-layer traced), each value with all its
/// digits. `correct` is the caller's verdict on the run's outputs. A
/// named metric the run did not produce is an error.
pub fn contract_line(traced: bool, out: &Outcome, correct: bool) -> Result<String, String> {
    let names: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let mut fields = Vec::with_capacity(names.len());
    for name in names {
        let Metric { value, unit, .. } = out
            .metrics
            .0
            .get(name)
            .ok_or_else(|| format!("metric '{name}' was not produced"))?;
        if !value.is_finite() {
            return Err(format!("metric '{name}' is not finite"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

/// Human-readable table of every metric, to stderr.
pub fn print_metrics(workload: &str, metrics: &Metrics) {
    eprintln!("== {workload}");
    for (name, m) in &metrics.0 {
        eprintln!(
            "  {name:<44} {:>18.4} {:<6} n={}",
            m.value, m.unit, m.samples
        );
    }
}

pub fn write_json(path: &Path, value: &Value) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let body = serde_json::to_string_pretty(value).map_err(|e| io::Error::other(e.to_string()))?;
    std::fs::write(path, body + "\n")
}

pub fn read_json(path: &Path) -> io::Result<Value> {
    let body = std::fs::read_to_string(path)?;
    serde_json::from_str(&body).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

/// Add `runs` as one more point of the trajectory in `path` (created
/// when absent); earlier points are kept as they are.
pub fn append_point(path: &Path, runs: Vec<Value>) -> io::Result<usize> {
    let mut trajectory = match read_json(path) {
        Ok(v) => v["trajectory"].as_array().cloned().unwrap_or_default(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    trajectory.push(obj(vec![
        ("commit", text(&git_commit())),
        ("runs", Value::Array(runs)),
    ]));
    let points = trajectory.len();
    let doc = obj(vec![
        ("schema", text("nous-bench-trajectory/1")),
        ("trajectory", Value::Array(trajectory)),
    ]);
    write_json(path, &doc)?;
    Ok(points)
}

/// Every run record in a result file: a `run` output (`runs`), a
/// trajectory (the runs of all its points: one file per commit, one
/// `--append` per repetition) or a single record.
fn runs_of(doc: &Value) -> Vec<Value> {
    if let Some(points) = doc["trajectory"].as_array() {
        let runs = points.iter().filter_map(|p| p["runs"].as_array());
        return runs.flatten().cloned().collect();
    }
    if let Some(runs) = doc["runs"].as_array() {
        return runs.clone();
    }
    vec![doc.clone()]
}

/// `(workload, metric) -> values`, one value per run, plus units.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn samples_of(doc: &Value, units: &mut BTreeMap<String, String>) -> Samples {
    let mut out = Samples::new();
    for run in runs_of(doc) {
        let (Some(workload), Some(metrics)) =
            (run["workload"].as_str(), run["metrics"].as_object())
        else {
            continue;
        };
        // End-to-end figures come from untraced runs only, per-layer
        // figures from traced runs only.
        let traced = run["traced"].as_bool() == Some(true);
        for (name, m) in metrics {
            let per_layer = PER_LAYER.iter().any(|p| p.0 == name);
            let Some(v) = m["value"].as_f64().filter(|_| per_layer == traced) else {
                continue;
            };
            let key = (workload.to_owned(), name.clone());
            out.entry(key).or_default().push(v);
            if let Some(u) = m["unit"].as_str() {
                units.insert(name.clone(), u.to_owned());
            }
        }
    }
    out
}

/// Bound and direction of the end-to-end metrics: the compiled-in table,
/// which `tests/harness_smoke.rs` keeps equal to `BENCHMARK.json`.
fn bounds() -> BTreeMap<&'static str, (bool, f64)> {
    END_TO_END
        .iter()
        .map(|(name, _, better, bound)| (*name, (*better == "higher", *bound)))
        .collect()
}

/// One row per (metric, workload): each side's median and quartiles and
/// a verdict. A ratio is printed with its base, and never when it is
/// smaller than the parent's own inter-quartile spread.
///
/// - `unresolved`: the parent's spread is wider than the metric's bound,
///   so neither "unchanged" nor a regression can be claimed;
/// - `worse`: the median moved the wrong way by more than the bound;
/// - `better`: it moved the right way by more than the parent's spread;
/// - `unchanged`: otherwise.
///
/// Metrics without a bound (per-layer) get `better`/`worse` only beyond
/// the parent's spread.
pub fn compare(parent: &Path, change: &Path) -> io::Result<String> {
    let mut units = BTreeMap::new();
    let a = samples_of(&read_json(parent)?, &mut units);
    let b = samples_of(&read_json(change)?, &mut units);
    let bounds = bounds();
    let mut out = format!(
        "{:<20} {:<40} {:>34} {:>34}  {}\n",
        "workload", "metric", "parent median [q1, q3] (n)", "change median [q1, q3] (n)", "verdict"
    );
    for ((workload, metric), pa) in &a {
        let Some(ch) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (q1a, ma, q3a) = stats::quartiles(pa);
        let (q1b, mb, q3b) = stats::quartiles(ch);
        let spread = if ma == 0.0 {
            0.0
        } else {
            (q3a - q1a) / ma.abs()
        };
        let shift = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
        let bound = bounds.get(metric.as_str());
        let unit = units.get(metric).map_or("", String::as_str);
        // Per-layer metrics name their direction; the per-workload aliases
        // are rates (higher is better) or durations.
        let higher_is_better = bound.map_or_else(
            || match PER_LAYER.iter().find(|m| m.0 == metric) {
                Some(m) => m.2 == "higher",
                None => unit == "1/s",
            },
            |b| b.0,
        );
        let gain = if higher_is_better { shift } else { -shift };
        let verdict = match bound {
            Some((_, limit)) if spread > *limit => "unresolved",
            Some((_, limit)) if gain < -*limit => "worse",
            None if gain < -spread && gain != 0.0 => "worse",
            _ if gain > spread => "better",
            _ => "unchanged",
        };
        let ratio = if shift.abs() > spread && ma != 0.0 {
            format!("{:.3}x of {ma:.4} {unit}", mb / ma)
        } else {
            format!(
                "within parent spread ({:.1}%) of {ma:.4} {unit}",
                spread * 100.0
            )
        };
        out.push_str(&format!(
            "{workload:<20} {metric:<40} {:>34} {:>34}  {verdict}: {ratio}\n",
            format!("{ma:.4} [{q1a:.4}, {q3a:.4}] ({})", pa.len()),
            format!("{mb:.4} [{q1b:.4}, {q3b:.4}] ({})", ch.len()),
        ));
    }
    Ok(out)
}

/// Pinned floor of `answer_recall`: a run below it served too few of
/// the narrated facts for its timings to mean anything. Set a little
/// under the lowest value seen over seeds 1-40 on each workload.
pub fn recall_floor(workload: &str, size: Size) -> f64 {
    match (size, workload) {
        (_, "ingest_adversarial") => 0.90,
        (Size::Smoke, _) => 0.15,
        (Size::Full, _) => 0.20,
    }
}
