//! The harness checked against its own contract at smoke size: the
//! names it reports are the names `BENCHMARK.json` promises, every
//! workload produces every metric and no failed operation, what must
//! repeat exactly for a seed does, and the two serving paths agree.

use nousbench::harness::report::{contract_line, read_json};
use nousbench::harness::spec::{Size, END_TO_END, PER_LAYER, WORKLOADS};
use nousbench::harness::workloads::{run_workload, Outcome, RunArgs};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Tests run on parallel threads of one process, and a run names its
/// scratch directory after the process: each call gets its own root.
fn smoke(workload: &str, seed: u64, traced: bool, tag: &str) -> Outcome {
    let args = RunArgs {
        workload: workload.to_owned(),
        seed,
        seconds: 0.3,
        traced,
        size: Size::Smoke,
        work_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag),
    };
    run_workload(&args).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn value(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .get(name)
        .unwrap_or_else(|| panic!("{name} not reported"))
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

#[test]
fn names_are_the_ones_benchmark_json_promises() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = read_json(&path).expect("BENCHMARK.json at the repository root");
    let text = |v: &serde_json::Value, key: &str| v[key].as_str().expect(key).to_owned();

    let workloads: Vec<(String, String)> = doc["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| ((*n).to_owned(), (*w).to_owned()))
        .collect();
    assert_eq!(workloads, ours);

    let end_to_end: Vec<(String, String, String, f64)> = doc["end_to_end"]
        .as_array()
        .expect("end_to_end")
        .iter()
        .map(|m| {
            let bound = m["bound"].as_f64().expect("bound");
            (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
        })
        .collect();
    let ours: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| ((*n).to_owned(), (*u).to_owned(), (*b).to_owned(), *bound))
        .collect();
    assert_eq!(end_to_end, ours);
    assert!(end_to_end
        .iter()
        .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
    assert!(end_to_end.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));

    let per_layer: Vec<(String, String, String)> = doc["per_layer"]
        .as_array()
        .expect("per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let ours: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, b)| ((*n).to_owned(), (*u).to_owned(), (*b).to_owned()))
        .collect();
    assert_eq!(per_layer, ours);

    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0))
        .collect();
    assert!(names.iter().all(|n| is_name(n)), "{names:?}");
    let distinct: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(distinct.len(), names.len(), "a name is used twice");
    assert!(WORKLOADS
        .iter()
        .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    assert_eq!(doc["paths"][0].as_str(), Some("nousbench"));
}

#[test]
fn every_workload_reports_every_metric_and_fails_nothing() {
    for (workload, _) in WORKLOADS {
        let plain = smoke(workload, 11, false, &format!("every-{workload}"));
        assert_eq!(plain.failed, 0, "{workload}: {:?}", plain.failures);
        assert!(plain.attempted > 0);
        contract_line(false, &plain, true).unwrap_or_else(|e| panic!("{workload}: {e}"));
        for (name, ..) in END_TO_END {
            assert!(value(&plain, name) > 0.0, "{workload}: {name} is 0");
        }

        let traced = smoke(workload, 11, true, &format!("every-traced-{workload}"));
        assert_eq!(traced.failed, 0, "{workload}: {:?}", traced.failures);
        contract_line(true, &traced, true).unwrap_or_else(|e| panic!("{workload}: {e}"));
        // A per-layer figure is measured where it explains the workload's
        // own end-to-end figures, and reads 0 elsewhere.
        for (name, only_on) in [
            ("serve.wire_overhead_us_p50", "http_point"),
            ("persist.recover_open_ms", "recover_replay"),
            ("gen.late_p99_ms", "live_mixed"),
        ] {
            let measured = traced.metrics.0[name].samples > 0;
            assert_eq!(measured, workload == only_on, "{workload}: {name}");
        }
        let residual = value(&traced, "ledger.residual_fraction");
        assert!(residual <= 0.05, "{workload}: ledger residual {residual}");
        let trace_file = traced.trace_file.expect("a traced run writes its spans");
        let spans = read_json(&trace_file).expect("trace file is JSON");
        assert!(!spans["traceEvents"]
            .as_array()
            .expect("traceEvents")
            .is_empty());
    }
}

#[test]
fn counts_repeat_for_a_seed_and_move_with_it() {
    const COUNTS: [&str; 3] = ["answer_precision", "answer_recall", "wal_bytes_per_doc"];
    for workload in ["ingest_stream", "ingest_adversarial"] {
        let a = smoke(workload, 11, false, &format!("counts-a-{workload}"));
        let b = smoke(workload, 11, false, &format!("counts-b-{workload}"));
        let other = smoke(workload, 12, false, &format!("counts-c-{workload}"));
        assert_eq!(a.corpus_fingerprint, b.corpus_fingerprint);
        assert_ne!(a.corpus_fingerprint, other.corpus_fingerprint);
        for name in COUNTS {
            assert_eq!(value(&a, name), value(&b, name), "{workload}: {name}");
        }
        assert_ne!(
            value(&a, "wal_bytes_per_doc"),
            value(&other, "wal_bytes_per_doc"),
            "{workload}: another seed wrote the same bytes"
        );
    }
}

#[test]
fn http_answers_are_the_in_process_answers() {
    let mix = smoke("query_mix", 11, false, "agree-mix");
    let http = smoke("http_point", 11, false, "agree-http");
    assert!(mix.point_fingerprint.is_some());
    assert_eq!(mix.point_fingerprint, http.point_fingerprint);
}
