//! Integration test for the paper's second domain (§3.1): insider-threat
//! detection from structured log streams — the NOUS framework with the NLP
//! stage swapped out for a direct log adapter.

use nous_core::{KnowledgeGraph, TrendMonitor};
use nous_corpus::insider::{self, InsiderConfig, InsiderPredicate};
use nous_graph::window::WindowKind;
use nous_mining::{EvictionStrategy, MinerConfig};
use nous_text::ner::EntityType;

struct Run {
    kg: KnowledgeGraph,
    /// Max support of a copiedTo-containing closed pattern per 10-day epoch.
    epoch_support: Vec<(u64, u32)>,
    scenario: insider::InsiderScenario,
    cfg: InsiderConfig,
}

fn run() -> Run {
    let cfg = InsiderConfig::default();
    let scenario = insider::generate(&cfg);
    let mut kg = KnowledgeGraph::new();
    for e in &scenario.entities {
        let v = kg.create_entity(&e.name, EntityType::Other);
        kg.graph.set_label(v, e.label);
    }
    let mut monitor = TrendMonitor::new(
        WindowKind::Time { span: 14 },
        MinerConfig {
            k_max: 2,
            min_support: 4,
            eviction: EvictionStrategy::Eager,
        },
    );
    let mut epoch_support = Vec::new();
    let mut last = 0u64;
    for ev in &scenario.events {
        let s = kg.graph.vertex_id(&ev.subject).unwrap();
        let o = kg.graph.vertex_id(&ev.object).unwrap();
        kg.add_extracted_fact(s, ev.predicate.name(), o, ev.day, 1.0, ev.day);
        monitor.observe(&kg);
        monitor.advance_to(&kg, ev.day);
        if ev.day >= last + 10 {
            last = ev.day;
            let best = monitor
                .trending(&kg)
                .iter()
                .filter(|t| t.description.contains("copiedTo"))
                .map(|t| t.support)
                .max()
                .unwrap_or(0);
            epoch_support.push((ev.day, best));
        }
    }
    Run {
        kg,
        epoch_support,
        scenario,
        cfg,
    }
}

#[test]
fn exfiltration_motif_appears_only_during_attack() {
    let r = run();
    for (day, support) in &r.epoch_support {
        if *day < r.cfg.attack_start {
            assert_eq!(*support, 0, "motif visible before the attack at day {day}");
        }
    }
    let peak_in_attack = r
        .epoch_support
        .iter()
        .filter(|(d, _)| (r.cfg.attack_start..=r.cfg.attack_end + 10).contains(d))
        .map(|(_, s)| *s)
        .max()
        .unwrap_or(0);
    assert!(
        peak_in_attack >= 4,
        "motif never became frequent during the attack"
    );
}

#[test]
fn suspects_match_ground_truth() {
    let r = run();
    let p =
        r.kg.graph
            .predicate_id(InsiderPredicate::CopiedTo.name())
            .expect("predicate");
    let mut suspects: Vec<(String, usize)> =
        r.kg.graph
            .iter_vertices()
            .filter(|&v| r.kg.graph.label(v) == Some("User"))
            .map(|v| {
                let n = r.kg.graph.out_edges(v).filter(|a| a.pred == p).count();
                (r.kg.graph.vertex_name(v).to_owned(), n)
            })
            .filter(|(_, n)| *n > 0)
            .collect();
    suspects.sort_by_key(|s| std::cmp::Reverse(s.1));
    let mut names: Vec<String> = suspects.into_iter().map(|(n, _)| n).collect();
    names.sort();
    assert_eq!(
        names, r.scenario.exfiltrators,
        "copiedTo activity identifies the insiders"
    );
}

#[test]
fn typed_labels_separate_benign_and_malicious_access() {
    // Benign file access and sensitive access form *different* patterns
    // because the object labels differ — the type system is what makes
    // the anomaly minable.
    let r = run();
    let accessed =
        r.kg.graph
            .predicate_id(InsiderPredicate::Accessed.name())
            .unwrap();
    let mut benign = 0;
    let mut sensitive = 0;
    for (_, e) in r.kg.graph.iter_edges().filter(|(_, e)| e.pred == accessed) {
        match r.kg.graph.label(e.dst) {
            Some("File") => benign += 1,
            Some("SensitiveFile") => sensitive += 1,
            other => panic!("unexpected access target label {other:?}"),
        }
    }
    assert!(benign > sensitive, "background dominates");
    assert!(sensitive > 0, "attack accesses present");
}
