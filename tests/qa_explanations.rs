//! Integration test for experiment E9 (§3.6): on planted why-questions,
//! coherence-ranked path search must beat the path-ranking baselines.

use nous_core::KnowledgeGraph;
use nous_corpus::{plant_explanations, CuratedKb, Preset, World};
use nous_graph::LayeredSnapshot;
use nous_qa::baselines::{degree_salience_paths, shortest_paths_with_stats};
use nous_qa::{coherent_paths_with_stats, PathConstraint, QaConfig, TopicIndex};
use nous_topics::LdaConfig;

struct Instance {
    kg: KnowledgeGraph,
    /// The snapshot the path searches read.
    view: LayeredSnapshot,
    topics: TopicIndex,
    explanations: Vec<nous_corpus::Explanation>,
}

fn build() -> Instance {
    let world = World::generate(&Preset::Demo.world_config());
    let mut kb = CuratedKb::generate(&world, 7);
    let explanations = plant_explanations(&world, &mut kb, 12, 99);
    assert!(explanations.len() >= 10, "enough planted instances");
    let kg = KnowledgeGraph::from_curated(&world, &kb);
    let topics = kg.build_topic_index(&LdaConfig::default());
    Instance {
        view: LayeredSnapshot::freeze(&kg.graph),
        kg,
        topics,
        explanations,
    }
}

/// Fraction of instances whose top-1 path is exactly the expected one.
fn accuracy(
    inst: &Instance,
    ranker: impl Fn(&Instance, nous_graph::VertexId, nous_graph::VertexId) -> Vec<nous_qa::RankedPath>,
) -> f64 {
    let mut hits = 0usize;
    for e in &inst.explanations {
        let src = inst.kg.graph.vertex_id(&e.source).expect("source exists");
        let dst = inst.kg.graph.vertex_id(&e.target).expect("target exists");
        let paths = ranker(inst, src, dst);
        if let Some(top) = paths.first() {
            let names: Vec<&str> = top
                .vertices
                .iter()
                .map(|&v| inst.kg.graph.vertex_name(v))
                .collect();
            if names
                == e.expected_path
                    .iter()
                    .map(String::as_str)
                    .collect::<Vec<_>>()
            {
                hits += 1;
            }
        }
    }
    hits as f64 / inst.explanations.len() as f64
}

fn cfg() -> QaConfig {
    QaConfig {
        max_hops: 2,
        k: 3,
        ..Default::default()
    }
}

#[test]
fn coherence_beats_degree_salience() {
    let inst = build();
    let coh = accuracy(&inst, |i, s, d| {
        coherent_paths_with_stats(&i.view, &i.topics, s, d, &PathConstraint::default(), &cfg()).0
    });
    let deg = accuracy(&inst, |i, s, d| {
        degree_salience_paths(&i.view, s, d, &PathConstraint::default(), &cfg())
    });
    assert!(
        coh > deg,
        "coherence accuracy {coh:.2} must beat degree-salience {deg:.2}"
    );
    assert!(coh >= 0.6, "coherence accuracy too low: {coh:.2}");
}

#[test]
fn coherence_beats_or_matches_shortest() {
    let inst = build();
    let coh = accuracy(&inst, |i, s, d| {
        coherent_paths_with_stats(&i.view, &i.topics, s, d, &PathConstraint::default(), &cfg()).0
    });
    let sp = accuracy(&inst, |i, s, d| {
        shortest_paths_with_stats(&i.view, s, d, &PathConstraint::default(), &cfg()).0
    });
    // Shortest path ties between expected and decoy; lexicographic
    // tie-break is blind, so it cannot systematically find the answer.
    assert!(coh >= sp, "coherence {coh:.2} vs shortest {sp:.2}");
}

#[test]
fn expected_paths_rank_above_decoys_by_coherence() {
    let inst = build();
    let mut checked = 0;
    for e in &inst.explanations {
        let src = inst.kg.graph.vertex_id(&e.source).unwrap();
        let dst = inst.kg.graph.vertex_id(&e.target).unwrap();
        let paths = coherent_paths_with_stats(
            &inst.view,
            &inst.topics,
            src,
            dst,
            &PathConstraint::default(),
            &cfg(),
        )
        .0;
        let pos = |names: &[String]| {
            paths.iter().position(|p| {
                p.vertices
                    .iter()
                    .map(|&v| inst.kg.graph.vertex_name(v))
                    .eq(names.iter().map(String::as_str))
            })
        };
        if let (Some(exp), Some(dec)) = (pos(&e.expected_path), pos(&e.decoy_path)) {
            assert!(
                exp < dec,
                "decoy outranked expected for {} -> {}",
                e.source,
                e.target
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 5,
        "too few instances had both paths in top-K: {checked}"
    );
}
