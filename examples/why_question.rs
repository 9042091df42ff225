//! Why-question walkthrough (experiment E9, §3.6): for each planted
//! explanatory question, show how the four rankers order the candidate
//! paths — the coherence metric finds the planted explanation while the
//! structural baselines are fooled by the hub decoy.
//!
//! ```sh
//! cargo run --release --example why_question
//! ```

use nous_core::KnowledgeGraph;
use nous_corpus::{plant_explanations, CuratedKb, Preset, World};
use nous_graph::LayeredSnapshot;
use nous_qa::baselines::{degree_salience_paths, random_walk_paths, shortest_paths_with_stats};
use nous_qa::{coherent_paths_with_stats, PathConstraint, QaConfig, RankedPath};
use nous_topics::LdaConfig;

fn main() {
    let world = World::generate(&Preset::Demo.world_config());
    let mut kb = CuratedKb::generate(&world, 7);
    let explanations = plant_explanations(&world, &mut kb, 6, 99);
    let kg = KnowledgeGraph::from_curated(&world, &kb);
    let topics = kg.build_topic_index(&LdaConfig::default());
    let view = LayeredSnapshot::freeze(&kg.graph);
    let cfg = QaConfig {
        max_hops: 2,
        k: 3,
        ..Default::default()
    };

    let path_names = |p: &RankedPath| -> String {
        p.vertices
            .iter()
            .map(|&v| kg.graph.vertex_name(v))
            .collect::<Vec<_>>()
            .join(" → ")
    };

    let mut scores = [0usize; 4];
    for (qi, e) in explanations.iter().enumerate() {
        let src = kg.graph.vertex_id(&e.source).expect("source exists");
        let dst = kg.graph.vertex_id(&e.target).expect("target exists");
        println!(
            "\n== Q{}: why is {} related to {}? ==",
            qi + 1,
            e.source,
            e.target
        );
        println!("   planted explanation: {}", e.expected_path.join(" → "));
        println!("   planted decoy:       {}", e.decoy_path.join(" → "));

        let rankings: Vec<(&str, Vec<RankedPath>)> = vec![
            (
                "coherence (paper)",
                coherent_paths_with_stats(
                    &view,
                    &topics,
                    src,
                    dst,
                    &PathConstraint::default(),
                    &cfg,
                )
                .0,
            ),
            (
                "shortest",
                shortest_paths_with_stats(&view, src, dst, &PathConstraint::default(), &cfg).0,
            ),
            (
                "degree salience",
                degree_salience_paths(&view, src, dst, &PathConstraint::default(), &cfg),
            ),
            (
                "random walk",
                random_walk_paths(&view, src, dst, &PathConstraint::default(), &cfg),
            ),
        ];
        for (ri, (name, paths)) in rankings.iter().enumerate() {
            let top = paths
                .first()
                .map(path_names)
                .unwrap_or_else(|| "(none)".into());
            let hit = paths
                .first()
                .map(|p| {
                    p.vertices
                        .iter()
                        .map(|&v| kg.graph.vertex_name(v))
                        .eq(e.expected_path.iter().map(String::as_str))
                })
                .unwrap_or(false);
            if hit {
                scores[ri] += 1;
            }
            println!("   {:>18}: {} {}", name, if hit { "✓" } else { "✗" }, top);
        }
    }

    println!(
        "\n== top-1 accuracy over {} questions ==",
        explanations.len()
    );
    for (name, s) in [
        "coherence (paper)",
        "shortest",
        "degree salience",
        "random walk",
    ]
    .iter()
    .zip(scores)
    {
        println!("  {name:>18}: {s}/{}", explanations.len());
    }
}
