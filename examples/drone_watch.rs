//! Drone-industry watch (experiment E2, Figures 2/4/6): the paper's §1.2
//! use case. Builds a drone-themed knowledge graph by fusing the curated
//! KB with facts extracted from the article stream, assigns every fact a
//! probability, and exports the neighbourhood of a watched company in DOT
//! and JSON (curated facts red, extracted facts blue — Figure 2's colour
//! code).
//!
//! ```sh
//! cargo run --release --example drone_watch [entity name]
//! ```

use nous_core::{entity_summary_view, IngestPipeline, KnowledgeGraph, PipelineConfig};
use nous_corpus::Preset;
use nous_graph::{snapshot, GraphView, LayeredSnapshot};

fn main() {
    let (world, kb, articles) = Preset::Demo.build();
    let mut kg = KnowledgeGraph::from_curated(&world, &kb);
    kg.train_predictor();
    let mut pipeline = IngestPipeline::new(PipelineConfig::default());
    // Micro-batched ingestion: parallel extraction, sequential KG updates.
    pipeline.ingest_batch(&mut kg, &articles);
    let view = LayeredSnapshot::freeze(&kg.graph);

    // The watched entity: argv override, else the busiest company.
    let watched = std::env::args().nth(1).unwrap_or_else(|| {
        world
            .companies
            .iter()
            .map(|&c| &world.entities[c].name)
            .max_by_key(|n| view.vertex_id(n).map(|v| view.degree(v)).unwrap_or(0))
            .expect("non-empty world")
            .clone()
    });
    let Some(v) = kg.graph.vertex_id(&watched) else {
        eprintln!("unknown entity: {watched}");
        std::process::exit(1);
    };

    println!("== {watched} ==");
    let summary =
        entity_summary_view(&view, kg.disambiguator.served(), &watched).expect("vertex exists");
    println!(
        "type: {}, degree: {}",
        summary.entity_type.as_deref().unwrap_or("?"),
        summary.degree
    );
    println!("\nhighest-confidence facts (red = curated, blue = extracted):");
    for (fact, conf, _at, curated) in summary.facts.iter().take(15) {
        let colour = if *curated { "red " } else { "blue" };
        println!("  [{colour} {conf:.2}] {fact}");
    }

    // Figure 2/4: graph visualisation exports of the 2-hop neighbourhood.
    let dot = snapshot::to_dot(&view, &[v], 2);
    let json = snapshot::to_json_graph(&view, &[v], 2);
    let dot_path = std::env::temp_dir().join("drone_watch.dot");
    let json_path = std::env::temp_dir().join("drone_watch.json");
    std::fs::write(&dot_path, &dot).expect("writable temp dir");
    std::fs::write(&json_path, &json).expect("writable temp dir");
    println!("\nneighbourhood exports:");
    println!(
        "  DOT  {} ({} bytes) — render with `dot -Tsvg`",
        dot_path.display(),
        dot.len()
    );
    println!(
        "  JSON {} ({} bytes) — node-link format for web UIs",
        json_path.display(),
        json.len()
    );

    // Figure 2's fused-provenance statistic for the neighbourhood.
    let stats = kg.graph.stats();
    println!(
        "\nwhole graph: {} curated + {} extracted facts, mean confidence {:.2}",
        stats.curated_edges, stats.extracted_edges, stats.mean_confidence
    );
}
