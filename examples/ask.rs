//! Command-line query interface (demo feature 4, Figures 5/6): build the
//! system once, then run one query per command-line argument — or an
//! interactive prompt when stdin is a TTY-ish session.
//!
//! ```sh
//! cargo run --release --example ask -- "tell me about Apex Robotics"
//! cargo run --release --example ask -- "TRENDING LIMIT 5" "PATHS A TO B"
//! echo "what is trending" | cargo run --release --example ask
//! ```

use nous_core::{IngestPipeline, KnowledgeGraph, PipelineConfig, TrendMonitor};
use nous_corpus::Preset;
use nous_graph::window::WindowKind;
use nous_graph::LayeredSnapshot;
use nous_mining::{EvictionStrategy, MinerConfig};
use nous_query::{execute, parse, QueryOptions};
use nous_topics::LdaConfig;
use std::io::BufRead;

fn main() {
    eprintln!("building knowledge graph (demo preset)…");
    let (world, kb, articles) = Preset::Demo.build();
    let mut kg = KnowledgeGraph::from_curated(&world, &kb);
    kg.train_predictor();
    IngestPipeline::new(PipelineConfig::default()).ingest_all(&mut kg, &articles);
    let topics = kg.build_topic_index(&LdaConfig::default());
    let mut trends = TrendMonitor::new(
        WindowKind::Count { n: 400 },
        MinerConfig {
            k_max: 2,
            min_support: 8,
            eviction: EvictionStrategy::Eager,
        },
    );
    trends.observe(&kg);
    eprintln!(
        "ready: {} entities, {} facts. Example entities: {}, {}",
        kg.graph.vertex_count(),
        kg.graph.edge_count(),
        world.entities[world.companies[0]].name,
        world.entities[world.companies[1]].name,
    );

    let view = LayeredSnapshot::freeze(&kg.graph);
    let mut run = |line: &str| {
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        match parse(line) {
            Ok(q) => {
                let resolver = kg.disambiguator.served();
                let opts = QueryOptions::default();
                let r = execute(&q, &view, resolver, &topics, Some(&mut trends), &opts);
                println!("{}", r.result.render())
            }
            Err(e) => println!("{e}"),
        }
    };

    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.is_empty() {
        for q in &args {
            println!(">> {q}");
            run(q);
        }
        return;
    }
    // Read queries from stdin, one per line.
    eprintln!(
        "enter queries (TRENDING / ABOUT x / WHY a -> b / MATCH (T)-[p]->(T) / PATHS a TO b):"
    );
    for line in std::io::stdin().lock().lines() {
        match line {
            Ok(l) => run(&l),
            Err(_) => break,
        }
    }
}
