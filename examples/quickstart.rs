//! Quickstart (experiment E1, Figure 1): build a custom knowledge graph
//! from a curated KB plus a streaming article corpus, then ask it
//! questions.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nous_core::{IngestPipeline, KnowledgeGraph, PipelineConfig, TrendMonitor};
use nous_corpus::Preset;
use nous_graph::window::WindowKind;
use nous_graph::LayeredSnapshot;
use nous_mining::{EvictionStrategy, MinerConfig};
use nous_query::{execute, parse, QueryOptions};
use nous_topics::LdaConfig;
use std::time::Instant;

fn main() {
    // 1. Data: a synthetic world standing in for YAGO2 + the WSJ corpus.
    let (world, kb, articles) = Preset::Demo.build();
    println!(
        "world: {} entities ({} companies), curated KB: {} triples, stream: {} articles",
        world.entities.len(),
        world.companies.len(),
        kb.len(),
        articles.len()
    );

    // 2. Load the curated KB and train the §3.4 link predictor on it.
    let mut kg = KnowledgeGraph::from_curated(&world, &kb);
    kg.train_predictor();

    // 3. Stream every article through the Figure-1 pipeline. Extraction
    // fans out across worker threads per micro-batch (NOUS_THREADS
    // overrides the worker count); graph updates stay sequential in
    // document order.
    let cfg = PipelineConfig::default();
    let workers = if cfg.extract_workers == 0 {
        nous_graph::parallel::available_workers()
    } else {
        cfg.extract_workers
    };
    let batch_size = cfg.batch_size;
    let mut pipeline = IngestPipeline::new(cfg);
    let t0 = Instant::now();
    let report = pipeline.ingest_batch(&mut kg, &articles);
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "\n-- ingestion ({secs:.2}s, {:.0} docs/s, batches of {batch_size} × {workers} workers) --",
        report.documents as f64 / secs
    );
    println!("  sentences        {}", report.sentences);
    println!("  raw triples      {}", report.raw_triples);
    println!("  mapped           {}", report.mapped);
    println!(
        "  unmapped         {}  (stashed for mapper expansion)",
        report.unmapped
    );
    println!("  admitted         {}", report.admitted);
    println!("  rejected         {}  (quality control)", report.rejected);
    println!("  new entities     {}", report.new_entities);
    let stats = kg.graph.stats();
    println!(
        "\nKG: {} vertices, {} edges ({} curated red / {} extracted blue), mean confidence {:.2}",
        stats.vertices,
        stats.live_edges,
        stats.curated_edges,
        stats.extracted_edges,
        stats.mean_confidence
    );
    let learned: Vec<String> = kg
        .mapper
        .rules()
        .iter()
        .filter(|(_, r)| !r.seed)
        .map(|(k, r)| format!("{k}→{}", r.ontology))
        .collect();
    println!(
        "mapper learned {} synonym rules: {}",
        learned.len(),
        learned.join(", ")
    );

    // 4. Topic index for explanatory questions (§3.6).
    let topics = kg.build_topic_index(&LdaConfig::default());

    // 5. Streaming trend mining (§3.5).
    let mut trends = TrendMonitor::new(
        WindowKind::Count { n: 400 },
        MinerConfig {
            k_max: 2,
            min_support: 8,
            eviction: EvictionStrategy::Eager,
        },
    );
    trends.observe(&kg);

    // 6. Queries across all five classes (Figure 5).
    let company_a = &world.entities[world.companies[0]].name;
    let company_b = &world.entities[world.companies[1]].name;
    let queries = [
        "TRENDING LIMIT 5".to_owned(),
        format!("tell me about {company_a}"),
        format!("WHY {company_a} -> {company_b} LIMIT 3"),
        "MATCH (Company)-[acquired]->(Company) LIMIT 3".to_owned(),
        format!("PATHS {company_a} TO {company_b} MAX 3 LIMIT 3"),
    ];
    let resolver = kg.disambiguator.served();
    let opts = QueryOptions::default();
    let view = LayeredSnapshot::freeze(&kg.graph);
    for q in &queries {
        println!("\n>> {q}");
        match parse(q) {
            Ok(query) => {
                let r = execute(&query, &view, resolver, &topics, Some(&mut trends), &opts);
                println!("{}", r.result.render())
            }
            Err(e) => println!("{e}"),
        }
    }
}
