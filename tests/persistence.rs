//! Persistence integration: the complete system state (graph, aliases,
//! learned mapping rules, per-entity text) survives a checkpoint
//! round trip, and the restored system keeps working — answering queries
//! and ingesting further documents. The checkpoint does not carry the
//! predictor's weights; retrained on the restored graph, the predictor
//! scores exactly as the original's does.

use nous_core::{IngestPipeline, KnowledgeGraph, PipelineConfig};
use nous_corpus::Preset;
use nous_link::LinkMode;
use nous_text::bow::BagOfWords;

fn built() -> (
    nous_corpus::World,
    KnowledgeGraph,
    Vec<nous_corpus::Article>,
) {
    let (world, kb, articles) = Preset::Smoke.build();
    let mut kg = KnowledgeGraph::from_curated(&world, &kb);
    kg.train_predictor();
    let mut pipe = IngestPipeline::new(PipelineConfig::default());
    let (first, _) = articles.split_at(articles.len() / 2);
    pipe.ingest_all(&mut kg, first);
    (world, kg, articles)
}

#[test]
fn full_state_roundtrip() {
    let (world, mut kg, _) = built();
    let mut back = KnowledgeGraph::decode_checkpoint(&kg.encode_checkpoint()).expect("decodable");

    // Graph equivalence.
    assert_eq!(back.graph.vertex_count(), kg.graph.vertex_count());
    assert_eq!(back.graph.edge_count(), kg.graph.edge_count());
    assert_eq!(back.graph.stats(), kg.graph.stats());
    for (_, e) in kg.graph.iter_edges() {
        assert!(back.graph.has_triple(e.src, e.pred, e.dst));
    }
    // Aliases and types.
    let company = &world.entities[world.companies[0]];
    assert_eq!(
        back.gazetteer.lookup(&company.aliases[1]),
        kg.gazetteer.lookup(&company.aliases[1])
    );
    // Learned mapping rules.
    assert_eq!(
        kg.mapper
            .rules()
            .iter()
            .map(|(k, _)| *k)
            .collect::<Vec<_>>(),
        back.mapper
            .rules()
            .iter()
            .map(|(k, _)| *k)
            .collect::<Vec<_>>()
    );
    // Retrained on either graph, the predictor scores identically.
    kg.train_predictor();
    back.train_predictor();
    assert_eq!(
        kg.predictor.score("isLocatedIn", 0, 1),
        back.predictor.score("isLocatedIn", 0, 1)
    );
    // Disambiguator resolves identically.
    let bow = BagOfWords::from_text(&company.description);
    let a = kg
        .disambiguator
        .resolve(&company.aliases[1], &bow, LinkMode::Full);
    let b = back
        .disambiguator
        .resolve(&company.aliases[1], &bow, LinkMode::Full);
    assert_eq!(a.map(|r| r.id), b.map(|r| r.id));
}

#[test]
fn restored_graph_keeps_ingesting() {
    let (_, kg, articles) = built();
    let mut back = KnowledgeGraph::decode_checkpoint(&kg.encode_checkpoint()).unwrap();
    // As `DurableStore::open` does: train once the restored graph is
    // complete, before ingesting further.
    back.train_predictor();
    let before = back.graph.edge_count();
    let (_, second) = articles.split_at(articles.len() / 2);
    let mut pipe = IngestPipeline::new(PipelineConfig::default());
    let report = pipe.ingest_all(&mut back, second);
    assert!(
        report.admitted > 0,
        "restored system must keep admitting facts"
    );
    assert!(back.graph.edge_count() > before);
}

#[test]
fn summaries_survive_roundtrip() {
    let (world, kg, _) = built();
    let back = KnowledgeGraph::decode_checkpoint(&kg.encode_checkpoint()).unwrap();
    let name = &world.entities[world.companies[0]].name;
    let a = kg.entity_summary(name).unwrap();
    let b = back.entity_summary(name).unwrap();
    assert_eq!(a.name, b.name);
    assert_eq!(a.degree, b.degree);
    assert_eq!(a.facts.len(), b.facts.len());
}
