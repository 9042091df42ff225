//! Incremental mapper expansion against its batch oracle.
//!
//! `KnowledgeGraph::expand_mapper` keeps every raw predicate's vote tally
//! current as triples are stashed and edges appear or die, and reads only
//! the tallies. The oracle is what it replaced: rebuild the known pairs
//! from *all* live edges, recount *all* stashed triples, run
//! `PredicateMapper::expand_to_fixpoint`. At every expansion point both
//! start from the same rules and must end with the same rules — same
//! ontology predicate, same direction, same confidence — so a rule is
//! learned after the same document on either path.

use nous_core::{IngestPipeline, KnowledgeGraph, PipelineConfig, RevisionPolicy};
use nous_corpus::{ArticleStream, CuratedKb, Preset, StreamConfig, World};
use nous_link::predicate_map::KnownPairs;
use nous_text::ner::EntityType;

/// Expand `kg`'s mapper incrementally and a clone of it by the batch
/// fixpoint over all edges and all stashed triples; both must agree.
/// Returns the number of rules learned.
fn expand_both_ways(kg: &mut KnowledgeGraph, context: &str) -> usize {
    let mut known = KnownPairs::new();
    for (_, e) in kg.graph.iter_edges() {
        known
            .entry((e.src.0, e.dst.0))
            .or_default()
            .push(kg.graph.predicate_name(e.pred).to_owned());
    }
    let mut oracle = kg.mapper.clone();
    let want = oracle.expand_to_fixpoint(&kg.pending_raw_triples(), &known, 5);
    let got = kg.expand_mapper();
    assert_eq!(got, want, "rules learned, {context}");
    assert_eq!(kg.mapper.rules(), oracle.rules(), "{context}");
    got
}

#[test]
fn article_stream_learns_the_same_rules_after_the_same_documents() {
    let world = World::generate(&Preset::Smoke.world_config());
    let kb = CuratedKb::generate(&world, 7);
    let mut kg = KnowledgeGraph::from_curated(&world, &kb);
    kg.train_predictor();
    let articles = ArticleStream::generate(
        &world,
        &kb,
        &StreamConfig {
            articles: 2_400,
            curated_echo_rate: 0.4,
            ..Preset::Smoke.stream_config()
        },
    );
    // The pipeline's own cadence, driven from here so the oracle can look
    // at the same state first.
    let every = PipelineConfig::default().expand_mapper_every;
    let mut pipe = IngestPipeline::new(PipelineConfig {
        expand_mapper_every: 0,
        ..Default::default()
    });
    let mut learned_at = Vec::new();
    for (i, article) in articles.iter().enumerate() {
        pipe.ingest(&mut kg, article);
        if (i + 1) % every == 0 {
            let learned = expand_both_ways(&mut kg, &format!("after document {}", i + 1));
            if learned > 0 {
                learned_at.push(i + 1);
            }
        }
    }
    assert!(kg.pending_raw_count() > 500, "{}", kg.pending_raw_count());
    assert!(
        learned_at.len() >= 3,
        "the stream must teach rules at several points: {learned_at:?}"
    );
}

fn companies(kg: &mut KnowledgeGraph, n: usize) -> Vec<nous_graph::VertexId> {
    (0..n)
        .map(|i| kg.create_entity(&format!("Company {i}"), EntityType::Organization))
        .collect()
}

/// `buy` is learned from real `acquired` edges; `purchase` only from the
/// pairs the `buy` triples imply once `buy` maps — the second round of the
/// fixpoint, inside one call.
#[test]
fn chained_rules_are_learned_in_one_expansion() {
    let mut kg = KnowledgeGraph::new();
    let c = companies(&mut kg, 12);
    for i in [0, 2, 4] {
        kg.add_extracted_fact(c[i], "acquired", c[i + 1], 1, 0.9, i as u64);
    }
    for i in [0, 2, 4, 6, 8, 10] {
        kg.stash_raw_triple(c[i], "buy", c[i + 1]);
    }
    for i in [6, 8, 10] {
        kg.stash_raw_triple(c[i], "purchase", c[i + 1]);
    }
    assert!(kg.mapper.map("buy").is_none() && kg.mapper.map("purchase").is_none());
    assert_eq!(expand_both_ways(&mut kg, "chained"), 2);
    assert_eq!(kg.mapper.map("purchase").unwrap().ontology, "acquired");
    assert_eq!(expand_both_ways(&mut kg, "chained, again"), 0);
}

/// A superseded edge leaves the known pairs: its stashed triple stops
/// voting, on both paths, and votes again for the edge that replaced it.
#[test]
fn tombstoned_edges_stop_voting() {
    let mut kg = KnowledgeGraph::new();
    kg.set_revision_policy(RevisionPolicy::enabled());
    let c = companies(&mut kg, 3);
    let cities: Vec<_> = ["Shenzhen", "Austin", "Boston", "Lyon"]
        .iter()
        .map(|name| kg.create_entity(name, EntityType::Location))
        .collect();
    for (i, company) in c.iter().enumerate() {
        kg.add_extracted_fact(*company, "isLocatedIn", cities[i], 1, 0.9, i as u64);
        kg.stash_raw_triple(*company, "headquarter_in", cities[i]);
    }
    // Observed by an expansion that learns nothing yet…
    kg.mapper = kg.mapper.clone().with_thresholds(4, 0.5);
    assert_eq!(expand_both_ways(&mut kg, "three votes, support four"), 0);
    // …then company 2 moves twice: the first move is tombstoned outright
    // (decayed below the floor by the second), the original home too.
    kg.add_extracted_fact(c[2], "isLocatedIn", cities[3], 2, 0.9, 10);
    kg.add_extracted_fact(c[2], "isLocatedIn", cities[0], 3, 0.9, 11);
    assert!(kg.revision_counters().superseded >= 2);
    kg.mapper = kg.mapper.clone().with_thresholds(3, 0.5);
    assert_eq!(
        expand_both_ways(&mut kg, "two live votes of three"),
        0,
        "the superseded home no longer supports headquarter_in"
    );
    kg.stash_raw_triple(c[2], "headquarter_in", cities[0]);
    assert_eq!(expand_both_ways(&mut kg, "the new home votes"), 1);
    let rule = kg.mapper.map("headquarter_in").unwrap();
    assert_eq!(
        (rule.ontology.as_str(), rule.inverted),
        ("isLocatedIn", false)
    );
    assert_eq!(rule.confidence, 0.75);
}
