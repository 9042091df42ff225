//! Integration test for experiment E4 (Figure 5): each of the five query
//! classes executes end-to-end against a pipeline-built knowledge graph.

use nous_core::{IngestPipeline, KnowledgeGraph, PipelineConfig, SharedSession, TrendMonitor};
use nous_corpus::Preset;
use nous_graph::window::WindowKind;
use nous_graph::LayeredSnapshot;
use nous_mining::{EvictionStrategy, MinerConfig};
use nous_qa::TopicIndex;
use nous_query::{execute, execute_shared, parse, Query, QueryOptions, QueryResult};
use nous_topics::LdaConfig;

struct Session {
    world: nous_corpus::World,
    kg: KnowledgeGraph,
    topics: TopicIndex,
    trends: TrendMonitor,
}

fn session() -> Session {
    let (world, kb, articles) = Preset::Smoke.build();
    let mut kg = KnowledgeGraph::from_curated(&world, &kb);
    kg.train_predictor();
    IngestPipeline::new(PipelineConfig::default()).ingest_all(&mut kg, &articles);
    let topics = kg.build_topic_index(&LdaConfig {
        iterations: 40,
        ..Default::default()
    });
    let mut trends = TrendMonitor::new(
        WindowKind::Count { n: 300 },
        MinerConfig {
            k_max: 2,
            min_support: 4,
            eviction: EvictionStrategy::Eager,
        },
    );
    trends.observe(&kg);
    Session {
        world,
        kg,
        topics,
        trends,
    }
}

fn run(s: &mut Session, q: &str) -> QueryResult {
    let query = parse(q).unwrap_or_else(|e| panic!("parse {q:?}: {e}"));
    let resolver = s.kg.disambiguator.served();
    let opts = QueryOptions::default();
    execute(
        &query,
        &LayeredSnapshot::freeze(&s.kg.graph),
        resolver,
        &s.topics,
        Some(&mut s.trends),
        &opts,
    )
    .result
}

/// The identity oracle for the lock-free serving path: a fresh freeze of
/// the graph, taken with the topics and trend monitor under one
/// consistent read-lock acquisition, with telemetry on like
/// [`execute_shared`].
fn execute_shared_locked(session: &SharedSession, query: &Query) -> QueryResult {
    let opts = QueryOptions {
        registry: Some(session.metrics()),
        ..Default::default()
    };
    session.with_all(|kg, topics, trends| {
        let resolver = kg.disambiguator.served();
        let fresh = LayeredSnapshot::freeze(&kg.graph);
        execute(query, &fresh, resolver, topics, Some(trends), &opts).result
    })
}

#[test]
fn all_five_classes_answer() {
    let mut s = session();
    let a = s.world.entities[s.world.companies[0]].name.clone();
    let b = s.world.entities[s.world.companies[1]].name.clone();

    // 1. Trending.
    let r = run(&mut s, "TRENDING LIMIT 5");
    let QueryResult::Trending(items) = r else {
        panic!("{r:?}")
    };
    assert!(
        !items.is_empty(),
        "curated+extracted window has frequent patterns"
    );
    assert!(items.len() <= 5);

    // 2. Entity.
    let r = run(&mut s, &format!("ABOUT {a}"));
    let QueryResult::Entity { name, facts, .. } = r else {
        panic!("{r:?}")
    };
    assert_eq!(name, a);
    assert!(!facts.is_empty());

    // 3. Explanatory.
    let r = run(&mut s, &format!("WHY {a} -> {b} LIMIT 3"));
    let QueryResult::Paths(paths) = r else {
        panic!("{r:?}")
    };
    // Companies in a smoke world are densely related; expect an answer.
    assert!(
        !paths.is_empty(),
        "no explanation found between {a} and {b}"
    );
    assert!(
        paths.windows(2).all(|w| w[0].1 <= w[1].1),
        "coherence ascending"
    );

    // 4. Pattern.
    let r = run(&mut s, "MATCH (Company)-[isLocatedIn]->(Location) LIMIT 3");
    let QueryResult::Matches { total, sample } = r else {
        panic!("{r:?}")
    };
    assert!(
        total >= s.world.companies.len(),
        "every company has curated HQ"
    );
    assert_eq!(sample.len(), 3);

    // 5. Paths.
    let r = run(&mut s, &format!("PATHS {a} TO {b} MAX 3 LIMIT 5"));
    let QueryResult::Paths(paths) = r else {
        panic!("{r:?}")
    };
    assert!(!paths.is_empty());
    assert!(paths.iter().all(|(_, hops)| *hops <= 3.0));
}

#[test]
fn natural_language_phrasings_translate() {
    let mut s = session();
    let a = s.world.entities[s.world.companies[0]].name.clone();
    assert!(matches!(
        run(&mut s, "what is trending"),
        QueryResult::Trending(_)
    ));
    assert!(matches!(
        run(&mut s, &format!("tell me about {a}")),
        QueryResult::Entity { .. }
    ));
    let b = s.world.entities[s.world.companies[2]].name.clone();
    assert!(matches!(
        run(&mut s, &format!("why is {a} related to {b}")),
        QueryResult::Paths(_) | QueryResult::NotFound(_)
    ));
}

#[test]
fn alias_resolution_in_queries() {
    let mut s = session();
    // Query a company by its short alias; the disambiguator must resolve.
    let company = &s.world.entities[s.world.companies[0]];
    let alias = company.aliases[1].clone();
    let r = run(&mut s, &format!("ABOUT {alias}"));
    match r {
        QueryResult::Entity { name, .. } => {
            // Must resolve to SOME canonical entity carrying that alias.
            let idx = s.world.by_name(&name).expect("canonical name");
            assert!(
                s.world.entities[idx]
                    .aliases
                    .iter()
                    .any(|al| al.eq_ignore_ascii_case(&alias)),
                "{name} does not carry alias {alias}"
            );
        }
        other => panic!("alias lookup failed: {other:?}"),
    }
}

#[test]
fn frozen_and_locked_serving_paths_are_byte_identical() {
    // Every query class must answer identically whether served from the
    // epoch-swapped frozen snapshot (`execute_shared`) or under the
    // pre-snapshot read-lock baseline (`execute_shared_locked`).
    let s = session();
    let a = s.world.entities[s.world.companies[0]].name.clone();
    let b = s.world.entities[s.world.companies[1]].name.clone();
    let shared = SharedSession::new(s.kg, s.topics, s.trends);
    for q in [
        "TRENDING LIMIT 5".to_owned(),
        format!("ABOUT {a}"),
        format!("WHY {a} -> {b} LIMIT 3"),
        "MATCH (Company)-[isLocatedIn]->(Location) LIMIT 3".to_owned(),
        format!("TIMELINE {a} LIMIT 5"),
        format!("PATHS {a} TO {b} MAX 3 LIMIT 5"),
    ] {
        let parsed = parse(&q).unwrap_or_else(|e| panic!("parse {q:?}: {e}"));
        let frozen = execute_shared(&shared, &parsed);
        let locked = execute_shared_locked(&shared, &parsed);
        assert_eq!(
            format!("{frozen:?}"),
            format!("{locked:?}"),
            "serving paths diverged on {q}"
        );
    }
}

#[test]
fn query_objects_round_trip_through_parser() {
    // The five Figure-5 classes in canonical syntax parse to the expected
    // AST shape.
    assert!(matches!(parse("TRENDING").unwrap(), Query::Trending { .. }));
    assert!(matches!(parse("ABOUT X Y").unwrap(), Query::Entity { .. }));
    assert!(matches!(parse("WHY A -> B").unwrap(), Query::Why { .. }));
    assert!(matches!(
        parse("MATCH (A)-[p]->(B)").unwrap(),
        Query::Match { .. }
    ));
    assert!(matches!(
        parse("PATHS A TO B").unwrap(),
        Query::Paths { .. }
    ));
}
