//! Experiment E4 (Figure 5): latency of each of the five query classes
//! against a pipeline-built knowledge graph, plus a correctness smoke table.

use criterion::{criterion_group, criterion_main, Criterion};
use nous_bench::{build_system, table_header};
use nous_core::TrendMonitor;
use nous_corpus::Preset;
use nous_graph::window::WindowKind;
use nous_graph::LayeredSnapshot;
use nous_mining::{EvictionStrategy, MinerConfig};
use nous_query::{execute, parse, QueryOptions, QueryResult};
use nous_topics::LdaConfig;

fn bench(c: &mut Criterion) {
    let system = build_system(Preset::Demo);
    let kg = system.kg;
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
    let view = LayeredSnapshot::freeze(&kg.graph);
    let run = |q: &nous_query::Query, trends: &mut TrendMonitor| {
        let resolver = kg.disambiguator.served();
        let opts = QueryOptions::default();
        execute(q, &view, resolver, &topics, Some(trends), &opts).result
    };

    let a = system.world.entities[system.world.companies[0]]
        .name
        .clone();
    let b = system.world.entities[system.world.companies[1]]
        .name
        .clone();
    let queries: Vec<(&str, String)> = vec![
        ("trending", "TRENDING LIMIT 5".to_owned()),
        ("entity", format!("ABOUT {a}")),
        ("why", format!("WHY {a} -> {b} LIMIT 3")),
        (
            "match",
            "MATCH (Company)-[acquired]->(Company) LIMIT 5".to_owned(),
        ),
        ("paths", format!("PATHS {a} TO {b} MAX 3 LIMIT 5")),
    ];

    table_header(
        "E4: query classes smoke results",
        &["class", "result summary"],
        &[10, 48],
    );
    for (name, q) in &queries {
        let r = run(&parse(q).expect("valid query"), &mut trends);
        let summary = match &r {
            QueryResult::Trending(v) => format!("{} patterns", v.len()),
            QueryResult::Entity { facts, .. } => format!("{} facts", facts.len()),
            QueryResult::Paths(p) => format!("{} paths", p.len()),
            QueryResult::Matches { total, .. } => format!("{total} matches"),
            QueryResult::Timeline(items) => format!("{} dated facts", items.len()),
            QueryResult::NotFound(w) => format!("NOT FOUND: {w}"),
        };
        println!("{name:>10}  {summary}");
        assert!(
            !matches!(r, QueryResult::NotFound(_)),
            "query class {name} failed to answer"
        );
    }

    let mut group = c.benchmark_group("query_classes");
    for (name, q) in &queries {
        let parsed = parse(q).expect("valid query");
        group.bench_function(*name, |bch| bch.iter(|| run(&parsed, &mut trends)));
    }
    group.bench_function("parse_only", |bch| {
        bch.iter(|| {
            queries
                .iter()
                .map(|(_, q)| parse(q).is_ok())
                .filter(|x| *x)
                .count()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
