//! Experiment E9 (§3.6): coherence-ranked path search quality vs the
//! path-ranking baselines on planted explanations, the look-ahead ablation,
//! and search latency vs graph size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nous_bench::{row, table_header};
use nous_core::KnowledgeGraph;
use nous_corpus::{plant_explanations, CuratedKb, Explanation, Preset, World, WorldConfig};
use nous_graph::{LayeredSnapshot, VertexId};
use nous_qa::baselines::{degree_salience_paths, random_walk_paths, shortest_paths_with_stats};
use nous_qa::{coherent_paths_with_stats, PathConstraint, QaConfig, RankedPath, TopicIndex};
use nous_topics::LdaConfig;

struct Instance {
    kg: KnowledgeGraph,
    /// The snapshot the path searches read.
    view: LayeredSnapshot,
    topics: TopicIndex,
    explanations: Vec<Explanation>,
}

fn build(companies: usize) -> Instance {
    let world = World::generate(&WorldConfig {
        companies,
        ..Preset::Demo.world_config()
    });
    let mut kb = CuratedKb::generate(&world, 7);
    let explanations = plant_explanations(&world, &mut kb, 15, 99);
    let kg = KnowledgeGraph::from_curated(&world, &kb);
    let topics = kg.build_topic_index(&LdaConfig::default());
    Instance {
        view: LayeredSnapshot::freeze(&kg.graph),
        kg,
        topics,
        explanations,
    }
}

type Ranker<'a> = dyn Fn(&Instance, VertexId, VertexId) -> Vec<RankedPath> + 'a;

fn accuracy_and_mrr(inst: &Instance, ranker: &Ranker) -> (f64, f64) {
    let mut hits = 0usize;
    let mut rr = 0f64;
    for e in &inst.explanations {
        let src = inst.kg.graph.vertex_id(&e.source).expect("exists");
        let dst = inst.kg.graph.vertex_id(&e.target).expect("exists");
        let paths = ranker(inst, src, dst);
        let expected: Vec<&str> = e.expected_path.iter().map(String::as_str).collect();
        let pos = paths.iter().position(|p| {
            p.vertices
                .iter()
                .map(|&v| inst.kg.graph.vertex_name(v))
                .eq(expected.iter().copied())
        });
        if pos == Some(0) {
            hits += 1;
        }
        if let Some(i) = pos {
            rr += 1.0 / (i + 1) as f64;
        }
    }
    let n = inst.explanations.len() as f64;
    (hits as f64 / n, rr / n)
}

fn quality(inst: &Instance) {
    let cfg = QaConfig {
        max_hops: 2,
        k: 5,
        ..Default::default()
    };
    let no_beam = QaConfig {
        beam: usize::MAX,
        ..cfg.clone()
    };
    let rankers: Vec<(&str, Box<Ranker>)> = vec![
        (
            "coherence (paper)",
            Box::new(move |i: &Instance, s, d| {
                coherent_paths_with_stats(
                    &i.view,
                    &i.topics,
                    s,
                    d,
                    &PathConstraint::default(),
                    &cfg,
                )
                .0
            }),
        ),
        (
            "coherence no-lookahead",
            Box::new(move |i: &Instance, s, d| {
                coherent_paths_with_stats(
                    &i.view,
                    &i.topics,
                    s,
                    d,
                    &PathConstraint::default(),
                    &no_beam,
                )
                .0
            }),
        ),
        (
            "shortest (BFS ties)",
            Box::new(|i: &Instance, s, d| {
                shortest_paths_with_stats(
                    &i.view,
                    s,
                    d,
                    &PathConstraint::default(),
                    &QaConfig {
                        max_hops: 2,
                        k: 5,
                        ..Default::default()
                    },
                )
                .0
            }),
        ),
        (
            "degree salience",
            Box::new(|i: &Instance, s, d| {
                degree_salience_paths(
                    &i.view,
                    s,
                    d,
                    &PathConstraint::default(),
                    &QaConfig {
                        max_hops: 2,
                        k: 5,
                        ..Default::default()
                    },
                )
            }),
        ),
        (
            "random walk (PRA)",
            Box::new(|i: &Instance, s, d| {
                random_walk_paths(
                    &i.view,
                    s,
                    d,
                    &PathConstraint::default(),
                    &QaConfig {
                        max_hops: 2,
                        k: 5,
                        ..Default::default()
                    },
                )
            }),
        ),
    ];
    table_header(
        "E9: why-question ranking on planted explanations",
        &["ranker", "Acc@1", "MRR"],
        &[24, 7, 7],
    );
    for (name, ranker) in &rankers {
        let (acc, mrr) = accuracy_and_mrr(inst, ranker.as_ref());
        println!(
            "{}",
            row(
                &[name.to_string(), format!("{acc:.2}"), format!("{mrr:.2}")],
                &[24, 7, 7]
            )
        );
    }
}

fn bench(c: &mut Criterion) {
    let inst = build(60);
    println!(
        "\nQA instance: {} vertices, {} edges, {} planted questions",
        inst.kg.graph.vertex_count(),
        inst.kg.graph.edge_count(),
        inst.explanations.len()
    );
    quality(&inst);

    let mut group = c.benchmark_group("qa_paths");
    group.sample_size(20);
    for companies in [40usize, 80, 160] {
        let inst = build(companies);
        let e = &inst.explanations[0];
        let src = inst.kg.graph.vertex_id(&e.source).unwrap();
        let dst = inst.kg.graph.vertex_id(&e.target).unwrap();
        group.bench_with_input(
            BenchmarkId::new("coherent_paths", companies),
            &inst,
            |b, inst| {
                let cfg = QaConfig {
                    max_hops: 3,
                    k: 5,
                    ..Default::default()
                };
                b.iter(|| {
                    coherent_paths_with_stats(
                        &inst.view,
                        &inst.topics,
                        src,
                        dst,
                        &PathConstraint::default(),
                        &cfg,
                    )
                    .0
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("shortest_paths", companies),
            &inst,
            |b, inst| {
                let cfg = QaConfig {
                    max_hops: 3,
                    k: 5,
                    ..Default::default()
                };
                b.iter(|| {
                    shortest_paths_with_stats(
                        &inst.view,
                        src,
                        dst,
                        &PathConstraint::default(),
                        &cfg,
                    )
                    .0
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
