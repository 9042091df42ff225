//! Snapshot-consistency stress test for the lock-free serving path.
//!
//! A writer thread drives micro-batched ingestion through a
//! [`SharedSession`] (each batch publishes a new frozen-snapshot epoch)
//! while reader threads hammer [`SharedSession::frozen`] and execute a
//! fixed query set against whatever epoch they observe. Ingestion is
//! deterministic, so a sequential reference pass — the same corpus pushed
//! through an identical pipeline, one micro-batch at a time — precomputes
//! the expected answers for every publishable graph state. Every reader
//! answer must be byte-identical to the reference at the same epoch
//! (keyed by the frozen view's source edge-log length): torn reads,
//! half-published indexes, or mutation leaking into a pinned snapshot all
//! show up as a mismatch.

use nous_core::{IngestPipeline, KnowledgeGraph, PipelineConfig, SharedSession, TrendMonitor};
use nous_corpus::{ArticleStream, CuratedKb, Preset, World};
use nous_graph::{GraphView, LayeredSnapshot};
use nous_link::{AliasResolver, EntityRecord, LinkMode, Resolution};
use nous_mining::{EvictionStrategy, MinerConfig};
use nous_qa::TopicIndex;
use nous_query::{execute, parse, Query, QueryOptions};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const BATCH: usize = 4;

fn world_kg() -> (World, KnowledgeGraph, Vec<nous_corpus::Article>) {
    let world = World::generate(&Preset::Smoke.world_config());
    let kb = CuratedKb::generate(&world, 7);
    let mut kg = KnowledgeGraph::from_curated(&world, &kb);
    kg.train_predictor();
    let articles = ArticleStream::generate(&world, &kb, &Preset::Smoke.stream_config());
    (world, kg, articles)
}

fn pipeline() -> IngestPipeline {
    IngestPipeline::new(PipelineConfig {
        batch_size: BATCH,
        extract_workers: 2,
        ..Default::default()
    })
}

fn trend_monitor() -> TrendMonitor {
    TrendMonitor::new(
        nous_graph::window::WindowKind::Count { n: 100 },
        MinerConfig {
            k_max: 1,
            min_support: 2,
            eviction: EvictionStrategy::Eager,
        },
    )
}

/// The reader workload: one query per lock-free class (TRENDING is
/// excluded — it goes through the trend-monitor mutex, not the snapshot).
fn queries(world: &World) -> Vec<Query> {
    let a = world.entities[world.companies[0]].name.clone();
    let b = world.entities[world.companies[1]].name.clone();
    [
        format!("ABOUT {a}"),
        "MATCH (Company)-[isLocatedIn]->(Location) LIMIT 5".to_owned(),
        format!("TIMELINE {a} LIMIT 5"),
        format!("WHY {a} -> {b} LIMIT 3"),
        format!("PATHS {a} TO {b} MAX 3 LIMIT 5"),
    ]
    .iter()
    .map(|q| parse(q).expect("query parses"))
    .collect()
}

fn answers(
    queries: &[Query],
    view: &LayeredSnapshot,
    disamb: &AliasResolver,
    topics: &TopicIndex,
) -> Vec<String> {
    queries
        .iter()
        .map(|q| {
            let opts = QueryOptions::default();
            format!("{:?}", execute(q, view, disamb, topics, None, &opts).result)
        })
        .collect()
}

#[test]
fn concurrent_readers_see_reference_answers_at_every_epoch() {
    let (world, kg, articles) = world_kg();
    let qs = queries(&world);
    let topics = TopicIndex::new(2);

    // Sequential reference pass: replay the exact micro-batch boundaries
    // the session will publish at, recording the expected answers for
    // every reachable graph state, keyed by edge-log length.
    let mut reference: HashMap<usize, Vec<String>> = HashMap::new();
    {
        let (_, mut ref_kg, _) = world_kg();
        let mut pipe = pipeline();
        let snap = LayeredSnapshot::freeze(&ref_kg.graph);
        reference.insert(
            snap.source_log_len(),
            answers(&qs, &snap, ref_kg.disambiguator.served(), &topics),
        );
        for chunk in articles.chunks(BATCH) {
            pipe.ingest_batch(&mut ref_kg, chunk);
            let snap = LayeredSnapshot::freeze(&ref_kg.graph);
            reference.insert(
                snap.source_log_len(),
                answers(&qs, &snap, ref_kg.disambiguator.served(), &topics),
            );
        }
    }
    let reference = Arc::new(reference);

    let session = SharedSession::new(kg, topics.clone(), trend_monitor());
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let session = session.clone();
            let done = done.clone();
            let reference = reference.clone();
            let qs = qs.clone();
            std::thread::spawn(move || {
                let mut checked = 0usize;
                let mut epochs_seen = std::collections::HashSet::new();
                while !done.load(Ordering::Relaxed) || checked == 0 {
                    let snap = session.frozen();
                    let got = answers(&qs, &snap.view, &snap.disambiguator, &snap.topics);
                    let want = reference
                        .get(&snap.view.source_log_len())
                        .unwrap_or_else(|| {
                            panic!(
                                "epoch {} has log_len {} matching no batch boundary",
                                snap.epoch,
                                snap.view.source_log_len()
                            )
                        });
                    assert_eq!(&got, want, "epoch {} diverged", snap.epoch);
                    epochs_seen.insert(snap.epoch);
                    checked += 1;
                }
                (checked, epochs_seen.len())
            })
        })
        .collect();

    let mut pipe = pipeline();
    let report = session.ingest_batch(&mut pipe, &articles);
    done.store(true, Ordering::Relaxed);

    for r in readers {
        let (checked, distinct) = r.join().expect("reader");
        assert!(checked > 0);
        assert!(distinct >= 1);
    }
    assert!(report.admitted > 0);

    // The final published snapshot is the final reference state.
    let last = session.frozen();
    assert_eq!(
        &answers(&qs, &last.view, &last.disambiguator, &last.topics),
        reference.get(&last.view.source_log_len()).unwrap()
    );
    assert_eq!(
        last.view.source_log_len(),
        session.read(|kg, _| kg.graph.log_len()),
        "last epoch is current"
    );
}

/// Background compaction racing readers and the writer: with thresholds
/// forced low enough that the compactor fires on nearly every publish,
/// every reader answer must still match the sequential reference at the
/// same watermark — folding the overlay stack into a new base is
/// invisible to the query surface.
#[test]
fn compaction_under_query_stress_preserves_reference_answers() {
    let (world, kg, articles) = world_kg();
    let qs = queries(&world);
    let topics = TopicIndex::new(2);

    let mut reference: HashMap<usize, Vec<String>> = HashMap::new();
    {
        let (_, mut ref_kg, _) = world_kg();
        let mut pipe = pipeline();
        let snap = LayeredSnapshot::freeze(&ref_kg.graph);
        reference.insert(
            snap.source_log_len(),
            answers(&qs, &snap, ref_kg.disambiguator.served(), &topics),
        );
        for chunk in articles.chunks(BATCH) {
            pipe.ingest_batch(&mut ref_kg, chunk);
            let snap = LayeredSnapshot::freeze(&ref_kg.graph);
            reference.insert(
                snap.source_log_len(),
                answers(&qs, &snap, ref_kg.disambiguator.served(), &topics),
            );
        }
    }
    let reference = Arc::new(reference);

    let session = SharedSession::new(kg, topics, trend_monitor());
    session.set_compaction_config(nous_core::CompactionConfig {
        max_layers: 2,
        max_delta_fraction: 0.0,
        min_delta_edges: 0,
    });
    let done = Arc::new(AtomicBool::new(false));

    // A dedicated compactor thread on top of the session's own
    // threshold-triggered one, to maximise install/read interleavings.
    let compactor = {
        let session = session.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            let mut ran = 0usize;
            while !done.load(Ordering::Relaxed) {
                if session.compact_now() {
                    ran += 1;
                }
                std::thread::yield_now();
            }
            ran
        })
    };

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let session = session.clone();
            let done = done.clone();
            let reference = reference.clone();
            let qs = qs.clone();
            std::thread::spawn(move || {
                let mut checked = 0usize;
                while !done.load(Ordering::Relaxed) || checked == 0 {
                    let snap = session.frozen();
                    let got = answers(&qs, &snap.view, &snap.disambiguator, &snap.topics);
                    let want = reference
                        .get(&snap.view.source_log_len())
                        .unwrap_or_else(|| {
                            panic!(
                                "epoch {} (layers {}) has log_len {} matching no batch boundary",
                                snap.epoch,
                                snap.view.layer_count(),
                                snap.view.source_log_len()
                            )
                        });
                    assert_eq!(
                        &got,
                        want,
                        "epoch {} (layers {}) diverged",
                        snap.epoch,
                        snap.view.layer_count()
                    );
                    checked += 1;
                }
                checked
            })
        })
        .collect();

    let mut pipe = pipeline();
    let report = session.ingest_batch(&mut pipe, &articles);
    done.store(true, Ordering::Relaxed);

    for r in readers {
        assert!(r.join().expect("reader") > 0);
    }
    let compactions = compactor.join().expect("compactor");
    assert!(report.admitted > 0);
    assert!(compactions > 0, "the compactor thread never compacted");

    // Quiesced: one final compaction folds everything, and the compacted
    // base answers byte-identically to the final reference state.
    assert!(session.compact_now());
    let last = session.frozen();
    assert!(last.view.is_compacted(), "final snapshot must be one layer");
    // The snapshot gauges describe the served snapshot, not one a racing
    // publish or fold overwrote it with.
    let gauge = |name: &str| session.metrics().gauge_value(name, &[]);
    assert_eq!(gauge("nous_snapshot_epoch"), Some(last.epoch as i64));
    assert_eq!(
        gauge("nous_snapshot_layers"),
        Some(1 + last.view.layer_count() as i64)
    );
    assert_eq!(
        gauge("nous_snapshot_delta_permille"),
        Some((last.view.delta_fraction() * 1000.0) as i64)
    );
    assert_eq!(
        &answers(&qs, &last.view, &last.disambiguator, &last.topics),
        reference.get(&last.view.source_log_len()).unwrap()
    );
}

/// A pinned snapshot is immune to everything ingestion does afterwards:
/// the whole query surface answers from the old epoch, byte-for-byte.
#[test]
fn pinned_snapshot_survives_later_ingestion_unchanged() {
    let (world, kg, articles) = world_kg();
    let qs = queries(&world);
    let session = SharedSession::new(kg, TopicIndex::new(2), trend_monitor());

    let pinned = session.frozen();
    let before = answers(&qs, &pinned.view, &pinned.disambiguator, &pinned.topics);
    let edges_before = GraphView::live_edge_count(&pinned.view);

    let mut pipe = pipeline();
    session.ingest_batch(&mut pipe, &articles);

    let after = answers(&qs, &pinned.view, &pinned.disambiguator, &pinned.topics);
    assert_eq!(before, after, "pinned epoch must not see new facts");
    assert_eq!(edges_before, GraphView::live_edge_count(&pinned.view));

    let current = session.frozen();
    assert!(current.epoch > pinned.epoch);
    assert!(GraphView::live_edge_count(&current.view) > edges_before);
}

/// One resolution, down to the bits of its scores.
type Resolved = Option<(u32, String, u64, u64, usize)>;

fn resolved(r: Option<Resolution>) -> Resolved {
    r.map(|r| {
        (
            r.id,
            r.name,
            r.score.to_bits(),
            r.margin.to_bits(),
            r.candidates,
        )
    })
}

/// Every alias and canonical name `resolver` knows, resolved through
/// `resolve`.
fn resolve_everything(
    resolver: &AliasResolver,
    resolve: impl Fn(&str) -> Option<Resolution>,
) -> Vec<Resolved> {
    (0..resolver.len())
        .flat_map(|i| {
            let surfaces = resolver.aliases(i).iter().map(String::as_str);
            surfaces.chain([resolver.name(i)])
        })
        .map(|surface| resolved(resolve(surface)))
        .collect()
}

/// The published resolver is the live one minus the contexts: after every
/// step of a history that mints entities (through the pipeline, through
/// `create_entity`, and under an alias three of them share), merges
/// context, bumps popularity and compacts, every alias and every name
/// resolves through `session.frozen()` exactly as through the live
/// `kg.disambiguator` with an empty context — and every snapshot held
/// since keeps answering from its own epoch, whatever the writer has
/// changed in the meantime.
#[test]
fn served_resolver_matches_live_at_every_epoch_and_held_epochs_never_move() {
    use nous_text::bow::BagOfWords;
    use nous_text::ner::EntityType;

    let (_, kg, articles) = world_kg();
    let session = SharedSession::new(kg, TopicIndex::new(2), trend_monitor());
    session.set_compaction_config(nous_core::CompactionConfig {
        max_layers: 3,
        ..Default::default()
    });
    let mut pipe = pipeline();
    let mut held = Vec::new();
    let mut versions = std::collections::BTreeSet::new();
    for (step, chunk) in articles.chunks(BATCH).enumerate() {
        session.ingest_batch(&mut pipe, chunk);
        if step % 4 == 0 {
            // Mints, a popularity bump and a context merge outside the
            // pipeline, plus a record under an alias that grows more
            // ambiguous each time: popularity decides it.
            session.write(|kg| {
                let a = kg.create_entity(&format!("Minted {step} Corp"), EntityType::Organization);
                let b = kg.create_entity(&format!("Minted {step} Labs"), EntityType::Organization);
                for _ in 0..=step % 3 {
                    kg.add_extracted_fact(a, "partneredWith", b, step as u64, 0.9, step as u64);
                }
                kg.add_entity_text(a, &BagOfWords::from_text("autonomous drone delivery"));
                kg.disambiguator.insert(EntityRecord {
                    id: a.0,
                    name: format!("Minted {step} Holdings"),
                    aliases: vec!["Minted".into(), format!("Minted {step} Holdings")],
                    context: BagOfWords::new(),
                    popularity: (step % 5) as f64,
                });
            });
        }
        if step % 6 == 5 {
            assert!(session.compact_now());
        }

        let snap = session.frozen();
        let live = session.read(|kg, _| {
            assert_eq!(snap.disambiguator.len(), kg.disambiguator.len());
            resolve_everything(kg.disambiguator.served(), |surface| {
                kg.disambiguator
                    .resolve(surface, &BagOfWords::new(), LinkMode::Full)
            })
        });
        let served = resolve_everything(&snap.disambiguator, |s| snap.disambiguator.resolve(s));
        assert_eq!(served, live, "step {step} epoch {}", snap.epoch);
        versions.insert(snap.disambiguator.version());
        held.push((snap, served));
    }
    assert!(versions.len() > held.len() / 2, "the resolver kept moving");
    let shared = resolved(held.last().unwrap().0.disambiguator.resolve("Minted"));
    assert!(shared.unwrap().4 > 3, "the shared alias grew ambiguous");

    for (snap, at_its_epoch) in &held {
        let now = resolve_everything(&snap.disambiguator, |s| snap.disambiguator.resolve(s));
        assert_eq!(&now, at_its_epoch, "epoch {} moved", snap.epoch);
    }
    let copied = session
        .metrics()
        .counter_value("nous_resolver_copied_elements_total", &[])
        .unwrap();
    assert!(copied > 0, "every moved resolver version was copied out");
}
