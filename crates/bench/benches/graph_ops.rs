//! Substrate bench: the dynamic property-graph engine underneath every
//! experiment (the GraphX stand-in). Measures edge-append throughput,
//! BFS over a published snapshot and compact-snapshot round trips, and
//! prints the compact snapshot's size on the demo graph.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nous_bench::build_system;
use nous_corpus::Preset;
use nous_graph::{algo, snapshot, DynamicGraph, LayeredSnapshot, Provenance, VertexId};

/// A synthetic scale-free-ish graph: preferential chains plus random
/// shortcuts.
fn synth_graph(n_vertices: usize, n_edges: usize) -> DynamicGraph {
    let mut g = DynamicGraph::new();
    let p = g.intern_predicate("rel");
    let q = g.intern_predicate("link");
    for i in 0..n_vertices {
        g.ensure_vertex(&format!("v{i}"));
    }
    let mut x = 0x2545f4914f6cdd1du64;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for t in 0..n_edges {
        let a = VertexId((rnd() % n_vertices as u64) as u32);
        let b = VertexId((rnd() % n_vertices as u64) as u32);
        let pred = if t % 3 == 0 { q } else { p };
        g.add_edge_at(a, pred, b, t as u64, 0.8, Provenance::Curated);
    }
    g
}

fn snapshot_size_table() {
    let system = build_system(Preset::Demo);
    let g = &system.kg.graph;
    let compact = snapshot::to_compact(g);
    println!(
        "\n== substrate: snapshot size (demo KG: {} edges, {} logged) ==",
        g.edge_count(),
        g.log_len()
    );
    println!(
        "  compact (lossless): {:>9} bytes ({:.1} bytes per logged edge)",
        compact.len(),
        compact.len() as f64 / g.log_len().max(1) as f64
    );
}

fn bench(c: &mut Criterion) {
    snapshot_size_table();

    let mut group = c.benchmark_group("graph_ops");

    // Edge append throughput.
    for edges in [10_000usize, 50_000] {
        group.throughput(Throughput::Elements(edges as u64));
        group.bench_with_input(BenchmarkId::new("append_edges", edges), &edges, |b, &n| {
            b.iter(|| synth_graph(2_000, n).edge_count())
        });
    }

    let g = synth_graph(5_000, 50_000);
    let view = LayeredSnapshot::freeze(&g);

    // Traversal over the published snapshot.
    group.throughput(Throughput::Elements(1));
    group.bench_function("bfs_4hop_from_hub", |b| {
        b.iter(|| algo::bfs_distances(&view, VertexId(0), algo::Direction::Both, 4).len())
    });

    // Snapshot round trips.
    group.bench_function("snapshot_compact_roundtrip", |b| {
        b.iter(|| {
            let blob = snapshot::to_compact(&g);
            snapshot::from_compact(&blob)
                .expect("decodable")
                .edge_count()
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
