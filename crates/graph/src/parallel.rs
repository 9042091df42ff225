//! Parallel scans over vertices and edges.
//!
//! NOUS ran on a Spark cluster; its algorithms are expressed as data-parallel
//! scans (score every candidate entity, update every pattern counter). At
//! laptop scale the equivalent is a chunked scan over dense id ranges on
//! `std` scoped threads. These helpers keep that parallelism in one
//! place so callers never spawn threads themselves.

use crate::graph::DynamicGraph;
use crate::ids::VertexId;

/// Worker threads available to parallel scans and batch fan-outs: the
/// `NOUS_THREADS` environment variable when set to a positive integer,
/// otherwise the hardware's available parallelism.
pub fn available_workers() -> usize {
    std::env::var("NOUS_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Number of worker threads used by the fine-grained parallel scans: the
/// available parallelism, capped so tiny inputs do not pay spawn overhead.
/// Scan items (vertices, edges) are cheap, hence the per-1024 cap; for
/// coarse items (whole documents) pass an explicit count to
/// [`par_map_chunks`] instead.
pub fn workers_for(len: usize) -> usize {
    available_workers().min(len.div_ceil(1024)).max(1)
}

/// Map `f` over `items` on `workers` scoped threads, collecting results in
/// input order. `0` workers means auto: [`available_workers`], capped at
/// one item per worker. `f` must be pure with respect to shared state
/// (read-only access); the output is identical to `items.iter().map(f)`.
///
/// The second return value is the fan-out accounting: one entry per
/// worker thread *actually spawned* (after the auto/clamp resolution),
/// holding the number of items that worker processed. The chunking is
/// deterministic, so so are the counts — telemetry reads them to report
/// real (not merely configured) parallelism.
pub fn par_map_chunks<T, U, F>(items: &[T], workers: usize, f: F) -> (Vec<U>, Vec<usize>)
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if items.is_empty() {
        return (Vec::new(), Vec::new());
    }
    // Explicit counts are capped at the host's parallelism: extra threads
    // on an oversubscribed host only add spawn + contention overhead (a
    // single-core host running `workers=8` measured ~13% slower than
    // sequential). The `workers == 1` early return below then skips the
    // thread fan-out entirely.
    let workers = if workers == 0 {
        available_workers()
    } else {
        workers.min(available_workers())
    }
    .clamp(1, items.len());
    if workers == 1 {
        return (items.iter().map(f).collect(), vec![items.len()]);
    }
    let chunk = items.len().div_ceil(workers);
    let counts: Vec<usize> = items.chunks(chunk).map(<[T]>::len).collect();
    let mut out: Vec<Option<U>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        for (slots, inputs) in out.chunks_mut(chunk).zip(items.chunks(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (s, item) in slots.iter_mut().zip(inputs) {
                    *s = Some(f(item));
                }
            });
        }
    });
    let out = out
        .into_iter()
        .map(|u| u.expect("every slot filled"))
        .collect();
    (out, counts)
}

/// Map `f` over every vertex in parallel, collecting results in vertex-id
/// order. `f` must be pure with respect to the graph (read-only access).
pub fn par_map_vertices<T, F>(g: &DynamicGraph, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(VertexId) -> T + Sync,
{
    let n = g.vertex_count();
    let ids: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
    par_map_chunks(&ids, workers_for(n), |v| f(*v)).0
}

/// Fold over the live edge log in parallel: each worker folds a chunk with
/// `fold`, then the per-worker accumulators are combined with `merge`.
#[allow(clippy::needless_range_loop)] // chunk workers index a shared slice
pub fn par_fold_edges<A, F, M>(g: &DynamicGraph, init: A, fold: F, merge: M) -> A
where
    A: Send + Clone,
    F: Fn(A, &crate::edge::Edge) -> A + Sync,
    M: Fn(A, A) -> A,
{
    let log = g.edge_log();
    if log.is_empty() {
        return init;
    }
    let workers = workers_for(log.len());
    if workers == 1 {
        return g.iter_edges().fold(init, |acc, (_, e)| fold(acc, e));
    }
    let chunk = log.len().div_ceil(workers);
    let results = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let start = w * chunk;
            let end = (start + chunk).min(log.len());
            let init = init.clone();
            let fold = &fold;
            handles.push(scope.spawn(move || {
                let mut acc = init;
                for i in start..end {
                    if g.is_live(crate::ids::EdgeId(i as u32)) {
                        acc = fold(acc, &log[i]);
                    }
                }
                acc
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("edge fold worker panicked"))
            .collect::<Vec<_>>()
    });
    results.into_iter().fold(init, merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Provenance;

    fn big_chain(n: usize) -> DynamicGraph {
        let mut g = DynamicGraph::new();
        let p = g.intern_predicate("p");
        let mut prev = g.ensure_vertex("v0");
        for i in 1..=n {
            let cur = g.ensure_vertex(&format!("v{i}"));
            g.add_edge_at(prev, p, cur, i as u64, 1.0, Provenance::Curated);
            prev = cur;
        }
        g
    }

    #[test]
    fn par_map_matches_sequential_order() {
        let g = big_chain(5000);
        let par = par_map_vertices(&g, |v| g.degree(v));
        let seq: Vec<usize> = g.iter_vertices().map(|v| g.degree(v)).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn par_map_empty_graph() {
        let g = DynamicGraph::new();
        let out: Vec<usize> = par_map_vertices(&g, |v| v.index());
        assert!(out.is_empty());
    }

    #[test]
    fn par_fold_counts_edges() {
        let g = big_chain(5000);
        let count = par_fold_edges(&g, 0usize, |acc, _| acc + 1, |a, b| a + b);
        assert_eq!(count, 5000);
    }

    #[test]
    fn par_fold_skips_tombstones() {
        let mut g = big_chain(3000);
        for i in (0..3000).step_by(3) {
            g.remove_edge(crate::ids::EdgeId(i as u32));
        }
        let count = par_fold_edges(&g, 0usize, |acc, _| acc + 1, |a, b| a + b);
        assert_eq!(count, 2000);
    }

    #[test]
    fn par_fold_sums_timestamps() {
        let g = big_chain(2048);
        let sum = par_fold_edges(&g, 0u64, |acc, e| acc + e.at, |a, b| a + b);
        assert_eq!(sum, (1..=2048u64).sum::<u64>());
    }

    #[test]
    fn par_map_chunks_preserves_input_order() {
        let items: Vec<u64> = (0..10_000).collect();
        for workers in [0, 1, 2, 3, 8, 64] {
            let (out, _) = par_map_chunks(&items, workers, |x| x * 2 + 1);
            let seq: Vec<u64> = items.iter().map(|x| x * 2 + 1).collect();
            assert_eq!(out, seq, "workers={workers}");
        }
    }

    #[test]
    fn par_map_chunks_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_chunks(&empty, 4, |x| *x).0.is_empty());
        // More workers than items: every item still mapped exactly once.
        assert_eq!(par_map_chunks(&[7u32, 9], 16, |x| x + 1).0, vec![8, 10]);
    }

    #[test]
    fn par_map_chunks_accounts_every_item() {
        let items: Vec<u64> = (0..1000).collect();
        for workers in [1, 2, 3, 7, 64] {
            let (out, counts) = par_map_chunks(&items, workers, |x| *x);
            assert_eq!(out, items, "workers={workers}");
            assert_eq!(counts.iter().sum::<usize>(), items.len());
            assert!(counts.len() <= workers);
            assert!(counts.iter().all(|&c| c > 0));
        }
        let (out, counts) = par_map_chunks::<u32, u32, _>(&[], 4, |x| *x);
        assert!(out.is_empty());
        assert!(counts.is_empty());
    }

    #[test]
    fn workers_never_zero() {
        assert!(workers_for(0) >= 1);
        assert!(workers_for(1) >= 1);
        assert!(available_workers() >= 1);
    }
}
