//! Parallel fan-out over a slice.
//!
//! NOUS ran on a Spark cluster; its extraction is a data-parallel map
//! over documents. At laptop scale the equivalent is a chunked map on
//! `std` scoped threads. This helper keeps that parallelism in one place
//! so callers never spawn threads themselves.

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

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(available_workers() >= 1);
    }
}
