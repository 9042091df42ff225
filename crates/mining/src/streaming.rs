//! The streaming closed frequent-pattern miner (the paper's §3.5
//! contribution).
//!
//! The miner maintains, for every pattern of size ≤ `k_max` with at least
//! one occurrence in the window, its exact embedding count. Window slides
//! are handled incrementally: when an edge arrives, only the embeddings
//! containing that edge are enumerated and their patterns incremented;
//! eviction mirrors this with decrements ([`EvictionStrategy::Eager`]).
//! The [`EvictionStrategy::Rebuild`] ablation instead marks the table dirty
//! and re-enumerates the whole window on the next query — the strategy a
//! batch system (Arabesque/gSpan re-run per window) is stuck with, and the
//! comparison behind the paper's "3x speedup" claim.
//!
//! Closed-pattern reporting implements the paper's output contract:
//! "reports the set of closed frequent patterns present in the window",
//! and [`StreamingMiner::reconstructed_from`] exposes the "reconstruction
//! of smaller frequent patterns from larger patterns that just turned
//! infrequent".

use crate::edge::MinerEdge;
use crate::enumerate::{all_embeddings, embeddings_containing};
use crate::index::ActiveGraph;
use crate::pattern::Pattern;
use nous_graph::{FxHashMap, FxHashSet};
use nous_obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// How evictions are folded into the support table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionStrategy {
    /// Decrement the affected patterns immediately (the NOUS approach).
    Eager,
    /// Mark dirty and recount the window from scratch on the next query
    /// (what re-running a batch miner per window amounts to).
    Rebuild,
}

/// Miner parameters.
#[derive(Debug, Clone)]
pub struct MinerConfig {
    /// Maximum pattern size in edges (3 keeps enumeration tractable and
    /// matches the motif sizes of Figure 7).
    pub k_max: usize,
    /// Minimum embedding count for a pattern to be frequent.
    pub min_support: u32,
    pub eviction: EvictionStrategy,
}

impl Default for MinerConfig {
    fn default() -> Self {
        Self {
            k_max: 3,
            min_support: 3,
            eviction: EvictionStrategy::Eager,
        }
    }
}

/// Instrument handles for an instrumented miner (`nous_miner_*` family);
/// present only after [`StreamingMiner::instrument`].
#[derive(Debug, Clone)]
struct MinerMetrics {
    registry: MetricsRegistry,
    edges_added: Counter,
    edges_evicted: Counter,
    closed_emitted: Counter,
    patterns_tracked: Gauge,
    window_len: Gauge,
    advance: Histogram,
}

impl MinerMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        Self {
            edges_added: registry.counter(
                "nous_miner_edges_added_total",
                "Edges fed into the miner window",
            ),
            edges_evicted: registry.counter(
                "nous_miner_edges_evicted_total",
                "Edges evicted from the miner window",
            ),
            closed_emitted: registry.counter(
                "nous_miner_closed_emitted_total",
                "Closed frequent patterns emitted by queries",
            ),
            patterns_tracked: registry.gauge(
                "nous_miner_patterns_tracked",
                "Patterns currently tracked in the support table",
            ),
            window_len: registry.gauge(
                "nous_miner_window_len",
                "Edges currently in the miner window",
            ),
            advance: registry.latency(
                "nous_miner_window_advance_seconds",
                "Per-edge window advance (add or evict) latency",
            ),
            registry: registry.clone(),
        }
    }
}

/// The streaming miner.
#[derive(Debug, Clone)]
pub struct StreamingMiner {
    cfg: MinerConfig,
    window: ActiveGraph,
    counts: FxHashMap<Pattern, i64>,
    dirty: bool,
    /// Patterns that crossed frequent → infrequent on the last operation.
    just_infrequent: Vec<Pattern>,
    metrics: Option<MinerMetrics>,
}

impl StreamingMiner {
    pub fn new(cfg: MinerConfig) -> Self {
        assert!(cfg.k_max >= 1, "k_max must be at least 1");
        assert!(cfg.min_support >= 1, "min_support must be at least 1");
        Self {
            cfg,
            window: ActiveGraph::new(),
            counts: FxHashMap::default(),
            dirty: false,
            just_infrequent: Vec::new(),
            metrics: None,
        }
    }

    /// Route this miner's accounting into `registry` (metric family
    /// `nous_miner_*`): window-advance latency per add/evict, window and
    /// support-table size gauges, closed-pattern emission counts.
    pub fn instrument(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(MinerMetrics::new(registry));
    }

    pub fn config(&self) -> &MinerConfig {
        &self.cfg
    }

    /// Number of edges currently in the window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Whether the support table is stale and the next query will pay a
    /// full window recount (only ever true under
    /// [`EvictionStrategy::Rebuild`]).
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Snapshot the window/table gauges after a slide.
    fn update_gauges(&self) {
        if let Some(m) = &self.metrics {
            m.window_len.set(self.window.len() as i64);
            m.patterns_tracked.set(self.counts.len() as i64);
        }
    }

    /// Feed an arriving edge.
    pub fn add_edge(&mut self, e: MinerEdge) {
        let span = self.metrics.as_ref().map(|m| m.registry.start(&m.advance));
        self.add_edge_inner(e);
        drop(span);
        if let Some(m) = &self.metrics {
            m.edges_added.inc();
        }
        self.update_gauges();
    }

    fn add_edge_inner(&mut self, e: MinerEdge) {
        self.window.insert(e);
        if self.cfg.eviction == EvictionStrategy::Rebuild {
            self.dirty = true;
            return;
        }
        for emb in embeddings_containing(&self.window, e.id, self.cfg.k_max) {
            let edges: Vec<MinerEdge> = emb
                .iter()
                .map(|id| *self.window.edge(*id).expect("active"))
                .collect();
            *self
                .counts
                .entry(Pattern::from_embedding(&edges))
                .or_insert(0) += 1;
        }
    }

    /// Evict an edge that slid out of the window.
    pub fn remove_edge(&mut self, id: u64) {
        let was_present = self.window.contains(id);
        let span = self.metrics.as_ref().map(|m| m.registry.start(&m.advance));
        self.remove_edge_inner(id);
        drop(span);
        if was_present {
            if let Some(m) = &self.metrics {
                m.edges_evicted.inc();
            }
        }
        self.update_gauges();
    }

    fn remove_edge_inner(&mut self, id: u64) {
        if self.cfg.eviction == EvictionStrategy::Rebuild {
            // Only an edge actually evicted dirties the table: a no-op
            // removal must not force a full recount on the next query.
            if self.window.remove(id).is_some() {
                self.dirty = true;
            }
            return;
        }
        if !self.window.contains(id) {
            return;
        }
        self.just_infrequent.clear();
        let min = self.cfg.min_support as i64;
        for emb in embeddings_containing(&self.window, id, self.cfg.k_max) {
            let edges: Vec<MinerEdge> = emb
                .iter()
                .map(|eid| *self.window.edge(*eid).expect("active"))
                .collect();
            let pat = Pattern::from_embedding(&edges);
            let c = self.counts.entry(pat.clone()).or_insert(0);
            let was_frequent = *c >= min;
            *c -= 1;
            if was_frequent && *c < min {
                self.just_infrequent.push(pat.clone());
            }
            if *c <= 0 {
                self.counts.remove(&pat);
            }
        }
        self.window.remove(id);
    }

    /// Recount the window from scratch (Rebuild strategy, or recovery).
    fn recount(&mut self) {
        self.counts.clear();
        for emb in all_embeddings(&self.window, self.cfg.k_max) {
            let edges: Vec<MinerEdge> = emb
                .iter()
                .map(|id| *self.window.edge(*id).expect("active"))
                .collect();
            *self
                .counts
                .entry(Pattern::from_embedding(&edges))
                .or_insert(0) += 1;
        }
        self.dirty = false;
    }

    fn ensure_fresh(&mut self) {
        if self.dirty {
            self.recount();
        }
    }

    /// All frequent patterns with supports, sorted by descending support
    /// then pattern order.
    pub fn frequent_patterns(&mut self) -> Vec<(Pattern, u32)> {
        self.ensure_fresh();
        let min = self.cfg.min_support as i64;
        let mut out: Vec<(Pattern, u32)> = self
            .counts
            .iter()
            .filter(|(_, &c)| c >= min)
            .map(|(p, &c)| (p.clone(), c as u32))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// The paper's output: closed frequent patterns. A frequent pattern is
    /// closed iff no frequent one-edge-larger superpattern has the same
    /// support. (Patterns at `k_max` have no counted superpatterns and are
    /// reported as closed.)
    pub fn closed_frequent(&mut self) -> Vec<(Pattern, u32)> {
        let frequent = self.frequent_patterns();
        let support_of: FxHashMap<&Pattern, u32> = frequent.iter().map(|(p, c)| (p, *c)).collect();
        // A pattern is non-closed iff some frequent one-edge-larger
        // superpattern has exactly the same support (the superpattern then
        // carries strictly more information at no support loss). Note that
        // embedding counts are not anti-monotone, so a superpattern may
        // also have *higher* support — that does not absorb the sub.
        let mut non_closed: FxHashSet<Pattern> = FxHashSet::default();
        for (q, qc) in &frequent {
            for sub in q.sub_patterns() {
                if support_of.get(&sub) == Some(qc) {
                    non_closed.insert(sub);
                }
            }
        }
        let closed: Vec<(Pattern, u32)> = frequent
            .into_iter()
            .filter(|(p, _)| !non_closed.contains(p))
            .collect();
        if let Some(m) = &self.metrics {
            m.closed_emitted.add(closed.len() as u64);
        }
        closed
    }

    /// "Reconstruction of smaller frequent patterns from larger patterns
    /// that just turned infrequent": for every pattern that crossed the
    /// frequency threshold on the last eviction, return its maximal
    /// sub-patterns that are still frequent — without re-mining, straight
    /// from the maintained table.
    pub fn reconstructed_from(&mut self) -> Vec<(Pattern, Vec<(Pattern, u32)>)> {
        self.ensure_fresh();
        let min = self.cfg.min_support as i64;
        let parents = self.just_infrequent.clone();
        parents
            .into_iter()
            .map(|p| {
                let survivors: Vec<(Pattern, u32)> = p
                    .sub_patterns()
                    .into_iter()
                    .filter_map(|sub| {
                        self.counts
                            .get(&sub)
                            .and_then(|&c| (c >= min).then_some((sub.clone(), c as u32)))
                    })
                    .collect();
                (p, survivors)
            })
            .collect()
    }

    /// Exact support of a pattern (0 when absent).
    pub fn support(&mut self, p: &Pattern) -> u32 {
        self.ensure_fresh();
        self.counts.get(p).copied().filter(|&c| c > 0).unwrap_or(0) as u32
    }

    /// Total number of tracked patterns (diagnostics).
    pub fn tracked_patterns(&mut self) -> usize {
        self.ensure_fresh();
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn me(id: u64, src: u64, dst: u64, el: u32) -> MinerEdge {
        MinerEdge::new(id, src, dst, el, 0, 0)
    }

    fn miner(k: usize, sup: u32, ev: EvictionStrategy) -> StreamingMiner {
        StreamingMiner::new(MinerConfig {
            k_max: k,
            min_support: sup,
            eviction: ev,
        })
    }

    #[test]
    fn noop_removal_leaves_rebuild_table_clean() {
        let mut m = miner(2, 1, EvictionStrategy::Rebuild);
        m.add_edge(me(1, 10, 20, 0));
        m.add_edge(me(2, 20, 30, 1));
        // A query refreshes the table.
        assert!(m.is_dirty());
        let n = m.frequent_patterns().len();
        assert!(n > 0);
        assert!(!m.is_dirty());
        // Removing an id that is not in the window must not dirty it…
        m.remove_edge(999);
        assert!(!m.is_dirty(), "no-op removal forced a spurious recount");
        assert_eq!(m.window_len(), 2);
        // …while removing a real edge still does.
        m.remove_edge(1);
        assert!(m.is_dirty());
        assert_eq!(m.window_len(), 1);
    }

    #[test]
    fn counts_single_edge_patterns() {
        let mut m = miner(2, 2, EvictionStrategy::Eager);
        m.add_edge(me(0, 1, 2, 7));
        m.add_edge(me(1, 3, 4, 7));
        m.add_edge(me(2, 5, 6, 8));
        let freq = m.frequent_patterns();
        assert_eq!(freq.len(), 1, "only elabel 7 reaches support 2");
        assert_eq!(freq[0].1, 2);
    }

    #[test]
    fn incremental_equals_batch_recount() {
        // The core correctness property: eager maintenance must equal a
        // from-scratch recount after an arbitrary add/remove sequence.
        let mut eager = miner(3, 1, EvictionStrategy::Eager);
        let mut rebuild = miner(3, 1, EvictionStrategy::Rebuild);
        let script: Vec<MinerEdge> = vec![
            me(0, 1, 2, 1),
            me(1, 2, 3, 2),
            me(2, 1, 3, 1),
            me(3, 3, 4, 2),
            me(4, 4, 1, 1),
            me(5, 2, 4, 3),
        ];
        for e in &script {
            eager.add_edge(*e);
            rebuild.add_edge(*e);
        }
        eager.remove_edge(1);
        rebuild.remove_edge(1);
        eager.remove_edge(4);
        rebuild.remove_edge(4);
        assert_eq!(eager.frequent_patterns(), rebuild.frequent_patterns());
    }

    #[test]
    fn eviction_decrements_support() {
        let mut m = miner(2, 2, EvictionStrategy::Eager);
        m.add_edge(me(0, 1, 2, 7));
        m.add_edge(me(1, 3, 4, 7));
        assert_eq!(m.frequent_patterns().len(), 1);
        m.remove_edge(0);
        assert!(m.frequent_patterns().is_empty());
        assert_eq!(m.window_len(), 1);
    }

    #[test]
    fn closed_patterns_absorb_equal_support_subs() {
        // Two disjoint copies of the chain A-[1]->B-[2]->C. Each single
        // edge label appears exactly twice, the chain appears twice: the
        // chain is closed; the single-edge patterns have the same support
        // as their superpattern and are NOT closed.
        let mut m = miner(2, 2, EvictionStrategy::Eager);
        m.add_edge(me(0, 1, 2, 1));
        m.add_edge(me(1, 2, 3, 2));
        m.add_edge(me(2, 10, 20, 1));
        m.add_edge(me(3, 20, 30, 2));
        let freq = m.frequent_patterns();
        assert_eq!(freq.len(), 3, "two singles + the chain");
        let closed = m.closed_frequent();
        assert_eq!(closed.len(), 1, "only the chain is closed: {closed:?}");
        assert_eq!(closed[0].0.edge_count(), 2);
    }

    #[test]
    fn closed_keeps_subs_with_strictly_higher_support() {
        // Three copies of edge label 1, but only two participate in chains.
        let mut m = miner(2, 2, EvictionStrategy::Eager);
        m.add_edge(me(0, 1, 2, 1));
        m.add_edge(me(1, 2, 3, 2));
        m.add_edge(me(2, 10, 20, 1));
        m.add_edge(me(3, 20, 30, 2));
        m.add_edge(me(4, 50, 60, 1)); // third lone copy of label 1
        let closed = m.closed_frequent();
        // Chain (support 2) and single-edge label 1 (support 3) are closed;
        // single-edge label 2 (support 2 = chain's) is absorbed.
        assert_eq!(closed.len(), 2, "{closed:?}");
        assert!(closed.iter().any(|(p, c)| p.edge_count() == 1 && *c == 3));
        assert!(closed.iter().any(|(p, c)| p.edge_count() == 2 && *c == 2));
    }

    #[test]
    fn reconstruction_surfaces_frequent_subpatterns() {
        // Chain pattern frequent (2 copies); evicting one chain edge makes
        // the chain infrequent while single edges stay frequent.
        let mut m = miner(2, 2, EvictionStrategy::Eager);
        m.add_edge(me(0, 1, 2, 1));
        m.add_edge(me(1, 2, 3, 2));
        m.add_edge(me(2, 10, 20, 1));
        m.add_edge(me(3, 20, 30, 2));
        m.add_edge(me(4, 40, 50, 2)); // keep label 2 frequent after eviction
        m.remove_edge(1);
        let rec = m.reconstructed_from();
        assert_eq!(rec.len(), 1, "the chain turned infrequent");
        let (parent, survivors) = &rec[0];
        assert_eq!(parent.edge_count(), 2);
        assert!(
            survivors
                .iter()
                .any(|(p, c)| p.edge_count() == 1 && *c >= 2),
            "single-edge sub-patterns survive: {survivors:?}"
        );
    }

    #[test]
    fn support_query() {
        let mut m = miner(2, 1, EvictionStrategy::Eager);
        let e = me(0, 1, 2, 7);
        m.add_edge(e);
        let p = Pattern::from_embedding(&[e]);
        assert_eq!(m.support(&p), 1);
        m.remove_edge(0);
        assert_eq!(m.support(&p), 0);
    }

    #[test]
    fn rebuild_mode_defers_work_until_query() {
        let mut m = miner(3, 1, EvictionStrategy::Rebuild);
        for i in 0..10u64 {
            m.add_edge(me(i, i, i + 1, 1));
        }
        m.remove_edge(0);
        let freq = m.frequent_patterns();
        assert!(!freq.is_empty());
        // Results equal eager mode's.
        let mut eager = miner(3, 1, EvictionStrategy::Eager);
        for i in 0..10u64 {
            eager.add_edge(me(i, i, i + 1, 1));
        }
        eager.remove_edge(0);
        assert_eq!(freq, eager.frequent_patterns());
    }

    #[test]
    fn removing_unknown_edge_is_noop() {
        let mut m = miner(2, 1, EvictionStrategy::Eager);
        m.add_edge(me(0, 1, 2, 1));
        m.remove_edge(99);
        assert_eq!(m.window_len(), 1);
        assert_eq!(m.frequent_patterns().len(), 1);
    }

    #[test]
    fn instrumented_miner_accounts_slides_and_emissions() {
        let registry = MetricsRegistry::new();
        let mut m = miner(2, 2, EvictionStrategy::Eager);
        m.instrument(&registry);
        m.add_edge(me(0, 1, 2, 7));
        m.add_edge(me(1, 3, 4, 7));
        let closed = m.closed_frequent();
        m.remove_edge(0);
        m.remove_edge(99); // absent: must not count as an eviction
        assert_eq!(
            registry.counter_value("nous_miner_edges_added_total", &[]),
            Some(2)
        );
        assert_eq!(
            registry.counter_value("nous_miner_edges_evicted_total", &[]),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("nous_miner_closed_emitted_total", &[]),
            Some(closed.len() as u64)
        );
        assert_eq!(registry.gauge_value("nous_miner_window_len", &[]), Some(1));
        // Every add/evict timed (the absent-id evict still ran the slide).
        let text = registry.render_prometheus();
        assert!(
            text.contains("nous_miner_window_advance_seconds_count 4"),
            "{text}"
        );
        // Instrumentation must not change mining results.
        let mut plain = miner(2, 2, EvictionStrategy::Eager);
        plain.add_edge(me(0, 1, 2, 7));
        plain.add_edge(me(1, 3, 4, 7));
        plain.remove_edge(0);
        plain.remove_edge(99);
        assert_eq!(m.frequent_patterns(), plain.frequent_patterns());
    }

    #[test]
    fn typed_labels_separate_patterns() {
        let mut m = miner(1, 1, EvictionStrategy::Eager);
        m.add_edge(MinerEdge::new(0, 1, 2, 7, 100, 200));
        m.add_edge(MinerEdge::new(1, 3, 4, 7, 100, 300));
        let freq = m.frequent_patterns();
        assert_eq!(
            freq.len(),
            2,
            "different dst type labels → different patterns"
        );
    }
}
