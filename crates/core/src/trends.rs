//! Streaming trend discovery over the live knowledge graph.
//!
//! [`TrendMonitor`] couples a [`SlidingWindow`] over the graph's temporal
//! edge log with the §3.5 [`StreamingMiner`]: as the pipeline appends
//! facts, `observe` slides the window and feeds the miner's deltas.
//! "A novelty of our implementation is its ability to simultaneously
//! support the curated KB and the extracted knowledge, and discover
//! patterns by combining both structures" — the window runs over the fused
//! edge log, so mined patterns freely mix red and blue edges.

use crate::kg::KnowledgeGraph;
use nous_graph::ids::Interner;
use nous_graph::window::{SlidingWindow, WindowEvent, WindowKind};
use nous_graph::{GraphView, LayeredSnapshot, Timestamp};
use nous_mining::{MinerConfig, MinerEdge, Pattern, StreamingMiner};

/// A discovered pattern rendered for humans, with its support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trend {
    pub description: String,
    pub support: u32,
}

/// Sliding-window streaming pattern mining over a [`KnowledgeGraph`].
pub struct TrendMonitor {
    window: SlidingWindow,
    miner: StreamingMiner,
    /// Entity-type label interner (vertex labels for the miner).
    labels: Interner,
    /// Vertices observed without a label (placeholder substituted);
    /// surfaced as `nous_label_miss_total` once instrumented.
    label_miss: Option<nous_obs::Counter>,
}

impl TrendMonitor {
    /// `window`: time- or count-based extent; `miner_cfg`: §3.5 parameters.
    pub fn new(window: WindowKind, miner_cfg: MinerConfig) -> Self {
        let window = match window {
            WindowKind::Time { span } => SlidingWindow::time(span),
            WindowKind::Count { n } => SlidingWindow::count(n),
        };
        Self {
            window,
            miner: StreamingMiner::new(miner_cfg),
            labels: Interner::new(),
            label_miss: None,
        }
    }

    fn miner_edge(&mut self, kg: &KnowledgeGraph, id: nous_graph::EdgeId) -> MinerEdge {
        let e = kg.graph.edge(id).clone();
        let miss = self.label_miss.clone();
        let mut label = |v| {
            // An unlabelled vertex still needs *some* miner label, but the
            // substitution is accounted rather than silent: patterns built
            // on placeholder types are only as trustworthy as this counter
            // is low.
            let name = kg.graph.label(v).unwrap_or_else(|| {
                if let Some(c) = &miss {
                    c.inc();
                }
                "Entity"
            });
            self.labels.intern(name)
        };
        let (sl, dl) = (label(e.src), label(e.dst));
        MinerEdge::new(
            id.0 as u64,
            e.src.0 as u64,
            e.dst.0 as u64,
            e.pred.0,
            sl,
            dl,
        )
    }

    /// Route the monitor's miner accounting into `registry` (the
    /// `nous_miner_*` family: window-advance latency, window/table size
    /// gauges, closed-pattern emission counts). Called by
    /// `SharedSession::with_registry` so the trend monitor shows up in the
    /// session's `/stats` surface.
    pub fn instrument(&mut self, registry: &nous_obs::MetricsRegistry) {
        self.miner.instrument(registry);
        self.label_miss = Some(registry.counter(
            "nous_label_miss_total",
            "Vertex label lookups that found no label (miner placeholder substituted)",
        ));
    }

    /// Consume new graph edges, sliding the window and updating the miner.
    /// Returns `(added, evicted)` edge counts.
    pub fn observe(&mut self, kg: &KnowledgeGraph) -> (usize, usize) {
        let events = self.window.ingest(&kg.graph);
        self.apply(kg, events)
    }

    /// Advance logical time without new edges (time windows only).
    pub fn advance_to(&mut self, kg: &KnowledgeGraph, now: Timestamp) -> (usize, usize) {
        let events = self.window.advance_to(now);
        self.apply(kg, events)
    }

    fn apply(&mut self, kg: &KnowledgeGraph, events: Vec<WindowEvent>) -> (usize, usize) {
        let (mut added, mut evicted) = (0, 0);
        for ev in events {
            match ev {
                WindowEvent::Added(id) => {
                    let me = self.miner_edge(kg, id);
                    self.miner.add_edge(me);
                    added += 1;
                }
                WindowEvent::Evicted(id) => {
                    self.miner.remove_edge(id.0 as u64);
                    evicted += 1;
                }
            }
        }
        (added, evicted)
    }

    /// Number of edges in the current window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Current closed frequent patterns, rendered with type and predicate
    /// names (Figure 7's output) from a fresh snapshot of `kg`.
    pub fn trending(&mut self, kg: &KnowledgeGraph) -> Vec<Trend> {
        self.trending_on(&LayeredSnapshot::freeze(&kg.graph))
    }

    /// [`TrendMonitor::trending`] rendered against a published snapshot.
    /// The miner may have observed edges newer than the snapshot, so a
    /// predicate minted after it renders as a placeholder instead of
    /// panicking.
    pub fn trending_on(&mut self, g: &LayeredSnapshot) -> Vec<Trend> {
        self.trending_on_deadline(g, &nous_fault::Deadline::none())
            .0
    }

    /// [`TrendMonitor::trending_on`] under a wall-clock
    /// [`nous_fault::Deadline`]. Returns `(trends, partial)`: when the
    /// deadline expires the pattern list stops where rendering got to
    /// (or stays empty if it expired before the miner was consulted)
    /// and `partial` is `true`. An unbounded deadline always returns
    /// the complete list.
    pub fn trending_on_deadline(
        &mut self,
        g: &LayeredSnapshot,
        deadline: &nous_fault::Deadline,
    ) -> (Vec<Trend>, bool) {
        if deadline.expired() {
            return (Vec::new(), true);
        }
        let labels = &self.labels;
        let pred_count = g.predicate_count();
        let patterns = self.miner.closed_frequent();
        let mut out = Vec::with_capacity(patterns.len());
        let mut partial = false;
        for (i, (p, support)) in patterns.into_iter().enumerate() {
            if i % 16 == 15 && deadline.expired() {
                partial = true;
                break;
            }
            out.push(Trend {
                description: p.render(
                    |l| labels.resolve(l).to_owned(),
                    |l| {
                        if (l as usize) < pred_count {
                            g.predicate_name(nous_graph::PredicateId(l)).to_owned()
                        } else {
                            format!("predicate#{l}")
                        }
                    },
                ),
                support,
            });
        }
        (out, partial)
    }

    /// Raw closed frequent patterns (for tests and benches).
    pub fn closed_patterns(&mut self) -> Vec<(Pattern, u32)> {
        self.miner.closed_frequent()
    }

    /// Direct access to the miner (ablations).
    pub fn miner_mut(&mut self) -> &mut StreamingMiner {
        &mut self.miner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nous_mining::EvictionStrategy;
    use nous_text::ner::EntityType;

    fn kg_with_motifs(copies: usize) -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        for i in 0..copies {
            let a = kg.create_entity(&format!("CompA{i}"), EntityType::Organization);
            let b = kg.create_entity(&format!("CompB{i}"), EntityType::Organization);
            let c = kg.create_entity(&format!("CompC{i}"), EntityType::Organization);
            let t = (i * 10) as u64;
            kg.add_extracted_fact(a, "acquired", b, t, 0.9, i as u64);
            kg.add_extracted_fact(a, "investedIn", c, t + 1, 0.9, i as u64);
            kg.add_extracted_fact(b, "partneredWith", c, t + 2, 0.9, i as u64);
        }
        kg
    }

    #[test]
    fn discovers_recurring_motif() {
        let kg = kg_with_motifs(4);
        let mut tm = TrendMonitor::new(
            WindowKind::Count { n: 100 },
            MinerConfig {
                k_max: 3,
                min_support: 3,
                eviction: EvictionStrategy::Eager,
            },
        );
        let (added, evicted) = tm.observe(&kg);
        assert_eq!(added, 12);
        assert_eq!(evicted, 0);
        let trends = tm.trending(&kg);
        assert!(!trends.is_empty());
        // The triangle motif appears 4 times and must be reported.
        let triangle = trends.iter().find(|t| {
            t.description.contains("acquired")
                && t.description.contains("investedIn")
                && t.description.contains("partneredWith")
        });
        assert!(triangle.is_some(), "triangle missing from {trends:?}");
        assert_eq!(triangle.unwrap().support, 4);
        assert!(triangle.unwrap().description.contains("Organization"));
    }

    #[test]
    fn window_eviction_forgets_old_patterns() {
        let kg = kg_with_motifs(4);
        let mut tm = TrendMonitor::new(
            WindowKind::Count { n: 6 }, // holds only 2 motifs
            MinerConfig {
                k_max: 3,
                min_support: 3,
                eviction: EvictionStrategy::Eager,
            },
        );
        tm.observe(&kg);
        assert_eq!(tm.window_len(), 6);
        let trends = tm.trending(&kg);
        assert!(
            !trends.iter().any(|t| t.support >= 3
                && t.description.contains("acquired")
                && t.description.contains("partneredWith")),
            "old motifs must have slid out: {trends:?}"
        );
    }

    #[test]
    fn time_window_advance() {
        let kg = kg_with_motifs(4); // timestamps 0..32
        let mut tm = TrendMonitor::new(
            WindowKind::Time { span: 1000 },
            MinerConfig {
                k_max: 2,
                min_support: 2,
                eviction: EvictionStrategy::Eager,
            },
        );
        tm.observe(&kg);
        assert_eq!(tm.window_len(), 12);
        let (_, evicted) = tm.advance_to(&kg, 1015);
        assert!(evicted > 0);
        assert!(tm.window_len() < 12);
    }

    #[test]
    fn unlabelled_vertices_count_label_misses() {
        let mut kg = KnowledgeGraph::new();
        let a = kg.create_entity("Typed Corp", EntityType::Organization);
        // ensure_vertex mints a bare vertex with no label.
        let b = kg.graph.ensure_vertex("Mystery Thing");
        kg.add_extracted_fact(a, "acquired", b, 1, 0.9, 0);
        let registry = nous_obs::MetricsRegistry::new();
        let mut tm = TrendMonitor::new(
            WindowKind::Count { n: 10 },
            MinerConfig {
                k_max: 1,
                min_support: 1,
                eviction: EvictionStrategy::Eager,
            },
        );
        tm.instrument(&registry);
        tm.observe(&kg);
        assert_eq!(
            registry.counter_value("nous_label_miss_total", &[]),
            Some(1),
            "one unlabelled endpoint observed"
        );
    }

    #[test]
    fn expired_deadline_truncates_trending() {
        let kg = kg_with_motifs(4);
        let mut tm = TrendMonitor::new(
            WindowKind::Count { n: 100 },
            MinerConfig {
                k_max: 3,
                min_support: 3,
                eviction: EvictionStrategy::Eager,
            },
        );
        tm.observe(&kg);
        let view = LayeredSnapshot::freeze(&kg.graph);
        let (trends, partial) =
            tm.trending_on_deadline(&view, &nous_fault::Deadline::expired_now());
        assert!(partial);
        assert!(trends.is_empty(), "expired before mining: {trends:?}");
        let (full, partial) = tm.trending_on_deadline(&view, &nous_fault::Deadline::none());
        assert!(!partial);
        assert_eq!(full, tm.trending(&kg));
    }

    #[test]
    fn incremental_observe_matches_single_shot() {
        let kg = kg_with_motifs(3);
        let cfg = MinerConfig {
            k_max: 3,
            min_support: 2,
            eviction: EvictionStrategy::Eager,
        };
        let mut incremental = TrendMonitor::new(WindowKind::Count { n: 100 }, cfg.clone());
        // Observe twice (second call sees no new edges).
        incremental.observe(&kg);
        let (added, _) = incremental.observe(&kg);
        assert_eq!(added, 0);
        let mut single = TrendMonitor::new(WindowKind::Count { n: 100 }, cfg);
        single.observe(&kg);
        assert_eq!(incremental.closed_patterns(), single.closed_patterns());
    }
}
