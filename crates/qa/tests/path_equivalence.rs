//! The serving path searches against their pre-rewrite oracles on
//! generated multigraphs (run it in release: it is a few hundred thousand
//! searches).
//!
//! - WHY (`coherent_paths_with_stats`) must equal the
//!   join-then-rank-everything search in `support::why` — paths, scores
//!   and every effort counter but `coherence_evals` — for every beam,
//!   `k`, hop bound, budget and constraint.
//! - PATHS (`shortest_paths_with_stats`) must equal exhaustive
//!   enumeration plus the stable length sort (`support::paths`) whenever
//!   that enumeration finished inside the budget — down to the tightest
//!   budget it finishes in — and otherwise be a prefix of the unbounded
//!   ranking.
//!
//! The graphs carry parallel edges under the same and under different
//! predicates, reversed edges, self-loops and tombstones; topic rows are
//! drawn from a small palette with unassigned (uniform) vertices, so
//! divergence ties are everywhere. Each graph is served as a fresh
//! [`LayeredSnapshot::freeze`], as a snapshot with two overlays, and as
//! that stack folded into one base ([`FrozenView::from_layers`], the
//! compactor's install), and all three must answer alike. The oracles
//! read the fresh freeze.

mod support;

use nous_graph::{
    DynamicGraph, EdgeId, FrozenView, GraphView, LayeredSnapshot, PredicateId, Provenance, VertexId,
};
use nous_qa::baselines::shortest_paths_with_stats;
use nous_qa::{
    coherent_paths_with_stats, PathConstraint, QaConfig, RankedPath, SearchStats, TopicIndex,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const GRAPHS: u64 = 160;
const BEAMS: [usize; 4] = [1, 2, 8, usize::MAX];
const KS: [usize; 4] = [1, 3, 10, 50];
const BUDGETS: [usize; 3] = [2, 6, 20_000];

/// A generated case: the graph in its three served forms plus topics.
struct Case {
    fresh: LayeredSnapshot,
    folded: LayeredSnapshot,
    layered: LayeredSnapshot,
    topics: TopicIndex,
    preds: Vec<PredicateId>,
}

/// Add a random edge: fresh, or parallel to / the reverse of an earlier
/// one, or a self-loop.
fn add_edge(g: &mut DynamicGraph, rng: &mut StdRng, n: u32, preds: &[PredicateId]) {
    let log = g.log_len() as u32;
    let pick = |rng: &mut StdRng| VertexId(rng.gen_range(0..n));
    let pred = |rng: &mut StdRng| preds[rng.gen_range(0..preds.len())];
    let (s, p, o) = match rng.gen_range(0..10u32) {
        0..=4 if log > 0 => {
            let e = g.edge(EdgeId(rng.gen_range(0..log))).clone();
            match rng.gen_range(0..3u32) {
                0 => (e.src, e.pred, e.dst),    // same predicate
                1 => (e.src, pred(rng), e.dst), // another predicate
                _ => (e.dst, pred(rng), e.src), // reversed
            }
        }
        5 => {
            let v = pick(rng);
            (v, pred(rng), v)
        }
        _ => (pick(rng), pred(rng), pick(rng)),
    };
    g.add_edge_at(s, p, o, 0, 1.0, Provenance::Curated);
}

fn remove_some(g: &mut DynamicGraph, rng: &mut StdRng) {
    let log = g.log_len() as u32;
    for _ in 0..rng.gen_range(0..3u32) {
        g.remove_edge(EdgeId(rng.gen_range(0..log)));
    }
}

fn case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4..11u32);
    let mut g = DynamicGraph::new();
    for i in 0..n {
        g.ensure_vertex(&format!("v{i}"));
    }
    let preds: Vec<PredicateId> = ["a", "b", "c"]
        .iter()
        .map(|p| g.intern_predicate(p))
        .collect();
    let edges = rng.gen_range(n as usize..3 * n as usize + 4);
    // Three thirds: the base, then two overlays.
    for _ in 0..edges / 3 {
        add_edge(&mut g, &mut rng, n, &preds);
    }
    let mut layered = LayeredSnapshot::freeze(&g);
    for _ in 0..2 {
        for _ in 0..edges / 3 {
            add_edge(&mut g, &mut rng, n, &preds);
        }
        remove_some(&mut g, &mut rng);
        layered = layered.with_overlay(layered.capture_delta(&g));
    }
    assert_eq!(layered.layer_count(), 2);

    // Topic rows from a palette with repeats; some vertices stay
    // unassigned (uniform) and one palette row is uniform itself.
    let palette: [[f64; 3]; 4] = [
        [0.8, 0.1, 0.1],
        [0.1, 0.8, 0.1],
        [0.4, 0.4, 0.2],
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    ];
    let mut topics = TopicIndex::new(3);
    for v in 0..n {
        let pick = rng.gen_range(0..palette.len() + 2);
        if let Some(row) = palette.get(pick) {
            topics.set(VertexId(v), row.to_vec());
        }
    }
    Case {
        fresh: LayeredSnapshot::freeze(&g),
        folded: layered.rebase(&layered, Arc::new(FrozenView::from_layers(&layered))),
        layered,
        topics,
        preds,
    }
}

/// Every configuration of the grid.
fn configs() -> impl Iterator<Item = QaConfig> {
    BEAMS.into_iter().flat_map(|beam| {
        KS.into_iter().flat_map(move |k| {
            (1..=5).flat_map(move |max_hops| {
                BUDGETS.into_iter().map(move |budget| QaConfig {
                    max_hops,
                    beam,
                    budget,
                    k,
                    ..Default::default()
                })
            })
        })
    })
}

fn without_evals(stats: SearchStats) -> SearchStats {
    SearchStats {
        coherence_evals: 0,
        ..stats
    }
}

/// The PATHS ranking key: (length, vertices, edge ids descending).
fn in_paths_order(paths: &[RankedPath]) -> bool {
    paths.windows(2).all(|w| {
        let edges = |p: &RankedPath| p.hops.iter().map(|h| h.edge.0).collect::<Vec<_>>();
        (w[0].len(), &w[0].vertices, std::cmp::Reverse(edges(&w[0])))
            < (w[1].len(), &w[1].vertices, std::cmp::Reverse(edges(&w[1])))
    })
}

/// Run `check` on every (src, dst, constraint, config) of every case.
fn for_each_query(mut check: impl FnMut(&Case, VertexId, VertexId, &PathConstraint, &QaConfig)) {
    for seed in 0..GRAPHS {
        let c = case(seed);
        let n = c.fresh.vertex_count() as u32;
        let mut rng = StdRng::seed_from_u64(!seed);
        for _ in 0..2 {
            let src = VertexId(rng.gen_range(0..n));
            let dst = VertexId(rng.gen_range(0..n));
            let constraints = [
                PathConstraint::default(),
                PathConstraint {
                    require_predicate: Some(c.preds[rng.gen_range(0..c.preds.len())]),
                },
            ];
            for constraint in &constraints {
                for cfg in configs() {
                    check(&c, src, dst, constraint, &cfg);
                }
            }
        }
    }
}

#[test]
fn why_equals_the_join_then_rank_oracle_on_every_view() {
    let (mut searches, mut ranked) = (0usize, 0usize);
    for_each_query(|c, src, dst, constraint, cfg| {
        let (want, want_stats) = support::why(&c.fresh, &c.topics, src, dst, constraint, cfg);
        ranked += usize::from(want.len() > 1);
        let ctx = || format!("{src:?}->{dst:?} {cfg:?} {constraint:?}");
        let (got, stats) =
            coherent_paths_with_stats(&c.fresh, &c.topics, src, dst, constraint, cfg);
        assert_eq!(got, want, "fresh freeze {}", ctx());
        assert_eq!(without_evals(stats), want_stats, "stats {}", ctx());
        let (folded, folded_stats) =
            coherent_paths_with_stats(&c.folded, &c.topics, src, dst, constraint, cfg);
        assert_eq!(folded, want, "folded stack {}", ctx());
        assert_eq!(folded_stats, stats, "folded stack stats {}", ctx());
        let (layered, layered_stats) =
            coherent_paths_with_stats(&c.layered, &c.topics, src, dst, constraint, cfg);
        assert_eq!(layered, want, "LayeredSnapshot {}", ctx());
        assert_eq!(layered_stats, stats, "LayeredSnapshot stats {}", ctx());
        searches += 1;
    });
    assert!(
        searches > 10_000 && ranked > 5_000,
        "{searches} searches, {ranked} ranked"
    );
}

#[test]
fn paths_equal_exhaustive_enumeration_within_budget_on_every_view() {
    let (mut compared, mut cut) = (0usize, 0usize);
    for_each_query(|c, src, dst, constraint, cfg| {
        if cfg.beam != usize::MAX {
            return; // PATHS has no look-ahead; one beam value is enough
        }
        let ctx = || format!("{src:?}->{dst:?} {cfg:?} {constraint:?}");
        let (want, want_stats) = support::paths(&c.fresh, src, dst, constraint, cfg);
        let (got, stats) = shortest_paths_with_stats(&c.fresh, src, dst, constraint, cfg);
        assert!(!stats.truncated);
        assert!(got.len() <= cfg.k && in_paths_order(&got), "{}", ctx());
        if want_stats.nodes_expanded < cfg.budget {
            assert_eq!(got, want, "fresh freeze {}", ctx());
            compared += 1;
            // The tightest budget the enumeration finishes in: the search
            // must never charge more than the enumeration expands.
            let tight = QaConfig {
                budget: want_stats.nodes_expanded + 1,
                ..cfg.clone()
            };
            let (at_tight, _) = shortest_paths_with_stats(&c.fresh, src, dst, constraint, &tight);
            assert_eq!(at_tight, want, "tight budget {}", ctx());
        } else {
            // The enumeration was cut; the length-ordered search must
            // still return a prefix of the complete ranking.
            let unbounded = QaConfig {
                budget: usize::MAX,
                ..cfg.clone()
            };
            let (all, _) = support::paths(&c.fresh, src, dst, constraint, &unbounded);
            assert_eq!(got[..], all[..got.len()], "prefix {}", ctx());
            cut += 1;
        }
        for (view, (other, other_stats)) in [
            (
                "folded stack",
                shortest_paths_with_stats(&c.folded, src, dst, constraint, cfg),
            ),
            (
                "LayeredSnapshot",
                shortest_paths_with_stats(&c.layered, src, dst, constraint, cfg),
            ),
        ] {
            assert_eq!(other, got, "{view} {}", ctx());
            assert_eq!(other_stats, stats, "{view} stats {}", ctx());
        }
    });
    assert!(
        compared > 1_000 && cut > 100,
        "{compared} compared, {cut} cut"
    );
}
