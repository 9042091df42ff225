//! The coherence-ranked path search (§3.6).
//!
//! Candidate generation uses the paper's look-ahead: at every hop only the
//! `beam` neighbours with least topic divergence to the *far endpoint* are
//! expanded. Each surviving source→target path then receives a coherence
//! score — the mean Jensen–Shannon divergence between consecutive
//! vertices' topic distributions — and "the path with least amount of
//! divergence is chosen" (paths are returned ascending by divergence).
//!
//! The search is **bidirectional**: two budgeted, beam-pruned sweeps
//! collect simple half-paths of up to `⌈H/2⌉` hops from the source and
//! `⌊H/2⌋` hops from the target, then meet in the middle — every full path
//! of length `L` decomposes uniquely into a forward half of `⌈L/2⌉` hops
//! and a backward half of `⌊L/2⌋` hops, so each candidate is assembled
//! exactly once. Against a hub of degree `d` this explores `O(d^{H/2})`
//! vertices per side instead of `O(d^H)`.
//!
//! What a search costs follows the distinct vertices it touches, not the
//! parallel edges or candidates between them:
//!
//! - every divergence is memoised per unordered vertex pair for the
//!   search (JS is symmetric to the bit), so a look-ahead key, a sweep's
//!   repeat visit and a scoring hop between the same two vertices cost one
//!   evaluation;
//! - the look-ahead keeps its `beam` steps by selection, not by sorting
//!   every step, and checks each neighbour's cheap lower bound on its
//!   divergence first, so a neighbour that cannot enter the beam is never
//!   evaluated;
//! - each sweep stores its halves as a parent-pointer tree — one node per
//!   half, however long — and a candidate is a pair of node indices, read
//!   off the two trees only for scoring and, for the top `k` alone,
//!   materialised as a [`RankedPath`].
//!
//! The search reads a published [`LayeredSnapshot`], the one read view:
//! however many overlays are stacked on its base, the answer equals the
//! one on a fresh freeze of the same graph.

use crate::path::{
    neighbor_steps_into, Hop, PathConstraint, RankedPath, SearchStats, DEADLINE_POLL,
};
use crate::topic_index::TopicIndex;
use nous_fault::Deadline;
use nous_graph::{FxHashMap, LayeredSnapshot, VertexId};
use nous_obs::MetricsRegistry;
use nous_topics::js_divergence;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Search parameters.
#[derive(Debug, Clone)]
pub struct QaConfig {
    /// Maximum path length in hops.
    pub max_hops: usize,
    /// Look-ahead width: neighbours expanded per vertex, least-divergent
    /// first. `usize::MAX` disables the look-ahead (ablation).
    pub beam: usize,
    /// Global expansion budget (shared across both sweeps).
    pub budget: usize,
    /// Number of paths returned.
    pub k: usize,
    /// Wall-clock budget. Searches poll it at coarse intervals and, on
    /// expiry, stop expanding and rank what they found so far, flagging
    /// `SearchStats::truncated`. [`Deadline::none()`] by default.
    pub deadline: Deadline,
}

impl Default for QaConfig {
    fn default() -> Self {
        Self {
            max_hops: 4,
            beam: 8,
            budget: 20_000,
            k: 5,
            deadline: Deadline::none(),
        }
    }
}

/// Coherence score: mean JS divergence along the path (lower = more
/// coherent). Single-hop paths score the endpoints' divergence.
pub fn path_coherence(topics: &TopicIndex, path: &[VertexId]) -> f64 {
    if path.len() < 2 {
        return 0.0;
    }
    let total: f64 = path
        .windows(2)
        .map(|w| js_divergence(topics.get(w[0]), topics.get(w[1])))
        .sum();
    total / (path.len() - 1) as f64
}

/// One search's divergences, memoised per unordered vertex pair.
struct Divergences<'a> {
    topics: &'a TopicIndex,
    memo: FxHashMap<u64, f64>,
    /// Divergences actually computed (memo misses).
    computed: usize,
}

impl<'a> Divergences<'a> {
    fn new(topics: &'a TopicIndex) -> Self {
        Self {
            topics,
            memo: FxHashMap::default(),
            computed: 0,
        }
    }

    fn between(&mut self, a: VertexId, b: VertexId) -> f64 {
        let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        let topics = self.topics;
        let computed = &mut self.computed;
        *self
            .memo
            .entry(u64::from(lo.0) << 32 | u64::from(hi.0))
            .or_insert_with(|| {
                *computed += 1;
                js_divergence(topics.get(a), topics.get(b))
            })
    }

    /// [`path_coherence`], bit for bit, through the memo.
    fn coherence(&mut self, path: &[VertexId]) -> f64 {
        if path.len() < 2 {
            return 0.0;
        }
        let total: f64 = path.windows(2).map(|w| self.between(w[0], w[1])).sum();
        total / (path.len() - 1) as f64
    }
}

/// The look-ahead: keeps the `beam` steps least divergent from a guide
/// vertex, in the frame order the DFS pops them — least divergent last,
/// so explored first.
struct Lookahead {
    beam: usize,
    /// Per distinct neighbour: a lower bound on its divergence to the
    /// guide, and its run of parallel steps.
    bounded: Vec<(f64, Range<usize>)>,
    /// The best `beam` steps seen so far, worst on top.
    best: BinaryHeap<Keyed>,
    kept: Vec<(VertexId, Hop)>,
}

/// A step's look-ahead key, ordered by (divergence ascending, position
/// descending): the order in which a stable sort descending by divergence
/// leaves steps *last*, i.e. popped first.
#[derive(Clone, Copy, PartialEq)]
struct Keyed(f64, usize);

impl Eq for Keyed {}

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("divergence is finite")
            .then(other.1.cmp(&self.1))
    }
}

/// Pinsker's inequality bounds each half of the Jensen–Shannon sum,
/// `KL(p ‖ m) ≥ ½‖p − m‖₁² = ⅛‖p − q‖₁²`, so `JS(p, q) ≥ ⅛‖p − q‖₁²` —
/// six subtractions instead of twelve logarithms. The slack covers what
/// [`TopicIndex::set`] lets through unnormalised (non-negative rows
/// summing to within 1e-6 of one, ≤ 5e-6 of the bound) and rounding.
fn divergence_floor(p: &[f64], q: &[f64]) -> f64 {
    let l1: f64 = p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum();
    l1 * l1 / 8.0 - 1e-5
}

impl Lookahead {
    fn new(beam: usize) -> Self {
        Self {
            beam,
            bounded: Vec::new(),
            best: BinaryHeap::new(),
            kept: Vec::new(),
        }
    }

    /// Prune `steps` (sorted by neighbour, as [`neighbor_steps_into`]
    /// leaves them) in place. The kept steps and their order are those of
    /// a stable sort descending by divergence cut to its last `beam`: the
    /// `beam` smallest [`Keyed`], reversed.
    ///
    /// Parallel steps share their neighbour's divergence. The `beam`
    /// neighbours with the lowest [`divergence_floor`] (selected, not
    /// sorted) are evaluated first and fill the beam, since each has at
    /// least one step; after that a neighbour is evaluated only if its
    /// floor does not exceed the beam's worst divergence, so one that
    /// cannot enter the beam never costs a divergence.
    fn prune(&mut self, steps: &mut Vec<(VertexId, Hop)>, guide: VertexId, div: &mut Divergences) {
        if self.beam == usize::MAX || steps.len() <= self.beam {
            return;
        }
        let target = div.topics.get(guide);
        self.bounded.clear();
        let mut at = 0;
        while at < steps.len() {
            let n = steps[at].0;
            let end = at + steps[at..].partition_point(|s| s.0 == n);
            self.bounded
                .push((divergence_floor(div.topics.get(n), target), at..end));
            at = end;
        }
        if self.bounded.len() > self.beam {
            self.bounded.select_nth_unstable_by(self.beam - 1, |a, b| {
                a.0.partial_cmp(&b.0).expect("divergence is finite")
            });
        }
        self.best.clear();
        for (i, (floor, run)) in self.bounded.iter().enumerate() {
            if i >= self.beam && self.best.peek().is_some_and(|worst| *floor > worst.0) {
                continue;
            }
            let key = div.between(steps[run.start].0, guide);
            for i in run.clone() {
                let step = Keyed(key, i);
                if self.best.len() < self.beam {
                    self.best.push(step);
                } else if let Some(mut worst) = self.best.peek_mut() {
                    if step < *worst {
                        *worst = step;
                    }
                }
            }
        }
        self.kept.clear();
        let mut best = std::mem::take(&mut self.best).into_sorted_vec();
        self.kept.extend(best.iter().rev().map(|k| steps[k.1]));
        best.clear();
        self.best = BinaryHeap::from(best);
        std::mem::swap(steps, &mut self.kept);
    }
}

/// Top-K coherent paths from `src` to `dst` (ascending divergence), plus
/// search-effort accounting: nodes expanded, peak frontier, candidate
/// paths found, and divergences computed.
///
/// Both sweeps poll `cfg.deadline` at coarse intervals; on expiry the
/// search stops collecting halves and assembles, scores and ranks
/// whatever was found so far — a *valid but possibly incomplete* top-K,
/// flagged via `stats.truncated`. A deadline that never expires changes
/// nothing (same paths, same accounting).
///
/// For `max_hops < 2` the backward sweep is empty and the forward sweep's
/// direct hops are the whole answer — what the unidirectional DFS finds.
pub fn coherent_paths_with_stats(
    g: &LayeredSnapshot,
    topics: &TopicIndex,
    src: VertexId,
    dst: VertexId,
    constraint: &PathConstraint,
    cfg: &QaConfig,
) -> (Vec<RankedPath>, SearchStats) {
    let mut stats = SearchStats::default();
    if src == dst {
        return (Vec::new(), stats);
    }
    let mut div = Divergences::new(topics);
    let mut look = Lookahead::new(cfg.beam);
    let mut sweep = Sweep {
        g,
        cfg,
        expansions: 0,
        div: &mut div,
        look: &mut look,
        stats: &mut stats,
    };
    let fwd = sweep.collect(
        src,
        HalfRule::Forward { dst },
        cfg.max_hops.div_ceil(2),
        dst,
    );
    let bwd = sweep.collect(dst, HalfRule::Backward { src }, cfg.max_hops / 2, src);
    stats.nodes_expanded += sweep.expansions;
    let joined = Joined { fwd, bwd };
    let candidates = joined.candidates(constraint, &mut div);
    stats.paths_emitted += candidates.len();
    let paths = joined.top_k(candidates, cfg.k);
    stats.coherence_evals += div.computed;
    (paths, stats)
}

/// Endpoint handling for one sweep of the bidirectional search.
#[derive(Clone, Copy)]
enum HalfRule {
    /// Sweep from the source. A step onto `dst` is recorded only as the
    /// depth-1 direct hop (longer src→dst paths are assembled from a
    /// shorter forward half and a backward half) and never extended.
    Forward { dst: VertexId },
    /// Sweep from the target. Never steps onto `src`: backward halves are
    /// strict suffixes, so the source cannot appear in them.
    Backward { src: VertexId },
}

/// Stands for a sweep's root in [`HalfNode::parent`], and for the 0-hop
/// half at the target in a [`Candidate`].
const ROOT: u32 = u32::MAX;

/// One half-path: the chain from this node up to the sweep's root.
#[derive(Clone, Copy)]
struct HalfNode {
    /// The half this one extends by `hop`, or [`ROOT`].
    parent: u32,
    /// The vertex `hop` reaches, farthest from the root.
    vertex: VertexId,
    /// Oriented as traversed from the root outwards.
    hop: Hop,
    depth: u32,
}

/// Every half one sweep collected, as a parent-pointer tree.
struct Halves {
    root: VertexId,
    nodes: Vec<HalfNode>,
}

impl Halves {
    fn vertex(&self, h: u32) -> VertexId {
        if h == ROOT {
            self.root
        } else {
            self.nodes[h as usize].vertex
        }
    }

    fn depth(&self, h: u32) -> u32 {
        if h == ROOT {
            0
        } else {
            self.nodes[h as usize].depth
        }
    }

    /// The nodes from `h` up to, not including, the root.
    fn up(&self, h: u32) -> impl Iterator<Item = &HalfNode> + '_ {
        let node = |i: u32| (i != ROOT).then(|| &self.nodes[i as usize]);
        std::iter::successors(node(h), move |n| node(n.parent))
    }

    /// The node `depth` hops from the root on `h`'s chain (`depth ≥ 1`).
    fn at_depth(&self, h: u32, depth: u32) -> &HalfNode {
        let up = (self.depth(h) - depth) as usize;
        self.up(h).nth(up).expect("depth within the half")
    }
}

/// One sweep's borrowed search state; `expansions` is the budget counter
/// the two sweeps share.
struct Sweep<'s, 'a> {
    g: &'s LayeredSnapshot,
    cfg: &'s QaConfig,
    expansions: usize,
    div: &'s mut Divergences<'a>,
    look: &'s mut Lookahead,
    stats: &'s mut SearchStats,
}

impl Sweep<'_, '_> {
    /// Collect every simple half-path of 1..=`depth_max` hops from `root`,
    /// beam-pruned by topic divergence to `guide` (the far endpoint)
    /// exactly like the unidirectional look-ahead.
    fn collect(
        &mut self,
        root: VertexId,
        rule: HalfRule,
        depth_max: usize,
        guide: VertexId,
    ) -> Halves {
        let mut halves = Halves {
            root,
            nodes: Vec::new(),
        };
        if depth_max == 0 {
            return halves;
        }
        // The open chain: its vertices (root first) and, past the root,
        // its nodes.
        let mut vstack = vec![root];
        let mut open: Vec<u32> = Vec::new();
        let mut free: Vec<Vec<(VertexId, Hop)>> = Vec::new();
        let mut first = Vec::new();
        neighbor_steps_into(self.g, root, &mut first);
        self.look.prune(&mut first, guide, self.div);
        let mut frontier = first.len();
        self.stats.max_frontier = self.stats.max_frontier.max(frontier);
        let mut frames = vec![first];
        while let Some(frame) = frames.last_mut() {
            let Some((next, hop)) = frame.pop() else {
                free.push(frames.pop().expect("frame stack is non-empty"));
                vstack.pop();
                open.pop();
                continue;
            };
            frontier -= 1;
            match rule {
                HalfRule::Forward { dst } if next == dst => {
                    if open.is_empty() {
                        halves.nodes.push(HalfNode {
                            parent: ROOT,
                            vertex: dst,
                            hop,
                            depth: 1,
                        });
                    }
                    continue;
                }
                HalfRule::Backward { src } if next == src => continue,
                _ => {}
            }
            if vstack.contains(&next) {
                continue; // simple halves only
            }
            let node = u32::try_from(halves.nodes.len()).expect("half count fits in u32");
            halves.nodes.push(HalfNode {
                parent: open.last().copied().unwrap_or(ROOT),
                vertex: next,
                hop,
                depth: vstack.len() as u32,
            });
            if vstack.len() >= depth_max || self.expansions >= self.cfg.budget {
                continue;
            }
            if self.expansions.is_multiple_of(DEADLINE_POLL) && self.cfg.deadline.expired() {
                // Best-so-far: the halves collected up to here still join
                // into valid (possibly incomplete) candidate paths.
                self.stats.truncated = true;
                break;
            }
            self.expansions += 1;
            vstack.push(next);
            open.push(node);
            let mut buf = free.pop().unwrap_or_default();
            neighbor_steps_into(self.g, next, &mut buf);
            self.look.prune(&mut buf, guide, self.div);
            frontier += buf.len();
            self.stats.max_frontier = self.stats.max_frontier.max(frontier);
            frames.push(buf);
        }
        halves
    }
}

/// A joined, scored candidate: forward half `f` then backward half `b`
/// ([`ROOT`] for the 0-hop half at the target) — two indices, not a path.
struct Candidate {
    score: f64,
    len: u32,
    f: u32,
    b: u32,
}

/// Both sweeps' halves: what a [`Candidate`]'s path is read off.
struct Joined {
    fwd: Halves,
    bwd: Halves,
}

impl Joined {
    /// Meet in the middle: join each forward half of `i` hops ending at
    /// `meet` with every backward half of `i` or `i - 1` hops ending
    /// there. `L = i + j` with `i = ⌈L/2⌉` forces `j ∈ {i, i - 1}`, and
    /// the split of any given path is unique, so no candidate is
    /// assembled twice. Each candidate is scored as it is found.
    fn candidates(&self, constraint: &PathConstraint, div: &mut Divergences) -> Vec<Candidate> {
        let mut by_meet: Vec<(VertexId, u32)> = (0..self.bwd.nodes.len() as u32)
            .map(|b| (self.bwd.vertex(b), b))
            .chain(std::iter::once((self.bwd.root, ROOT)))
            .collect();
        by_meet.sort_unstable_by_key(|&(meet, _)| meet);
        let mut out = Vec::new();
        let mut path = Vec::new();
        for f in 0..self.fwd.nodes.len() as u32 {
            let (i, meet) = (self.fwd.depth(f), self.fwd.vertex(f));
            let at = by_meet.partition_point(|&(v, _)| v < meet);
            // The forward half's vertices, source first.
            path.clear();
            path.extend(self.fwd.up(f).map(|n| n.vertex));
            path.push(self.fwd.root);
            path.reverse();
            for &(_, b) in by_meet[at..].iter().take_while(|&&(v, _)| v == meet) {
                let j = self.bwd.depth(b);
                if j != i && j + 1 != i {
                    continue;
                }
                // Simple paths only: past `meet` the backward half must
                // avoid every forward vertex.
                if self
                    .bwd
                    .up(b)
                    .any(|n| path.contains(&self.bwd.vertex(n.parent)))
                {
                    continue;
                }
                if let Some(p) = constraint.require_predicate {
                    if !self
                        .fwd
                        .up(f)
                        .chain(self.bwd.up(b))
                        .any(|n| n.hop.pred == p)
                    {
                        continue;
                    }
                }
                path.extend(self.bwd.up(b).map(|n| self.bwd.vertex(n.parent)));
                let score = div.coherence(&path);
                path.truncate(i as usize + 1);
                out.push(Candidate {
                    score,
                    len: i + j,
                    f,
                    b,
                });
            }
        }
        out
    }

    /// `c`'s vertices, source first.
    fn vertices<'s>(&'s self, c: &Candidate) -> impl Iterator<Item = VertexId> + 's {
        let (f, b) = (c.f, c.b);
        let forward = (0..=self.fwd.depth(f)).map(move |d| match d {
            0 => self.fwd.root,
            d => self.fwd.at_depth(f, d).vertex,
        });
        forward.chain(self.bwd.up(b).map(|n| self.bwd.vertex(n.parent)))
    }

    /// `c`'s hops in path order. Backward hops were traversed dst→meet;
    /// in path direction they run meet→dst, so their orientation flips.
    fn hops<'s>(&'s self, c: &Candidate) -> impl Iterator<Item = Hop> + 's {
        let f = c.f;
        let forward = (1..=self.fwd.depth(f)).map(move |d| self.fwd.at_depth(f, d).hop);
        forward.chain(self.bwd.up(c.b).map(|n| Hop {
            forward: !n.hop.forward,
            ..n.hop
        }))
    }

    /// Ascending by (divergence, length, vertex sequence, edge sequence).
    /// The edge-id tiebreak makes the order total even between
    /// parallel-edge paths, so the result does not depend on how the
    /// snapshot's layers are stacked.
    fn order(&self, a: &Candidate, b: &Candidate) -> Ordering {
        a.score
            .partial_cmp(&b.score)
            .expect("finite scores")
            .then_with(|| a.len.cmp(&b.len))
            .then_with(|| self.vertices(a).cmp(self.vertices(b)))
            .then_with(|| {
                self.hops(a)
                    .map(|h| h.edge.0)
                    .cmp(self.hops(b).map(|h| h.edge.0))
            })
    }

    /// The first `k` candidates in [`Joined::order`], materialised.
    fn top_k(&self, mut candidates: Vec<Candidate>, k: usize) -> Vec<RankedPath> {
        if k > 0 && candidates.len() > k {
            candidates.select_nth_unstable_by(k - 1, |a, b| self.order(a, b));
        }
        candidates.truncate(k);
        candidates.sort_unstable_by(|a, b| self.order(a, b));
        candidates
            .iter()
            .map(|c| RankedPath {
                vertices: self.vertices(c).collect(),
                hops: self.hops(c).collect(),
                score: c.score,
            })
            .collect()
    }
}

/// Record one search's [`SearchStats`] into the `nous_qa_*` family.
pub fn record_search(registry: &MetricsRegistry, stats: &SearchStats) {
    registry
        .counter("nous_qa_searches_total", "Top-K path searches executed")
        .inc();
    registry
        .counter("nous_qa_paths_found_total", "Paths found before truncation")
        .add(stats.paths_emitted as u64);
    registry
        .sizes("nous_qa_nodes_expanded", "Nodes expanded per path search")
        .observe(stats.nodes_expanded as u64);
    registry
        .sizes(
            "nous_qa_frontier_size",
            "Peak pending-step frontier per path search",
        )
        .observe(stats.max_frontier as u64);
    registry
        .sizes(
            "nous_qa_coherence_evals",
            "Topic-divergence evaluations per path search",
        )
        .observe(stats.coherence_evals as u64);
    registry
        .counter(
            "nous_qa_truncated_total",
            "Searches cut short by an expired deadline (best-so-far returned)",
        )
        .add(stats.truncated as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::enumerate_paths_with_stats;
    use nous_graph::{DynamicGraph, GraphView, Provenance};

    /// Two same-length paths a→b→d (coherent: same topic) and a→h→d
    /// (incoherent hub).
    fn planted() -> (DynamicGraph, TopicIndex, VertexId, VertexId) {
        let mut g = DynamicGraph::new();
        let a = g.ensure_vertex("a");
        let b = g.ensure_vertex("b");
        let h = g.ensure_vertex("hub");
        let d = g.ensure_vertex("d");
        let p = g.intern_predicate("rel");
        g.add_edge_at(a, p, b, 0, 1.0, Provenance::Curated);
        g.add_edge_at(b, p, d, 0, 1.0, Provenance::Curated);
        g.add_edge_at(a, p, h, 0, 1.0, Provenance::Curated);
        g.add_edge_at(h, p, d, 0, 1.0, Provenance::Curated);
        // Hub noise.
        for i in 0..5 {
            let x = g.ensure_vertex(&format!("x{i}"));
            g.add_edge_at(h, p, x, 0, 1.0, Provenance::Curated);
        }
        let mut t = TopicIndex::new(2);
        t.set(a, vec![0.9, 0.1]);
        t.set(b, vec![0.85, 0.15]);
        t.set(d, vec![0.9, 0.1]);
        t.set(h, vec![0.1, 0.9]);
        (g, t, a, d)
    }

    #[test]
    fn coherent_path_wins() {
        let (g, t, a, d) = planted();
        let g = LayeredSnapshot::freeze(&g);
        let paths = coherent_paths_with_stats(
            &g,
            &t,
            a,
            d,
            &PathConstraint::default(),
            &QaConfig::default(),
        )
        .0;
        assert!(!paths.is_empty());
        let names: Vec<&str> = paths[0]
            .vertices
            .iter()
            .map(|&v| g.vertex_name(v))
            .collect();
        assert_eq!(names, vec!["a", "b", "d"], "least-divergence path first");
        assert!(paths[0].score < paths[1].score);
    }

    #[test]
    fn scores_are_ascending() {
        let (g, t, a, d) = planted();
        let g = LayeredSnapshot::freeze(&g);
        let paths = coherent_paths_with_stats(
            &g,
            &t,
            a,
            d,
            &PathConstraint::default(),
            &QaConfig::default(),
        )
        .0;
        assert!(paths.windows(2).all(|w| w[0].score <= w[1].score));
    }

    #[test]
    fn k_truncates() {
        let (g, t, a, d) = planted();
        let g = LayeredSnapshot::freeze(&g);
        let cfg = QaConfig {
            k: 1,
            ..Default::default()
        };
        let paths = coherent_paths_with_stats(&g, &t, a, d, &PathConstraint::default(), &cfg).0;
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn tight_beam_still_reaches_target() {
        let (g, t, a, d) = planted();
        let g = LayeredSnapshot::freeze(&g);
        let cfg = QaConfig {
            beam: 1,
            ..Default::default()
        };
        let paths = coherent_paths_with_stats(&g, &t, a, d, &PathConstraint::default(), &cfg).0;
        assert!(!paths.is_empty());
        // Beam 1 follows the least-divergent neighbour — which is b.
        let names: Vec<&str> = paths[0]
            .vertices
            .iter()
            .map(|&v| g.vertex_name(v))
            .collect();
        assert_eq!(names, vec!["a", "b", "d"]);
    }

    #[test]
    fn coherence_of_uniform_path_is_zero() {
        let t = TopicIndex::new(3);
        let path = [VertexId(0), VertexId(1), VertexId(2)];
        assert!(path_coherence(&t, &path) < 1e-12);
    }

    #[test]
    fn stats_account_search_effort() {
        let (g, t, a, d) = planted();
        let g = LayeredSnapshot::freeze(&g);
        let (paths, stats) = coherent_paths_with_stats(
            &g,
            &t,
            a,
            d,
            &PathConstraint::default(),
            &QaConfig::default(),
        );
        assert!(!paths.is_empty());
        assert!(stats.nodes_expanded > 0);
        assert!(stats.max_frontier >= 2, "{stats:?}");
        assert_eq!(stats.paths_emitted, 2, "both 2-hop paths found");
        // Scoring alone evaluates len() divergences per path.
        assert!(stats.coherence_evals >= 4, "{stats:?}");
    }

    #[test]
    fn lookahead_evaluates_divergence_once_per_candidate() {
        // Star: a → m0..m4 → d. With beam 2 each sweep of the
        // bidirectional search over-expands exactly once (5 candidates at
        // `a`, 5 at `d`). The look-ahead computes a divergence at most
        // once per distinct candidate per frontier — never once per
        // comparison, as a naive sort-by-recomputed-key would — and not at
        // all for a candidate whose Pinsker floor already exceeds the
        // beam's worst.
        let star = |far: [f64; 2]| {
            let mut g = DynamicGraph::new();
            let a = g.ensure_vertex("a");
            let d = g.ensure_vertex("d");
            let p = g.intern_predicate("rel");
            let mut t = TopicIndex::new(2);
            t.set(a, vec![0.5, 0.5]);
            t.set(d, vec![0.9, 0.1]);
            for i in 0..5 {
                let m = g.ensure_vertex(&format!("m{i}"));
                g.add_edge_at(a, p, m, 0, 1.0, Provenance::Curated);
                g.add_edge_at(m, p, d, 0, 1.0, Provenance::Curated);
                // m0/m1 near the target's topic, the rest at `far`.
                t.set(
                    m,
                    if i < 2 {
                        vec![0.85, 0.15]
                    } else {
                        far.to_vec()
                    },
                );
            }
            (LayeredSnapshot::freeze(&g), t, a, d)
        };
        let cfg = QaConfig {
            max_hops: 2,
            beam: 2,
            budget: 20_000,
            k: 10,
            ..Default::default()
        };

        // Far middles: their floors rule them out on both sides, so only
        // m0 and m1 are evaluated — toward d, then toward a.
        let (g, t, a, d) = star([0.1, 0.9]);
        let (paths, stats) =
            coherent_paths_with_stats(&g, &t, a, d, &PathConstraint::default(), &cfg);
        assert_eq!(paths.len(), 2, "beam 2 keeps two middle vertices");
        assert_eq!(stats.paths_emitted, 2);
        // Scoring is free: every hop of a surviving path a-mi-d is a pair
        // the look-ahead already computed — (mi, d) for the forward
        // sweep, (a, mi) for the backward one.
        assert_eq!(stats.coherence_evals, 4, "{stats:?}");
        // The survivors are the two topic-coherent middles.
        let names: Vec<&str> = paths.iter().map(|p| g.vertex_name(p.vertices[1])).collect();
        assert!(names.contains(&"m0") && names.contains(&"m1"), "{names:?}");

        // Middles on the near topic too: no floor separates them, so every
        // distinct candidate is evaluated once per frontier — 5 + 5 — and
        // scoring is again free.
        let (g, t, a, d) = star([0.85, 0.15]);
        let (paths, stats) =
            coherent_paths_with_stats(&g, &t, a, d, &PathConstraint::default(), &cfg);
        assert_eq!(paths.len(), 2);
        assert_eq!(stats.coherence_evals, 10, "{stats:?}");
    }

    #[test]
    fn bidirectional_matches_dfs_enumeration_without_pruning() {
        // Widen the planted graph with longer detours: a-h-x0-d (3 hops)
        // and a-h-x1-x0-d (4 hops). With the beam disabled both searches
        // must produce the identical ranked candidate set — same vertices,
        // same hop orientations — at every depth, and on the detours'
        // overlay stacked on a base as on a fresh freeze.
        let (mut g, t, a, d) = planted();
        let base = LayeredSnapshot::freeze(&g);
        let p = g.predicate_id("rel").unwrap();
        let x0 = g.vertex_id("x0").unwrap();
        let x1 = g.vertex_id("x1").unwrap();
        g.add_edge_at(x0, p, d, 0, 1.0, Provenance::Curated);
        g.add_edge_at(x1, p, x0, 0, 1.0, Provenance::Curated);
        let stacked = base.with_overlay(base.capture_delta(&g));
        let g = LayeredSnapshot::freeze(&g);
        for max_hops in [2, 3, 4, 5] {
            let cfg = QaConfig {
                max_hops,
                beam: usize::MAX,
                budget: 100_000,
                k: 50,
                ..Default::default()
            };
            let (bidi, _) =
                coherent_paths_with_stats(&g, &t, a, d, &PathConstraint::default(), &cfg);
            let mut dfs = enumerate_paths_with_stats(
                &g,
                a,
                d,
                max_hops,
                cfg.budget,
                &PathConstraint::default(),
                |_, steps| steps,
                &mut SearchStats::default(),
            );
            for p in &mut dfs {
                p.score = path_coherence(&t, &p.vertices);
            }
            dfs.sort_by(|x, y| {
                x.score
                    .total_cmp(&y.score)
                    .then_with(|| x.len().cmp(&y.len()))
                    .then_with(|| x.vertices.cmp(&y.vertices))
            });
            assert_eq!(bidi, dfs, "max_hops={max_hops}");
            let (on_stacked, _) =
                coherent_paths_with_stats(&stacked, &t, a, d, &PathConstraint::default(), &cfg);
            assert_eq!(
                bidi, on_stacked,
                "max_hops={max_hops} on the overlaid stack"
            );
        }
    }

    #[test]
    fn record_search_fills_the_qa_family() {
        let (g, t, a, d) = planted();
        let g = LayeredSnapshot::freeze(&g);
        let registry = MetricsRegistry::new();
        let (paths, stats) = coherent_paths_with_stats(
            &g,
            &t,
            a,
            d,
            &PathConstraint::default(),
            &QaConfig::default(),
        );
        record_search(&registry, &stats);
        assert!(!paths.is_empty());
        assert_eq!(
            registry.counter_value("nous_qa_searches_total", &[]),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("nous_qa_paths_found_total", &[]),
            Some(2)
        );
        let text = registry.render_prometheus();
        assert!(text.contains("nous_qa_nodes_expanded_count 1"), "{text}");
        assert!(text.contains("nous_qa_frontier_size_count 1"), "{text}");
        assert!(text.contains("nous_qa_coherence_evals_count 1"), "{text}");
    }

    #[test]
    fn expired_deadline_returns_best_so_far_and_flags_truncation() {
        let (g, t, a, d) = planted();
        let g = LayeredSnapshot::freeze(&g);
        let cfg = QaConfig {
            deadline: Deadline::expired_now(),
            ..Default::default()
        };
        let (paths, stats) =
            coherent_paths_with_stats(&g, &t, a, d, &PathConstraint::default(), &cfg);
        assert!(stats.truncated, "{stats:?}");
        // Whatever survived is still well-formed and ranked.
        assert!(paths.windows(2).all(|w| w[0].score <= w[1].score));
        for p in &paths {
            assert_eq!(p.vertices.first(), Some(&a), "{p:?}");
            assert_eq!(p.vertices.last(), Some(&d), "{p:?}");
            assert_eq!(p.hops.len() + 1, p.vertices.len(), "{p:?}");
        }
    }

    #[test]
    fn unexpired_deadline_matches_unbounded_search_exactly() {
        let (g, t, a, d) = planted();
        let g = LayeredSnapshot::freeze(&g);
        let none = PathConstraint::default();
        let (plain, plain_stats) =
            coherent_paths_with_stats(&g, &t, a, d, &none, &QaConfig::default());
        let generous = QaConfig {
            deadline: Deadline::within(std::time::Duration::from_secs(60)),
            ..Default::default()
        };
        let (timed, timed_stats) = coherent_paths_with_stats(&g, &t, a, d, &none, &generous);
        assert_eq!(plain, timed);
        assert_eq!(plain_stats, timed_stats);
        assert!(!timed_stats.truncated);
    }

    #[test]
    fn disconnected_returns_empty() {
        let (mut g, t, a, _) = planted();
        let lonely = g.ensure_vertex("lonely");
        let g = LayeredSnapshot::freeze(&g);
        let paths = coherent_paths_with_stats(
            &g,
            &t,
            a,
            lonely,
            &PathConstraint::default(),
            &QaConfig::default(),
        )
        .0;
        assert!(paths.is_empty());
    }
}
