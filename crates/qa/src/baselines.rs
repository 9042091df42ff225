//! Path-ranking baselines for experiment E9.
//!
//! The paper positions its coherence metric against "state of the art
//! path-ranking algorithms". Three standard rankers over the same
//! candidate set:
//!
//! - [`shortest_paths_with_stats`] — hop count, ties broken
//!   lexicographically (what a plain BFS gives you: blind between
//!   same-length explanations). It also serves `PATHS`, so it searches by
//!   length and stops at `k` instead of enumerating every candidate.
//! - [`degree_salience_paths`] — prefer paths through high-degree
//!   ("salient") intermediates, the centrality heuristic used by
//!   relatedness-explanation systems; systematically drawn to hubs.
//! - [`random_walk_paths`] — PRA-style: rank by random-walk probability,
//!   the product of `1/degree` along the path.

use crate::path::{
    append_neighbor_steps, enumerate_paths_with_stats, Hop, PathConstraint, RankedPath,
    SearchStats, DEADLINE_POLL,
};
use crate::QaConfig;
use nous_fault::Deadline;
use nous_graph::{FxHashMap, GraphView, VertexId};
use std::collections::hash_map::Entry;
use std::ops::Range;

fn candidates<G: GraphView>(
    g: &G,
    src: VertexId,
    dst: VertexId,
    constraint: &PathConstraint,
    cfg: &QaConfig,
) -> Vec<RankedPath> {
    // Baselines search unguided (no look-ahead pruning).
    enumerate_paths_with_stats(
        g,
        src,
        dst,
        cfg.max_hops,
        cfg.budget,
        constraint,
        |_, steps| steps,
        &mut SearchStats::default(),
    )
}

/// Rank by length ascending; ties by vertex sequence, then by edge-id
/// sequence *descending* — the order an exhaustive DFS emitting
/// higher-numbered parallel edges first gives, stated as a key. Returns
/// the top `cfg.k` with search-effort accounting.
///
/// The search works up by length: the direct edges, then the 2-hop paths
/// through the common neighbours of `src` and `dst`, then longer levels
/// only while fewer than `cfg.k` paths are found. Within a level it walks
/// distinct neighbours in ascending id order and expands parallel edges
/// only when emitting, so paths come out in ranked order and the search
/// stops at the `k`-th. Under `MAX` 4 or more, one breadth-first search
/// out of `dst` gives every vertex a lower bound on its distance to the
/// target, and a prefix is extended only if it can still reach `dst` in
/// the hops left.
///
/// `cfg.budget` caps the prefixes extended. A prefix whose last vertex
/// neighbours `dst` is charged once per edge tuple when its paths are
/// emitted; any other is charged once, on the first level that walks it.
/// That is never more than the exhaustive DFS's expansions, so whenever
/// the DFS finishes within the budget the result equals its top `k` under
/// the same key. Past the cap the search stops with a ranked prefix. The
/// distance search has its own cap of `cfg.budget` fetches (past it the
/// bounds just stay looser), and both count into `stats.nodes_expanded`.
///
/// `cfg.deadline` is polled every `DEADLINE_POLL` steps, including steps
/// that charge nothing, such as re-walking a prefix on a later level. On
/// expiry the search stops and the paths found so far — a prefix of the
/// complete ranking — are returned with `stats.truncated` set.
pub fn shortest_paths_with_stats<G: GraphView>(
    g: &G,
    src: VertexId,
    dst: VertexId,
    constraint: &PathConstraint,
    cfg: &QaConfig,
) -> (Vec<RankedPath>, SearchStats) {
    let mut search = ByLength {
        g,
        src,
        dst,
        constraint,
        k: cfg.k,
        budget: cfg.budget,
        deadline: &cfg.deadline,
        steps: Vec::new(),
        fetched: FxHashMap::default(),
        dist: FxHashMap::default(),
        radius: 0,
        probed: 0,
        extended: 0,
        work: 0,
        stats: SearchStats::default(),
        path: Vec::new(),
        reach: Vec::new(),
        groups: Vec::new(),
        odometer: Vec::new(),
        frontier: 0,
        stopped: false,
        out: Vec::new(),
    };
    search.run(cfg.max_hops);
    search.stats.nodes_expanded = search.extended + search.probed;
    search.stats.paths_emitted = search.out.len();
    (search.out, search.stats)
}

/// State of one length-ordered `PATHS` search.
struct ByLength<'a, G> {
    g: &'a G,
    src: VertexId,
    dst: VertexId,
    constraint: &'a PathConstraint,
    k: usize,
    budget: usize,
    deadline: &'a Deadline,
    /// Every fetched vertex's undirected steps, each run sorted by
    /// (neighbour, edge id) as [`append_neighbor_steps`] leaves them.
    steps: Vec<(VertexId, Hop)>,
    /// Where each fetched vertex's run sits in `steps`.
    fetched: FxHashMap<VertexId, Range<usize>>,
    /// Hop distances to `dst` avoiding `src`, by breadth-first search:
    /// exact up to `radius`; a vertex not listed is farther. Before the
    /// search runs `radius` is 0, so every bound is 1.
    dist: FxHashMap<VertexId, usize>,
    radius: usize,
    /// Adjacency lists the distance search fetched, at most `budget`.
    probed: usize,
    /// Prefixes charged against `budget`.
    extended: usize,
    /// Steps taken, charged or not: the deadline poll counter.
    work: usize,
    stats: SearchStats,
    /// Vertices of the path being extended, `src` first.
    path: Vec<VertexId>,
    /// Per vertex of `path`, the first level at which the prefix ending
    /// there is walked (extended toward a longer path).
    reach: Vec<usize>,
    /// For each hop of `path`, its parallel edges: a range of `steps`.
    groups: Vec<Range<usize>>,
    /// Per-hop cursor into `groups` while emitting.
    odometer: Vec<usize>,
    /// Steps held by the adjacency runs open along `path`.
    frontier: usize,
    /// Budget spent or deadline expired.
    stopped: bool,
    out: Vec<RankedPath>,
}

impl<G: GraphView> ByLength<'_, G> {
    fn done(&self) -> bool {
        self.stopped || self.out.len() >= self.k
    }

    fn run(&mut self, max_hops: usize) {
        if self.src == self.dst || max_hops == 0 || self.k == 0 {
            return;
        }
        let from_src = self.adjacency(self.src);
        // Length 1: the direct edges, read off the source's own run.
        let direct = self.group(&from_src, self.dst);
        self.path.push(self.src);
        self.reach.push(0);
        self.emit(direct, false);
        if max_hops < 2 || self.done() {
            return;
        }
        // The last hop of every longer path is read off the target's run,
        // so the vertex before it needs no fetch of its own.
        let into_dst = self.adjacency(self.dst);
        for len in 2..=max_hops {
            if self.done() {
                break;
            }
            // Level 2 walks no prefix, and at `MAX 3` the bounds would cost
            // a fetch per neighbour of `dst`, about what they save. Past
            // that they are computed once, so every prefix's first level
            // stays put.
            if len == 3 && max_hops > 3 {
                self.distances(max_hops - 2, &into_dst);
            }
            self.extend(len, &into_dst);
        }
    }

    /// `v`'s steps, fetched on first use.
    fn adjacency(&mut self, v: VertexId) -> Range<usize> {
        if let Some(run) = self.fetched.get(&v) {
            return run.clone();
        }
        let start = self.steps.len();
        append_neighbor_steps(self.g, v, &mut self.steps);
        let run = start..self.steps.len();
        self.fetched.insert(v, run.clone());
        run
    }

    /// Count one step; `false` (and stop) if the deadline has expired.
    fn tick(&mut self) -> bool {
        if self.work.is_multiple_of(DEADLINE_POLL) && self.deadline.expired() {
            self.stats.truncated = true;
            self.stopped = true;
            return false;
        }
        self.work += 1;
        true
    }

    /// Charge one expansion; `false` (and stop) once the budget is spent.
    fn charge(&mut self) -> bool {
        if self.extended >= self.budget {
            self.stopped = true;
            return false;
        }
        self.extended += 1;
        true
    }

    /// Breadth-first search out of `dst` to `radius` hops. It never
    /// expands `src` (no simple path from there passes back through it)
    /// and stops after `budget` fetches, leaving lower bounds. If it runs
    /// out of vertices first, the distances are exact at any radius and an
    /// unlisted vertex cannot reach `dst`.
    fn distances(&mut self, radius: usize, into_dst: &Range<usize>) {
        self.dist.insert(self.dst, 0);
        let mut rim = Vec::new();
        self.discover(into_dst.clone(), 1, &mut rim);
        self.radius = 1;
        while self.radius < radius {
            if rim.is_empty() {
                self.radius = usize::MAX / 2;
                return;
            }
            for v in std::mem::take(&mut rim) {
                if v == self.src {
                    continue;
                }
                if self.probed >= self.budget || !self.tick() {
                    return;
                }
                self.probed += 1;
                let run = self.adjacency(v);
                self.discover(run, self.radius + 1, &mut rim);
            }
            self.radius += 1;
        }
    }

    /// Give the neighbours in `run` not yet reached distance `d`.
    fn discover(&mut self, run: Range<usize>, d: usize, rim: &mut Vec<VertexId>) {
        for i in run {
            let n = self.steps[i].0;
            if let Entry::Vacant(e) = self.dist.entry(n) {
                e.insert(d);
                rim.push(n);
            }
        }
    }

    /// A lower bound on `v`'s distance to `dst`.
    fn bound(&self, v: VertexId) -> usize {
        self.dist.get(&v).copied().unwrap_or(self.radius + 1)
    }

    /// The steps of `run` that lead to `n` (its parallel edges to `n`).
    fn group(&self, run: &Range<usize>, n: VertexId) -> Range<usize> {
        let steps = &self.steps[run.clone()];
        let lo = steps.partition_point(|s| s.0 < n);
        let hi = lo + steps[lo..].partition_point(|s| s.0 == n);
        run.start + lo..run.start + hi
    }

    /// Extend `path` to paths of exactly `len` hops ending at `dst`,
    /// through distinct neighbours in ascending id order.
    fn extend(&mut self, len: usize, into_dst: &Range<usize>) {
        let v = *self.path.last().expect("path starts at the source");
        let run = self.adjacency(v);
        // Hops from the source to a neighbour of `v`.
        let depth = self.path.len();
        self.frontier += run.len();
        self.stats.max_frontier = self.stats.max_frontier.max(self.frontier);
        let mut at = run.start;
        while at < run.end && !self.done() {
            let n = self.steps[at].0;
            let hops = self.group(&(at..run.end), n);
            at = hops.end;
            if !self.tick() {
                break;
            }
            if n == self.dst || self.path.contains(&n) {
                continue; // simple paths; the target only at the end
            }
            if depth + 1 == len {
                // `n` is the last interior vertex: it must neighbour `dst`.
                let last = self.group(into_dst, n);
                if !last.is_empty() {
                    self.path.push(n);
                    self.groups.push(hops);
                    self.emit(last, true);
                    self.groups.pop();
                    self.path.pop();
                }
                continue;
            }
            // The first level that walks this prefix: no path through it
            // is shorter, and it is extended only below the last hop.
            let parent = *self.reach.last().expect("reach runs with path");
            let reach = parent.max(depth + self.bound(n).max(2));
            if reach > len {
                continue; // `dst` is out of reach in the hops left
            }
            // Charged on that first walk, unless `n` neighbours `dst`: then
            // `emit` charged it per edge tuple one level down.
            if reach == len && self.group(into_dst, n).is_empty() && !self.charge() {
                break;
            }
            self.path.push(n);
            self.reach.push(reach);
            self.groups.push(hops);
            self.extend(len, into_dst);
            self.groups.pop();
            self.reach.pop();
            self.path.pop();
        }
        self.frontier -= run.len();
    }

    /// Emit the paths along `path` then one of the `last` edges into
    /// `dst` (read from `dst`'s side when `flip`), in descending edge-id
    /// order, until `k` are found. Past the direct edges, each edge tuple
    /// up to the last interior vertex is one expansion of the exhaustive
    /// DFS, and is charged as one.
    fn emit(&mut self, last: Range<usize>, flip: bool) {
        if last.is_empty() {
            return;
        }
        let inner = self.groups.len();
        if inner > 0 && !self.charge() {
            return;
        }
        self.groups.push(last);
        if let Some(p) = self.constraint.require_predicate {
            let steps = &self.steps;
            if !self
                .groups
                .iter()
                .any(|g| steps[g.clone()].iter().any(|s| s.1.pred == p))
            {
                // No edge tuple along `path` carries `p`.
                self.groups.pop();
                return;
            }
        }
        self.odometer.clear();
        self.odometer.extend(self.groups.iter().map(|g| g.end - 1));
        let hop = |this: &Self, i: usize| {
            let h = this.steps[this.odometer[i]].1;
            let flip = flip && i + 1 == this.groups.len();
            Hop {
                forward: h.forward != flip,
                ..h
            }
        };
        loop {
            if inner > 0 && !self.tick() {
                break;
            }
            let admissible = match self.constraint.require_predicate {
                Some(p) => (0..self.groups.len()).any(|i| hop(self, i).pred == p),
                None => true,
            };
            if admissible {
                let mut vertices = Vec::with_capacity(self.path.len() + 1);
                vertices.extend_from_slice(&self.path);
                vertices.push(self.dst);
                let hops: Vec<Hop> = (0..self.groups.len()).map(|i| hop(self, i)).collect();
                self.out.push(RankedPath {
                    score: hops.len() as f64,
                    vertices,
                    hops,
                });
            }
            if self.done() {
                break;
            }
            // Next edge tuple, last hop fastest.
            let Some(i) = (0..self.groups.len())
                .rev()
                .find(|&i| self.odometer[i] > self.groups[i].start)
            else {
                break;
            };
            if i < inner && !self.charge() {
                break;
            }
            self.odometer[i] -= 1;
            for j in i + 1..self.groups.len() {
                self.odometer[j] = self.groups[j].end - 1;
            }
        }
        self.groups.pop();
    }
}

/// Rank by mean degree of intermediate vertices, descending (salience).
pub fn degree_salience_paths<G: GraphView>(
    g: &G,
    src: VertexId,
    dst: VertexId,
    constraint: &PathConstraint,
    cfg: &QaConfig,
) -> Vec<RankedPath> {
    let mut paths = candidates(g, src, dst, constraint, cfg);
    for p in &mut paths {
        let inner = &p.vertices[1..p.vertices.len().saturating_sub(1)];
        p.score = if inner.is_empty() {
            0.0
        } else {
            inner.iter().map(|&v| g.degree(v) as f64).sum::<f64>() / inner.len() as f64
        };
    }
    paths.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("finite")
            .then_with(|| a.len().cmp(&b.len()))
            .then_with(|| a.vertices.cmp(&b.vertices))
    });
    paths.truncate(cfg.k);
    paths
}

/// Rank by random-walk probability `∏ 1/degree(v_i)` over non-target
/// vertices, descending (PRA-style path probability).
pub fn random_walk_paths<G: GraphView>(
    g: &G,
    src: VertexId,
    dst: VertexId,
    constraint: &PathConstraint,
    cfg: &QaConfig,
) -> Vec<RankedPath> {
    let mut paths = candidates(g, src, dst, constraint, cfg);
    for p in &mut paths {
        let mut prob = 1.0f64;
        for &v in &p.vertices[..p.vertices.len() - 1] {
            prob /= g.degree(v).max(1) as f64;
        }
        p.score = prob;
    }
    paths.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("finite")
            .then_with(|| a.vertices.cmp(&b.vertices))
    });
    paths.truncate(cfg.k);
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use nous_graph::{DynamicGraph, Provenance};

    /// The top paths alone.
    fn shortest_paths(
        g: &DynamicGraph,
        src: VertexId,
        dst: VertexId,
        constraint: &PathConstraint,
        cfg: &QaConfig,
    ) -> Vec<RankedPath> {
        shortest_paths_with_stats(g, src, dst, constraint, cfg).0
    }

    /// a→b→d (quiet intermediate) and a→h→d (fat hub), same length.
    fn hubbed() -> (DynamicGraph, VertexId, VertexId, VertexId, VertexId) {
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
        for i in 0..6 {
            let x = g.ensure_vertex(&format!("x{i}"));
            g.add_edge_at(h, p, x, 0, 1.0, Provenance::Curated);
        }
        (g, a, b, h, d)
    }

    #[test]
    fn shortest_prefers_fewest_hops() {
        let (mut g, a, _b, _h, d) = hubbed();
        let p = g.predicate_id("rel").unwrap();
        g.add_edge_at(a, p, d, 0, 1.0, Provenance::Curated);
        let paths = shortest_paths(&g, a, d, &PathConstraint::default(), &QaConfig::default());
        assert_eq!(paths[0].len(), 1);
    }

    #[test]
    fn shortest_is_blind_between_equal_lengths() {
        let (g, a, b, h, d) = hubbed();
        let paths = shortest_paths(&g, a, d, &PathConstraint::default(), &QaConfig::default());
        // Both 2-hop paths rank by vertex id, not meaning: b (id 1) sorts
        // before hub (id 2).
        assert_eq!(paths[0].vertices, vec![a, b, d]);
        assert_eq!(paths[1].vertices, vec![a, h, d]);
        assert_eq!(paths[0].score, paths[1].score);
    }

    #[test]
    fn degree_salience_is_drawn_to_the_hub() {
        let (g, a, _b, h, d) = hubbed();
        let paths =
            degree_salience_paths(&g, a, d, &PathConstraint::default(), &QaConfig::default());
        assert_eq!(paths[0].vertices[1], h, "hub ranks first by salience");
    }

    #[test]
    fn random_walk_prefers_quiet_intermediates() {
        let (g, a, b, _h, d) = hubbed();
        let paths = random_walk_paths(&g, a, d, &PathConstraint::default(), &QaConfig::default());
        assert_eq!(
            paths[0].vertices[1], b,
            "low-degree intermediate has higher walk prob"
        );
        assert!(paths[0].score > paths[1].score);
    }

    #[test]
    fn constraint_applies_to_baselines() {
        let (mut g, a, b, _h, d) = hubbed();
        let q = g.intern_predicate("special");
        g.add_edge_at(b, q, d, 0, 1.0, Provenance::Curated);
        let c = PathConstraint {
            require_predicate: Some(q),
        };
        for paths in [
            shortest_paths(&g, a, d, &c, &QaConfig::default()),
            degree_salience_paths(&g, a, d, &c, &QaConfig::default()),
            random_walk_paths(&g, a, d, &c, &QaConfig::default()),
        ] {
            assert!(!paths.is_empty());
            assert!(paths.iter().all(|p| p.hops.iter().any(|h| h.pred == q)));
        }
    }

    #[test]
    fn expired_deadline_flags_truncation() {
        let (g, a, _b, _h, d) = hubbed();
        let expired = QaConfig {
            deadline: Deadline::expired_now(),
            ..Default::default()
        };
        let (paths, stats) =
            shortest_paths_with_stats(&g, a, d, &PathConstraint::default(), &expired);
        assert!(stats.truncated);
        // Best-so-far paths are still valid endpoints-to-endpoints.
        assert!(paths.iter().all(|p| p.vertices.first() == Some(&a)));
        let (full, full_stats) =
            shortest_paths_with_stats(&g, a, d, &PathConstraint::default(), &QaConfig::default());
        assert!(!full_stats.truncated);
        assert!(full.len() >= paths.len());
    }

    /// Two dense components of `n` vertices, with parallel edges under a
    /// second predicate; `bridge` adds one edge between them. Returns the
    /// graph and a vertex in each component.
    fn dense_pair(n: u32, bridge: bool) -> (DynamicGraph, VertexId, VertexId) {
        let mut g = DynamicGraph::new();
        let p = g.intern_predicate("rel");
        let q = g.intern_predicate("alt");
        let side = |g: &mut DynamicGraph, tag: &str| -> Vec<VertexId> {
            let vs: Vec<VertexId> = (0..n)
                .map(|i| g.ensure_vertex(&format!("{tag}{i}")))
                .collect();
            for i in 0..n {
                for j in i + 1..n {
                    if (i * j + i + j) % 3 != 0 {
                        g.add_edge_at(
                            vs[i as usize],
                            p,
                            vs[j as usize],
                            0,
                            1.0,
                            Provenance::Curated,
                        );
                    }
                    if (i + j) % 5 == 0 {
                        g.add_edge_at(
                            vs[j as usize],
                            q,
                            vs[i as usize],
                            0,
                            1.0,
                            Provenance::Curated,
                        );
                    }
                }
            }
            vs
        };
        let a = side(&mut g, "a");
        let b = side(&mut g, "b");
        if bridge {
            g.add_edge_at(
                a[n as usize - 1],
                p,
                b[n as usize - 1],
                0,
                1.0,
                Provenance::Curated,
            );
        }
        (g, a[0], b[0])
    }

    #[test]
    fn charges_each_prefix_as_the_enumeration_expands_it() {
        // a - u0..u2 - w0..w2 - d, consecutive layers fully joined, with a
        // parallel edge a-u0. Under MAX 3 nothing is pruned, and every
        // prefix the enumeration expands is walked and charged: (a, u) once
        // on level 3, and (a, u, w), whose `w` neighbours `d`, per edge
        // tuple when its paths are emitted.
        let mut g = DynamicGraph::new();
        let p = g.intern_predicate("rel");
        let q = g.intern_predicate("alt");
        let a = g.ensure_vertex("a");
        let d = g.ensure_vertex("d");
        let us: Vec<VertexId> = (0..3).map(|i| g.ensure_vertex(&format!("u{i}"))).collect();
        let ws: Vec<VertexId> = (0..3).map(|i| g.ensure_vertex(&format!("w{i}"))).collect();
        for &u in &us {
            g.add_edge_at(a, p, u, 0, 1.0, Provenance::Curated);
            for &w in &ws {
                g.add_edge_at(u, p, w, 0, 1.0, Provenance::Curated);
            }
        }
        g.add_edge_at(us[0], q, a, 0, 1.0, Provenance::Curated);
        for &w in &ws {
            g.add_edge_at(w, p, d, 0, 1.0, Provenance::Curated);
        }
        let cfg = QaConfig {
            max_hops: 3,
            beam: usize::MAX,
            budget: 20_000,
            k: 100,
            ..Default::default()
        };
        let none = PathConstraint::default();
        let mut dfs = SearchStats::default();
        let all = crate::path::enumerate_paths_with_stats(
            &g,
            a,
            d,
            cfg.max_hops,
            cfg.budget,
            &none,
            |_, steps| steps,
            &mut dfs,
        );
        let (paths, stats) = shortest_paths_with_stats(&g, a, d, &none, &cfg);
        assert_eq!(paths.len(), all.len());
        // The enumeration expands each edge variant: (a, u) 4, (a, u, w)
        // 4 × 3. The search charges (a, u) per vertex, 3.
        assert_eq!(dfs.nodes_expanded, 4 + 12);
        assert_eq!(stats.nodes_expanded, 3 + 12, "{stats:?}");
    }

    #[test]
    fn budget_and_deadline_bound_long_searches_in_dense_graphs() {
        let cfg = QaConfig {
            max_hops: 8,
            beam: usize::MAX,
            budget: 500,
            k: 100_000,
            ..Default::default()
        };
        let expired = QaConfig {
            deadline: Deadline::expired_now(),
            ..cfg.clone()
        };
        let none = PathConstraint::default();
        // Different components: the distance search exhausts `b`'s side
        // and rules out every step, so nothing is extended.
        let (g, a, b) = dense_pair(16, false);
        let (paths, stats) = shortest_paths_with_stats(&g, a, b, &none, &cfg);
        assert!(paths.is_empty());
        assert!(stats.nodes_expanded <= 16, "{stats:?}");
        assert!(!stats.truncated);
        let (paths, stats) = shortest_paths_with_stats(&g, a, b, &none, &expired);
        assert!(paths.is_empty() && stats.truncated, "{stats:?}");

        // One bridge: millions of simple paths up to 8 hops, cut by the
        // budget (and by an expired deadline) to a ranked prefix.
        let (g, a, b) = dense_pair(16, true);
        let (paths, stats) = shortest_paths_with_stats(&g, a, b, &none, &cfg);
        assert!(stats.nodes_expanded <= 2 * cfg.budget, "{stats:?}");
        assert!(!paths.is_empty() && paths.len() < cfg.k, "{}", paths.len());
        assert!(paths.windows(2).all(|w| w[0].len() <= w[1].len()));
        let (cut, cut_stats) = shortest_paths_with_stats(&g, a, b, &none, &expired);
        assert!(cut_stats.truncated && cut.is_empty(), "{cut_stats:?}");
        // A predicate no edge carries: still bounded.
        let mut g = g;
        let never = g.intern_predicate("never");
        let only = PathConstraint {
            require_predicate: Some(never),
        };
        let (paths, stats) = shortest_paths_with_stats(&g, a, b, &only, &cfg);
        assert!(paths.is_empty());
        assert!(stats.nodes_expanded <= 2 * cfg.budget, "{stats:?}");
    }

    #[test]
    fn k_truncation() {
        let (g, a, _b, _h, d) = hubbed();
        let cfg = QaConfig {
            k: 1,
            ..Default::default()
        };
        assert_eq!(
            shortest_paths(&g, a, d, &PathConstraint::default(), &cfg).len(),
            1
        );
    }
}
