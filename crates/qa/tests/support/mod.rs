//! Oracles for the serving path searches: the algorithms as they stood
//! before the searches were rewritten to cost per distinct vertex, kept
//! verbatim in spirit — every half cloned, every candidate joined and
//! scored, the whole list sorted — so the rewrites can be checked against
//! them on generated graphs.

use nous_graph::{FxHashMap, GraphView, LayeredSnapshot, VertexId};
use nous_qa::path::{enumerate_paths_with_stats, Hop};
use nous_qa::{PathConstraint, QaConfig, RankedPath, SearchStats, TopicIndex};
use nous_topics::kl_divergence;

/// Jensen–Shannon divergence with the midpoint materialised.
fn js(p: &[f64], q: &[f64]) -> f64 {
    let m: Vec<f64> = p.iter().zip(q).map(|(a, b)| 0.5 * (a + b)).collect();
    0.5 * kl_divergence(p, &m) + 0.5 * kl_divergence(q, &m)
}

/// Undirected steps of `v`, by (neighbour, edge id).
fn neighbor_steps(g: &LayeredSnapshot, v: VertexId) -> Vec<(VertexId, Hop)> {
    let mut out = Vec::new();
    g.for_each_out(v, |a| {
        out.push((
            a.other,
            Hop {
                pred: a.pred,
                edge: a.edge,
                forward: true,
            },
        ))
    });
    g.for_each_in(v, |a| {
        out.push((
            a.other,
            Hop {
                pred: a.pred,
                edge: a.edge,
                forward: false,
            },
        ))
    });
    out.sort_unstable_by_key(|(n, h)| (n.0, h.edge.0));
    out
}

/// Keep the `beam` steps least divergent from `guide`: key every step,
/// stable-sort descending, keep the tail (the DFS pops from the back).
fn prune(
    topics: &TopicIndex,
    beam: usize,
    guide: &[f64],
    steps: Vec<(VertexId, Hop)>,
) -> Vec<(VertexId, Hop)> {
    if beam == usize::MAX || steps.len() <= beam {
        return steps;
    }
    let mut keyed: Vec<(f64, (VertexId, Hop))> = steps
        .into_iter()
        .map(|s| (js(topics.get(s.0), guide), s))
        .collect();
    keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("divergence is finite"));
    let cut = keyed.len() - beam;
    keyed.split_off(cut).into_iter().map(|(_, s)| s).collect()
}

fn coherence(topics: &TopicIndex, path: &[VertexId]) -> f64 {
    if path.len() < 2 {
        return 0.0;
    }
    let total: f64 = path
        .windows(2)
        .map(|w| js(topics.get(w[0]), topics.get(w[1])))
        .sum();
    total / (path.len() - 1) as f64
}

/// Score everything, sort everything by (divergence, length, vertices,
/// edge ids), keep `k`.
fn rank(topics: &TopicIndex, mut paths: Vec<RankedPath>, k: usize) -> Vec<RankedPath> {
    for p in &mut paths {
        p.score = coherence(topics, &p.vertices);
    }
    paths.sort_by(|a, b| {
        a.score
            .partial_cmp(&b.score)
            .expect("finite scores")
            .then_with(|| a.len().cmp(&b.len()))
            .then_with(|| a.vertices.cmp(&b.vertices))
            .then_with(|| {
                a.hops
                    .iter()
                    .map(|h| h.edge.0)
                    .cmp(b.hops.iter().map(|h| h.edge.0))
            })
    });
    paths.truncate(k);
    paths
}

struct Half {
    vertices: Vec<VertexId>,
    hops: Vec<Hop>,
}

enum HalfRule {
    Forward { dst: VertexId },
    Backward { src: VertexId },
}

#[allow(clippy::too_many_arguments)]
fn collect_halves(
    g: &LayeredSnapshot,
    topics: &TopicIndex,
    root: VertexId,
    rule: HalfRule,
    depth_max: usize,
    cfg: &QaConfig,
    guide: &[f64],
    expansions: &mut usize,
    stats: &mut SearchStats,
) -> Vec<Half> {
    let mut out = Vec::new();
    if depth_max == 0 {
        return out;
    }
    let mut vstack = vec![root];
    let mut hstack: Vec<Hop> = Vec::new();
    let first = prune(topics, cfg.beam, guide, neighbor_steps(g, root));
    let mut frontier = first.len();
    stats.max_frontier = stats.max_frontier.max(frontier);
    let mut frames = vec![first];
    while let Some(frame) = frames.last_mut() {
        let Some((next, hop)) = frame.pop() else {
            frames.pop();
            vstack.pop();
            hstack.pop();
            continue;
        };
        frontier -= 1;
        match rule {
            HalfRule::Forward { dst } if next == dst => {
                if hstack.is_empty() {
                    out.push(Half {
                        vertices: vec![root, dst],
                        hops: vec![hop],
                    });
                }
                continue;
            }
            HalfRule::Backward { src } if next == src => continue,
            _ => {}
        }
        if vstack.contains(&next) {
            continue;
        }
        let mut vertices = vstack.clone();
        vertices.push(next);
        let mut hops = hstack.clone();
        hops.push(hop);
        let depth = hops.len();
        out.push(Half { vertices, hops });
        if depth >= depth_max || *expansions >= cfg.budget {
            continue;
        }
        *expansions += 1;
        vstack.push(next);
        hstack.push(hop);
        let steps = prune(topics, cfg.beam, guide, neighbor_steps(g, next));
        frontier += steps.len();
        stats.max_frontier = stats.max_frontier.max(frontier);
        frames.push(steps);
    }
    out
}

/// The WHY search as it was: the look-ahead DFS below 2 hops, otherwise
/// both sweeps' halves cloned, every compatible pair joined, every
/// candidate scored and the full list sorted. `coherence_evals` is left
/// at zero: the old accounting counted differently.
pub fn why(
    g: &LayeredSnapshot,
    topics: &TopicIndex,
    src: VertexId,
    dst: VertexId,
    constraint: &PathConstraint,
    cfg: &QaConfig,
) -> (Vec<RankedPath>, SearchStats) {
    let mut stats = SearchStats::default();
    if cfg.max_hops < 2 {
        let target = topics.get(dst).to_vec();
        let paths = enumerate_paths_with_stats(
            g,
            src,
            dst,
            cfg.max_hops,
            cfg.budget,
            constraint,
            |_, steps| prune(topics, cfg.beam, &target, steps),
            &mut stats,
        );
        return (rank(topics, paths, cfg.k), stats);
    }
    let mut paths = Vec::new();
    if src != dst {
        let mut expansions = 0usize;
        let fwd = collect_halves(
            g,
            topics,
            src,
            HalfRule::Forward { dst },
            cfg.max_hops.div_ceil(2),
            cfg,
            topics.get(dst),
            &mut expansions,
            &mut stats,
        );
        let mut bwd = vec![Half {
            vertices: vec![dst],
            hops: Vec::new(),
        }];
        bwd.extend(collect_halves(
            g,
            topics,
            dst,
            HalfRule::Backward { src },
            cfg.max_hops / 2,
            cfg,
            topics.get(src),
            &mut expansions,
            &mut stats,
        ));
        stats.nodes_expanded += expansions;
        let mut by_meet: FxHashMap<VertexId, Vec<usize>> = FxHashMap::default();
        for (idx, h) in bwd.iter().enumerate() {
            by_meet
                .entry(*h.vertices.last().expect("halves are non-empty"))
                .or_default()
                .push(idx);
        }
        for f in &fwd {
            let i = f.hops.len();
            let meet = *f.vertices.last().expect("halves are non-empty");
            let Some(list) = by_meet.get(&meet) else {
                continue;
            };
            for &bi in list {
                let b = &bwd[bi];
                let j = b.hops.len();
                if j != i && j + 1 != i {
                    continue;
                }
                if b.vertices[..j].iter().any(|v| f.vertices.contains(v)) {
                    continue;
                }
                let mut vertices = f.vertices.clone();
                vertices.extend(b.vertices[..j].iter().rev());
                let mut hops = f.hops.clone();
                hops.extend(b.hops.iter().rev().map(|h| Hop {
                    pred: h.pred,
                    edge: h.edge,
                    forward: !h.forward,
                }));
                if constraint.satisfied_by(&hops) {
                    paths.push(RankedPath {
                        vertices,
                        hops,
                        score: 0.0,
                    });
                }
            }
        }
        stats.paths_emitted += paths.len();
    }
    (rank(topics, paths, cfg.k), stats)
}

/// The PATHS search as it was: every simple path by exhaustive DFS, a
/// stable sort by (length, vertices) — parallel-edge ties left in DFS
/// emission order — cut to `k`.
pub fn paths(
    g: &LayeredSnapshot,
    src: VertexId,
    dst: VertexId,
    constraint: &PathConstraint,
    cfg: &QaConfig,
) -> (Vec<RankedPath>, SearchStats) {
    let mut stats = SearchStats::default();
    let mut paths = enumerate_paths_with_stats(
        g,
        src,
        dst,
        cfg.max_hops,
        cfg.budget,
        constraint,
        |_, steps| steps,
        &mut stats,
    );
    for p in &mut paths {
        p.score = p.len() as f64;
    }
    paths.sort_by(|a, b| {
        a.len()
            .cmp(&b.len())
            .then_with(|| a.vertices.cmp(&b.vertices))
    });
    paths.truncate(cfg.k);
    (paths, stats)
}
