//! Query execution against the live system state.
//!
//! One executor, [`execute`], answers every query class against a
//! published [`LayeredSnapshot`]; [`QueryOptions`] switches on a
//! deadline, telemetry and a parent trace, each off by default.
//! [`execute_shared`] and
//! [`execute_shared_with`] serve a [`SharedSession`] through it on the
//! lock-free path: every class reads the session's epoch-swapped
//! [`nous_core::FrozenSnapshot`], so no KG lock is touched and ingestion
//! never stalls analysts (and vice versa). Only the `TRENDING` class
//! serialises, on the trend-monitor mutex, because the miner's
//! closed-pattern query mutates cached state.

use crate::ast::{Endpoint, Query, QueryResponse, QueryResult};
use nous_core::{entity_summary_view, SharedSession, TrendMonitor};
use nous_fault::Deadline;
use nous_graph::{GraphView, LayeredSnapshot, VertexId};
use nous_link::AliasResolver;
use nous_obs::{ActiveSpan, MetricsRegistry, TraceContext};
use nous_qa::baselines::shortest_paths_with_stats;
use nous_qa::{
    coherent_paths_with_stats, record_search, PathConstraint, QaConfig, RankedPath, SearchStats,
    TopicIndex,
};

/// What [`execute`] does besides answering. Every option is off by
/// default, so `&QueryOptions::default()` answers and nothing else.
#[derive(Clone, Copy, Default)]
pub struct QueryOptions<'a> {
    /// Wall-clock budget. On expiry the response is flagged `partial`;
    /// [`execute`] lists what each class returns then.
    pub deadline: Deadline,
    /// Per-class telemetry: `nous_query_total{class}`,
    /// `nous_query_seconds{class}` (exemplar-linked to the trace),
    /// `nous_query_deadline_exceeded_total{class}`, and the `nous_qa_*`
    /// search accounting for the path classes.
    pub registry: Option<&'a MetricsRegistry>,
    /// The trace to nest under: each class opens its child spans here and
    /// the path classes annotate theirs with their search accounting.
    pub trace: Option<&'a TraceContext>,
}

fn resolve(g: &LayeredSnapshot, resolver: &AliasResolver, name: &str) -> Option<VertexId> {
    g.vertex_id(name)
        .or_else(|| resolver.resolve(name).map(|r| VertexId(r.id)))
}

fn endpoint_matches(g: &LayeredSnapshot, ep: &Endpoint, v: VertexId) -> bool {
    match ep {
        Endpoint::Any => true,
        Endpoint::Type(t) => g.label(v).is_some_and(|l| l.eq_ignore_ascii_case(t)),
        Endpoint::Constant(name) => g.vertex_name(v).eq_ignore_ascii_case(name),
    }
}

/// The answer of a path class: its search accounting as typed span
/// attributes (pushed directly, so the tracing hot path formats nothing)
/// and into the `nous_qa_*` family, and the paths rendered.
fn path_answer(
    g: &LayeredSnapshot,
    paths: Vec<RankedPath>,
    stats: SearchStats,
    mut span: ActiveSpan,
    registry: Option<&MetricsRegistry>,
) -> (QueryResult, bool) {
    span.attr("nodes_expanded", stats.nodes_expanded);
    span.attr("max_frontier", stats.max_frontier);
    span.attr("paths_emitted", stats.paths_emitted);
    span.attr("coherence_evals", stats.coherence_evals);
    span.attr("truncated", stats.truncated);
    drop(span);
    if let Some(reg) = registry {
        record_search(reg, &stats);
    }
    (
        QueryResult::Paths(paths.into_iter().map(|p| (p.render(g), p.score)).collect()),
        stats.truncated,
    )
}

/// The metric label for a query's class (`nous_query_*{class=...}`).
pub fn query_class(q: &Query) -> &'static str {
    match q {
        Query::Trending { .. } => "trending",
        Query::Entity { .. } => "entity",
        Query::Why { .. } => "why",
        Query::Match { .. } => "match",
        Query::Timeline { .. } => "timeline",
        Query::Paths { .. } => "paths",
    }
}

/// Execute a parsed query against a published snapshot: the session's
/// served one, or [`LayeredSnapshot::freeze`] of a graph. `resolver` is
/// the entity-name fallback, `topics` feeds `WHY`, and `trends` feeds
/// `TRENDING`: passing `None` makes that class answer empty, so lock-free
/// callers route it through the trend-monitor mutex themselves.
///
/// Per-class degradation when `opts.deadline` expires mid-execution:
///
/// - `TRENDING` — the pattern list stops where rendering got to.
/// - `WHY` / `PATHS` — the path search returns best-so-far candidates,
///   scored and ranked normally.
/// - `MATCH` — the scan stops: `total` is a lower bound and `sample`
///   may be short.
/// - `ENTITY` / `TIMELINE` — never partial: their work is bounded by
///   one entity's degree, so they always run to completion.
pub fn execute(
    query: &Query,
    g: &LayeredSnapshot,
    resolver: &AliasResolver,
    topics: &TopicIndex,
    trends: Option<&mut TrendMonitor>,
    opts: &QueryOptions,
) -> QueryResponse {
    let class = query_class(query);
    let disabled = TraceContext::disabled();
    let ctx = opts.trace.unwrap_or(&disabled);
    let span = opts.registry.map(|reg| {
        reg.counter_with(
            "nous_query_total",
            "Queries executed per class",
            &[("class", class)],
        )
        .inc();
        reg.span_with(
            "nous_query_seconds",
            "Query execution wall time per class",
            &[("class", class)],
        )
        .with_exemplar(ctx.trace_id())
    });
    let (result, partial) = answer(query, g, resolver, topics, trends, opts, ctx);
    if let Some(reg) = opts.registry {
        if partial {
            reg.counter_with(
                "nous_query_deadline_exceeded_total",
                "Queries whose deadline expired mid-execution (partial result returned)",
                &[("class", class)],
            )
            .inc();
        }
    }
    if let Some(span) = span {
        span.stop();
    }
    QueryResponse { result, partial }
}

/// Execute against a live [`SharedSession`] — the entry point the demo's
/// query services call per request — with no deadline. Telemetry lands in
/// the session's registry; see [`execute_shared_with`].
pub fn execute_shared(session: &SharedSession, query: &Query) -> QueryResult {
    execute_shared_with(session, query, &QueryOptions::default()).result
}

/// [`execute`] on the session's published frozen snapshot, which serves
/// every class without touching the KG lock; only `TRENDING` additionally
/// takes the trend-monitor mutex. Snapshot staleness is recorded on
/// `nous_snapshot_age_nanos` at acquisition.
///
/// Telemetry always runs, into `opts.registry` or, when that is `None`,
/// the session's registry. Each query is one trace: a `query` span under
/// an enabled `opts.trace` (the HTTP layer's per-request root, so one
/// trace shows the wire handling and the execution it triggered), else a
/// fresh root trace, which sends slow requests to the flight recorder's
/// slow log under "query".
pub fn execute_shared_with(
    session: &SharedSession,
    query: &Query,
    opts: &QueryOptions,
) -> QueryResponse {
    let registry = opts.registry.unwrap_or(session.metrics());
    let snap = session.frozen();
    // The root span carries the class, the served epoch and its layer
    // depth; the partial flag lands once the class executor reports back.
    let mut root = match opts.trace {
        Some(parent) if parent.is_enabled() => parent.child("query"),
        _ => registry.trace("query"),
    };
    root.attr("class", query_class(query));
    root.attr("epoch", snap.epoch);
    if root.is_enabled() {
        let ms = snap.view.merge_stats();
        root.attr("nous_snapshot_layers", ms.layers);
        root.attr("overlay_edges", ms.overlay_edges);
        root.attr("tombstones", ms.tombstones);
        root.attr("delta_permille", ms.delta_permille());
    }
    let ctx = root.context();
    let opts = QueryOptions {
        deadline: opts.deadline,
        registry: Some(registry),
        trace: Some(&ctx),
    };
    let run = |trends: Option<&mut TrendMonitor>| {
        execute(
            query,
            &snap.view,
            &snap.disambiguator,
            &snap.topics,
            trends,
            &opts,
        )
    };
    let resp = match query {
        Query::Trending { .. } => session.with_trends_only(|trends| run(Some(trends))),
        _ => run(None),
    };
    root.attr("partial", resp.partial);
    resp
}

/// Every class's answer and whether the deadline cut it short.
fn answer(
    query: &Query,
    g: &LayeredSnapshot,
    resolver: &AliasResolver,
    topics: &TopicIndex,
    trends: Option<&mut TrendMonitor>,
    opts: &QueryOptions,
    ctx: &TraceContext,
) -> (QueryResult, bool) {
    let deadline = &opts.deadline;
    match query {
        Query::Trending { limit } => {
            let _span = ctx.child("trending");
            let (trends, partial) = trends
                .map(|tm| tm.trending_on_deadline(g, deadline))
                .unwrap_or((Vec::new(), false));
            let mut items: Vec<(String, u32)> = trends
                .into_iter()
                .map(|t| (t.description, t.support))
                .collect();
            items.truncate(*limit);
            (QueryResult::Trending(items), partial)
        }

        Query::Entity { name } => {
            let _span = ctx.child("summary");
            match entity_summary_view(g, resolver, name) {
                None => (QueryResult::NotFound(name.clone()), false),
                Some(s) => (
                    QueryResult::Entity {
                        name: s.name,
                        entity_type: s.entity_type,
                        degree: s.degree,
                        facts: s
                            .facts
                            .into_iter()
                            .map(|(f, c, _, cur)| (f, c, cur))
                            .collect(),
                        neighbors: s.neighbors,
                    },
                    false,
                ),
            }
        }

        Query::Why {
            source,
            target,
            via,
            limit,
        } => {
            let Some(src) = resolve(g, resolver, source) else {
                return (QueryResult::NotFound(source.clone()), false);
            };
            let Some(dst) = resolve(g, resolver, target) else {
                return (QueryResult::NotFound(target.clone()), false);
            };
            let constraint = PathConstraint {
                require_predicate: via.as_deref().and_then(|p| g.predicate_id(p)),
            };
            if let Some(v) = via {
                if g.predicate_id(v).is_none() {
                    return (QueryResult::NotFound(format!("predicate {v}")), false);
                }
            }
            let cfg = QaConfig {
                k: *limit,
                deadline: *deadline,
                ..Default::default()
            };
            let search_span = ctx.child("search");
            let path_span = opts.registry.map(|reg| {
                reg.span_with(
                    "nous_qa_path_seconds",
                    "Wall time of one top-K coherent path search",
                    &[],
                )
            });
            let (paths, stats) = coherent_paths_with_stats(g, topics, src, dst, &constraint, &cfg);
            if let Some(span) = path_span {
                span.stop();
            }
            path_answer(g, paths, stats, search_span, opts.registry)
        }

        Query::Match {
            src,
            predicate,
            dst,
            limit,
            since,
            until,
        } => {
            let Some(pred) = g.predicate_id(predicate) else {
                return (
                    QueryResult::NotFound(format!("predicate {predicate}")),
                    false,
                );
            };
            let mut scan_span = ctx.child("scan");
            let mut total = 0usize;
            let mut sample = Vec::new();
            let mut partial = false;
            let mut seen = 0usize;
            // Predicate postings serve the scan in edge-log order however
            // the snapshot's layers are stacked, so the sample does not
            // depend on them. The deadline is polled every 1024 postings
            // (starting at the first, so an already-expired budget stops
            // immediately); on expiry the scan breaks out of the postings
            // walk at once and `total` becomes a lower bound.
            let _ = g.for_each_with_pred(pred, |_, e| {
                seen += 1;
                if seen & 1023 == 1 && deadline.expired() {
                    partial = true;
                    return std::ops::ControlFlow::Break(());
                }
                if !endpoint_matches(g, src, e.src)
                    || !endpoint_matches(g, dst, e.dst)
                    || since.is_some_and(|d| e.at < d)
                    || until.is_some_and(|d| e.at > d)
                {
                    return std::ops::ControlFlow::Continue(());
                }
                total += 1;
                if sample.len() < *limit {
                    sample.push(format!(
                        "{} -[{}]-> {} ({:.2}, {})",
                        g.vertex_name(e.src),
                        predicate,
                        g.vertex_name(e.dst),
                        e.confidence,
                        e.provenance.tag(),
                    ));
                }
                std::ops::ControlFlow::Continue(())
            });
            scan_span.attr("postings_seen", seen);
            scan_span.attr("matched", total);
            drop(scan_span);
            (QueryResult::Matches { total, sample }, partial)
        }

        Query::Timeline { name, limit } => {
            let _span = ctx.child("timeline");
            let Some(v) = resolve(g, resolver, name) else {
                return (QueryResult::NotFound(name.clone()), false);
            };
            // Collect both directions, then order by (direction, edge id)
            // so the stable (at, text) sort below resolves exact ties in
            // log order rather than the snapshot's predicate-segmented
            // adjacency order.
            let mut adjs: Vec<(nous_graph::Adj, bool)> = Vec::new();
            g.for_each_out(v, |adj| adjs.push((adj, true)));
            g.for_each_in(v, |adj| adjs.push((adj, false)));
            adjs.sort_by_key(|(adj, outgoing)| (!*outgoing, adj.edge.0));
            let mut items: Vec<(u64, String, f32)> = adjs
                .into_iter()
                .map(|(adj, outgoing)| {
                    let e = g.edge(adj.edge);
                    let (from, to) = if outgoing {
                        (v, adj.other)
                    } else {
                        (adj.other, v)
                    };
                    let text = format!(
                        "{} -[{}]-> {}",
                        g.vertex_name(from),
                        g.predicate_name(adj.pred),
                        g.vertex_name(to)
                    );
                    (e.at, text, e.confidence)
                })
                .collect();
            items.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            // Keep the *latest* `limit` events (still rendered in
            // ascending order): a busy entity's timeline should show its
            // recent activity, not its oldest.
            if items.len() > *limit {
                items.drain(..items.len() - *limit);
            }
            (QueryResult::Timeline(items), false)
        }

        Query::Paths {
            source,
            target,
            max_hops,
            limit,
        } => {
            let Some(src) = resolve(g, resolver, source) else {
                return (QueryResult::NotFound(source.clone()), false);
            };
            let Some(dst) = resolve(g, resolver, target) else {
                return (QueryResult::NotFound(target.clone()), false);
            };
            let cfg = QaConfig {
                k: *limit,
                max_hops: *max_hops,
                deadline: *deadline,
                ..Default::default()
            };
            let search_span = ctx.child("search");
            let (paths, stats) =
                shortest_paths_with_stats(g, src, dst, &PathConstraint::default(), &cfg);
            path_answer(g, paths, stats, search_span, opts.registry)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use nous_core::KnowledgeGraph;
    use nous_graph::window::WindowKind;
    use nous_mining::{EvictionStrategy, MinerConfig};
    use nous_text::ner::EntityType;

    /// A small hand-built system: 3 companies in a motif, topics assigned.
    fn session() -> (KnowledgeGraph, TopicIndex, TrendMonitor) {
        let mut kg = KnowledgeGraph::new();
        let a = kg.create_entity("Apex Robotics", EntityType::Organization);
        let b = kg.create_entity("Condor Labs", EntityType::Organization);
        let c = kg.create_entity("Falcon Systems", EntityType::Organization);
        let hub = kg.create_entity("Mega Hub", EntityType::Organization);
        for i in 0..3 {
            // Repeat the acquisition motif so it trends.
            let x = kg.create_entity(&format!("X{i}"), EntityType::Organization);
            let y = kg.create_entity(&format!("Y{i}"), EntityType::Organization);
            kg.add_extracted_fact(x, "acquired", y, i, 0.9, i);
        }
        kg.add_extracted_fact(a, "partneredWith", b, 10, 0.9, 9);
        kg.add_extracted_fact(b, "investedIn", c, 11, 0.8, 9);
        kg.add_extracted_fact(a, "competesWith", hub, 12, 0.7, 9);
        kg.add_extracted_fact(hub, "partneredWith", c, 13, 0.7, 9);

        let mut topics = TopicIndex::new(2);
        let t = |v: VertexId, x: f64| (v, vec![x, 1.0 - x]);
        for (v, d) in [t(a, 0.9), t(b, 0.85), t(c, 0.9), t(hub, 0.1)] {
            let mut idx_d = d;
            let sum: f64 = idx_d.iter().sum();
            idx_d.iter_mut().for_each(|x| *x /= sum);
            topics.set(v, idx_d);
        }

        let mut trends = TrendMonitor::new(
            WindowKind::Count { n: 100 },
            MinerConfig {
                k_max: 1,
                min_support: 3,
                eviction: EvictionStrategy::Eager,
            },
        );
        trends.observe(&kg);
        (kg, topics, trends)
    }

    /// [`execute`] on a fresh snapshot of the graph under `opts`.
    fn exec(
        q: &Query,
        (kg, topics, trends): &mut (KnowledgeGraph, TopicIndex, TrendMonitor),
        opts: &QueryOptions,
    ) -> QueryResponse {
        let resolver = kg.disambiguator.served();
        let view = LayeredSnapshot::freeze(&kg.graph);
        execute(q, &view, resolver, topics, Some(trends), opts)
    }

    fn run(q: &str) -> QueryResult {
        exec(&parse(q).unwrap(), &mut session(), &QueryOptions::default()).result
    }

    #[test]
    fn trending_query_reports_motif() {
        let r = run("TRENDING LIMIT 5");
        let QueryResult::Trending(items) = r else {
            panic!("wrong variant: {r:?}")
        };
        assert!(
            items.iter().any(|(d, s)| d.contains("acquired") && *s == 3),
            "{items:?}"
        );
    }

    #[test]
    fn entity_query() {
        let r = run("tell me about Apex Robotics");
        let QueryResult::Entity {
            name,
            degree,
            facts,
            ..
        } = r
        else {
            panic!("wrong variant: {r:?}")
        };
        assert_eq!(name, "Apex Robotics");
        assert_eq!(degree, 2);
        assert!(facts.iter().any(|(f, _, _)| f.contains("partneredWith")));
    }

    #[test]
    fn why_query_prefers_coherent_path() {
        let r = run("WHY Apex Robotics -> Falcon Systems LIMIT 2");
        let QueryResult::Paths(paths) = r else {
            panic!("wrong variant: {r:?}")
        };
        assert!(!paths.is_empty());
        assert!(
            paths[0].0.contains("Condor Labs"),
            "coherent path through Condor Labs should rank first: {paths:?}"
        );
    }

    #[test]
    fn why_with_predicate_constraint() {
        let r = run("WHY Apex Robotics -> Falcon Systems VIA investedIn");
        let QueryResult::Paths(paths) = r else {
            panic!("wrong variant: {r:?}")
        };
        assert!(paths.iter().all(|(p, _)| p.contains("investedIn")));
        let r2 = run("WHY Apex Robotics -> Falcon Systems VIA noSuchPred");
        assert!(matches!(r2, QueryResult::NotFound(_)));
    }

    #[test]
    fn match_query_counts_and_samples() {
        let r = run("MATCH (Organization)-[acquired]->(Organization) LIMIT 2");
        let QueryResult::Matches { total, sample } = r else {
            panic!("wrong variant: {r:?}")
        };
        assert_eq!(total, 3);
        assert_eq!(sample.len(), 2);
        let r2 = run("MATCH (*)-[acquired]->(\"Y0\")");
        let QueryResult::Matches { total, .. } = r2 else {
            panic!()
        };
        assert_eq!(total, 1);
    }

    #[test]
    fn paths_query_enumerates() {
        let r = run("PATHS Apex Robotics TO Falcon Systems MAX 3");
        let QueryResult::Paths(paths) = r else {
            panic!("wrong variant: {r:?}")
        };
        assert_eq!(paths.len(), 2, "via Condor Labs and via Mega Hub");
    }

    #[test]
    fn timeline_is_chronological() {
        let r = run("TIMELINE Apex Robotics");
        let QueryResult::Timeline(items) = r else {
            panic!("wrong variant: {r:?}")
        };
        assert_eq!(items.len(), 2, "partneredWith(t=10) and competesWith(t=12)");
        assert!(items.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(items[0].0, 10);
        assert!(items[0].1.contains("partneredWith"));
        // Natural-language phrasing parses to the same class.
        let r2 = run("what happened to Condor Labs");
        assert!(matches!(r2, QueryResult::Timeline(_)));
        assert!(matches!(run("TIMELINE Nobody"), QueryResult::NotFound(_)));
    }

    #[test]
    fn timeline_limit_keeps_latest_events() {
        // Apex Robotics has events at t=10 (partneredWith) and t=12
        // (competesWith); LIMIT 1 must surface the *recent* one, still
        // in ascending render order.
        let r = run("TIMELINE Apex Robotics LIMIT 1");
        let QueryResult::Timeline(items) = r else {
            panic!("wrong variant: {r:?}")
        };
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].0, 12, "kept the latest event: {items:?}");
        assert!(items[0].1.contains("competesWith"), "{items:?}");
    }

    #[test]
    fn match_temporal_window_filters_edges() {
        // Acquisition edges in session() carry timestamps 0, 1, 2.
        let r = run("MATCH (*)-[acquired]->(*) SINCE 1 UNTIL 2");
        let QueryResult::Matches { total, .. } = r else {
            panic!("{r:?}")
        };
        assert_eq!(total, 2);
        let r2 = run("MATCH (*)-[acquired]->(*) SINCE 99");
        let QueryResult::Matches { total, .. } = r2 else {
            panic!()
        };
        assert_eq!(total, 0);
    }

    #[test]
    fn instrumented_execution_counts_query_classes() {
        let mut sys = session();
        let registry = MetricsRegistry::new();
        let opts = QueryOptions {
            registry: Some(&registry),
            ..Default::default()
        };
        for q in [
            "TRENDING LIMIT 5",
            "tell me about Apex Robotics",
            "WHY Apex Robotics -> Falcon Systems LIMIT 2",
            "WHY Apex Robotics -> Falcon Systems LIMIT 1",
            "MATCH (Organization)-[acquired]->(Organization) LIMIT 2",
            "TIMELINE Apex Robotics",
            "PATHS Apex Robotics TO Falcon Systems MAX 3",
        ] {
            exec(&parse(q).unwrap(), &mut sys, &opts);
        }
        for (class, n) in [
            ("trending", 1),
            ("entity", 1),
            ("why", 2),
            ("match", 1),
            ("timeline", 1),
            ("paths", 1),
        ] {
            assert_eq!(
                registry.counter_value("nous_query_total", &[("class", class)]),
                Some(n),
                "class {class}"
            );
        }
        // Both WHY searches and the PATHS baseline land in the qa family.
        assert_eq!(
            registry.counter_value("nous_qa_searches_total", &[]),
            Some(3)
        );
        let text = registry.render_prometheus();
        assert!(
            text.contains("nous_query_seconds_count{class=\"why\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("nous_query_seconds_count{class=\"paths\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("nous_qa_path_seconds_count 2"),
            "only WHY times its search: {text}"
        );
    }

    #[test]
    fn every_option_combination_matches_plain_execution() {
        let mut sys = session();
        let registry = MetricsRegistry::new();
        let tracing = MetricsRegistry::new();
        let _tracer = tracing.enable_tracing(7, 8, 0);
        let root = tracing.trace("query");
        let ctx = root.context();
        let generous = Deadline::within(std::time::Duration::from_secs(60));
        for q in [
            "TRENDING LIMIT 5",
            "tell me about Apex Robotics",
            "WHY Apex Robotics -> Falcon Systems LIMIT 2",
            "MATCH (Organization)-[acquired]->(Organization) LIMIT 2",
            "TIMELINE Apex Robotics",
            "PATHS Apex Robotics TO Falcon Systems MAX 3",
        ] {
            let parsed = parse(q).unwrap();
            let plain = exec(&parsed, &mut sys, &QueryOptions::default()).result;
            for registry in [None, Some(&registry)] {
                for deadline in [Deadline::none(), generous] {
                    for trace in [None, Some(&ctx)] {
                        let opts = QueryOptions {
                            deadline,
                            registry,
                            trace,
                        };
                        let resp = exec(&parsed, &mut sys, &opts);
                        let on = (registry.is_some(), deadline.is_bounded(), trace.is_some());
                        assert!(!resp.partial, "{q} {on:?}");
                        assert_eq!(resp.result, plain, "{q} {on:?}");
                    }
                }
            }
        }
    }

    /// Every class under an expired deadline on `g`: the cut classes are
    /// partial, valid and counted once each; the degree-bounded ones are
    /// complete.
    fn check_expired_deadline(
        g: &LayeredSnapshot,
        resolver: &AliasResolver,
        topics: &TopicIndex,
        trends: &mut TrendMonitor,
    ) {
        let registry = MetricsRegistry::new();
        let opts = QueryOptions {
            deadline: Deadline::expired_now(),
            registry: Some(&registry),
            ..Default::default()
        };
        for (q, class) in [
            ("TRENDING LIMIT 5", "trending"),
            ("WHY Apex Robotics -> Falcon Systems LIMIT 2", "why"),
            ("MATCH (Organization)-[acquired]->(Organization)", "match"),
            ("PATHS Apex Robotics TO Falcon Systems MAX 3", "paths"),
        ] {
            let parsed = parse(q).unwrap();
            let resp = execute(&parsed, g, resolver, topics, Some(&mut *trends), &opts);
            assert!(resp.partial, "{q} should be cut short: {resp:?}");
            // Partial results are valid: the right variant, just not
            // exhaustive.
            match (&parsed, &resp.result) {
                (Query::Trending { .. }, QueryResult::Trending(items)) => {
                    assert!(items.is_empty())
                }
                (Query::Why { .. }, QueryResult::Paths(_)) => {}
                (Query::Match { .. }, QueryResult::Matches { total, .. }) => {
                    assert_eq!(*total, 0)
                }
                (Query::Paths { .. }, QueryResult::Paths(_)) => {}
                other => panic!("wrong variant: {other:?}"),
            }
            assert_eq!(
                registry.counter_value("nous_query_deadline_exceeded_total", &[("class", class)]),
                Some(1),
                "class {class}"
            );
        }
        // Bounded-by-degree classes never go partial, even expired.
        for q in ["tell me about Apex Robotics", "TIMELINE Apex Robotics"] {
            let resp = execute(&parse(q).unwrap(), g, resolver, topics, None, &opts);
            assert!(!resp.partial, "{q}");
        }
    }

    #[test]
    fn expired_deadline_degrades_gracefully_and_counts_per_class() {
        let (mut kg, topics, mut trends) = session();
        let base = LayeredSnapshot::freeze(&kg.graph);
        let id = |name| kg.graph.vertex_id(name).expect("session entity");
        let (a, c) = (id("Apex Robotics"), id("Falcon Systems"));
        kg.add_extracted_fact(a, "acquired", c, 20, 0.9, 10);
        let layered = base.with_overlay(base.capture_delta(&kg.graph));
        assert_eq!(layered.layer_count(), 1, "one overlay on the base");
        let resolver = kg.disambiguator.served();
        let fresh = LayeredSnapshot::freeze(&kg.graph);
        check_expired_deadline(&fresh, resolver, &topics, &mut trends);
        check_expired_deadline(&layered, resolver, &topics, &mut trends);
    }

    #[test]
    fn expired_match_scan_breaks_within_one_poll_interval() {
        // A long single-predicate chain: far more postings than one
        // deadline poll interval (1024). An already-expired deadline must
        // stop the ControlFlow scan at its first poll, not suppress the
        // callback while walking every remaining posting.
        let mut kg = KnowledgeGraph::new();
        let n = 2600usize;
        let mut prev = kg.create_entity("E0", EntityType::Organization);
        for i in 1..=n {
            let v = kg.create_entity(&format!("E{i}"), EntityType::Organization);
            kg.add_extracted_fact(prev, "linksTo", v, i as u64, 0.9, i as u64);
            prev = v;
        }
        let topics = TopicIndex::new(2);
        let registry = MetricsRegistry::new();
        let tracer = registry.enable_tracing(7, 8, 0);
        let parsed = parse("MATCH (*)-[linksTo]->(*)").unwrap();
        let root = registry.trace("query");
        let trace_id = root.trace_id();
        let ctx = root.context();
        let opts = QueryOptions {
            deadline: Deadline::expired_now(),
            registry: Some(&registry),
            trace: Some(&ctx),
        };
        let resp = execute(
            &parsed,
            &LayeredSnapshot::freeze(&kg.graph),
            kg.disambiguator.served(),
            &topics,
            None,
            &opts,
        );
        drop(root);
        assert!(resp.partial, "{resp:?}");
        let trace = tracer.flight().find(trace_id).expect("trace recorded");
        let scan = trace
            .spans
            .iter()
            .find(|s| s.name == "scan")
            .expect("scan span");
        let seen: usize = scan
            .attr("postings_seen")
            .expect("postings_seen attr")
            .parse()
            .expect("numeric");
        assert!(
            seen <= 1024,
            "expired scan must stop within one poll interval, walked {seen} of {n}"
        );
    }

    #[test]
    fn unknown_entities_report_not_found() {
        assert!(matches!(run("ABOUT Nobody Inc"), QueryResult::NotFound(_)));
        assert!(matches!(
            run("WHY Nobody -> Apex Robotics"),
            QueryResult::NotFound(_)
        ));
        assert!(matches!(
            run("MATCH (Organization)-[zzz]->(Organization)"),
            QueryResult::NotFound(_)
        ));
    }
}
