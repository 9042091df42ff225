//! Query AST and result types.

use serde::Serialize;

/// A parsed query, one variant per Figure-5 class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Closed frequent patterns in the current window.
    Trending { limit: usize },
    /// Entity summary ("Tell me about DJI", Figure 6).
    Entity { name: String },
    /// Explanatory why-question: top-K coherent paths.
    Why {
        source: String,
        target: String,
        via: Option<String>,
        limit: usize,
    },
    /// Typed-edge pattern match. Endpoints are either a type label
    /// (`Company`) or a quoted entity constant (`"Apex Robotics"`).
    /// `since`/`until` filter on the edge's logical timestamp — queries on
    /// a *dynamic* KG can scope to a time range (`SINCE 1100 UNTIL 1500`).
    Match {
        src: Endpoint,
        predicate: String,
        dst: Endpoint,
        limit: usize,
        since: Option<u64>,
        until: Option<u64>,
    },
    /// Raw path enumeration between two entities.
    Paths {
        source: String,
        target: String,
        max_hops: usize,
        limit: usize,
    },
    /// Chronological fact history of one entity - the dynamic-KG view of
    /// an entity query ("what happened to X over time").
    Timeline { name: String, limit: usize },
}

/// A MATCH endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// Any entity with this type label.
    Type(String),
    /// A specific entity by name.
    Constant(String),
    /// Wildcard.
    Any,
}

/// A [`QueryResult`] plus its degradation flag.
///
/// `partial` is `true` when a serving deadline expired mid-execution and
/// the result is best-so-far rather than complete: a truncated trending
/// list, the paths found before the search was cut short, or an
/// undercounted `MATCH`. The result is always *valid* — every item in it
/// is real — it may just not be exhaustive.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    pub result: QueryResult,
    pub partial: bool,
}

/// Execution result, one variant per query class. Serialised into the
/// HTTP `/query` response.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum QueryResult {
    Trending(Vec<(String, u32)>),
    Entity {
        name: String,
        entity_type: Option<String>,
        degree: usize,
        /// `(fact, confidence, curated?)`, best-first.
        facts: Vec<(String, f32, bool)>,
        neighbors: Vec<String>,
    },
    /// `(rendered path, score)`; for `Why` the score is coherence
    /// divergence (ascending), for `Paths` it is hop count.
    Paths(Vec<(String, f64)>),
    Matches {
        total: usize,
        /// Rendered sample facts, up to the query limit.
        sample: Vec<String>,
    },
    /// `(day, rendered fact, confidence)` in chronological order.
    Timeline(Vec<(u64, String, f32)>),
    /// Entity (or endpoint) could not be resolved.
    NotFound(String),
}

impl QueryResult {
    /// Human-readable rendering for the CLI (demo feature 4).
    pub fn render(&self) -> String {
        match self {
            QueryResult::Trending(items) => {
                if items.is_empty() {
                    return "no trending patterns in the current window".to_owned();
                }
                items
                    .iter()
                    .map(|(p, s)| format!("[support {s}] {p}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            }
            QueryResult::Entity {
                name,
                entity_type,
                degree,
                facts,
                neighbors,
            } => {
                let mut out = format!(
                    "{name} ({}) — degree {degree}\n",
                    entity_type.as_deref().unwrap_or("unknown type")
                );
                for (f, c, curated) in facts.iter().take(12) {
                    let tag = if *curated { "curated" } else { "extracted" };
                    out.push_str(&format!("  [{c:.2} {tag}] {f}\n"));
                }
                if !neighbors.is_empty() {
                    out.push_str(&format!("  related: {}\n", neighbors.join(", ")));
                }
                out
            }
            QueryResult::Paths(paths) => {
                if paths.is_empty() {
                    return "no connecting path found".to_owned();
                }
                paths
                    .iter()
                    .map(|(p, s)| format!("[{s:.4}] {p}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            }
            QueryResult::Matches { total, sample } => {
                let mut out = format!("{total} matches\n");
                for s in sample {
                    out.push_str(&format!("  {s}\n"));
                }
                out
            }
            QueryResult::Timeline(items) => {
                if items.is_empty() {
                    return "no dated facts".to_owned();
                }
                items
                    .iter()
                    .map(|(day, fact, conf)| format!("day {day:>5} [{conf:.2}] {fact}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            }
            QueryResult::NotFound(what) => format!("not found: {what}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_trending_empty_and_full() {
        assert!(QueryResult::Trending(vec![])
            .render()
            .contains("no trending"));
        let r = QueryResult::Trending(vec![("(A)-[p]->(B)".into(), 5)]);
        assert!(r.render().contains("[support 5]"));
    }

    #[test]
    fn render_entity() {
        let r = QueryResult::Entity {
            name: "DJI".into(),
            entity_type: Some("Company".into()),
            degree: 3,
            facts: vec![("DJI -[isLocatedIn]-> Shenzhen".into(), 0.95, true)],
            neighbors: vec!["Shenzhen".into()],
        };
        let s = r.render();
        assert!(s.contains("DJI (Company)"));
        assert!(s.contains("curated"));
        assert!(s.contains("related: Shenzhen"));
    }

    #[test]
    fn render_not_found() {
        assert_eq!(QueryResult::NotFound("X".into()).render(), "not found: X");
    }

    #[test]
    fn queries_compare_structurally() {
        let q = Query::Why {
            source: "A".into(),
            target: "B".into(),
            via: Some("acquired".into()),
            limit: 3,
        };
        assert_eq!(q.clone(), q);
        assert_ne!(q, Query::Trending { limit: 3 });
    }
}
