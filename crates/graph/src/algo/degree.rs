//! Degree statistics for the quality dashboard (demo feature 2:
//! "summarization of quality-related statistics … how the structure of the
//! underlying data influence the output quality").

use crate::ids::VertexId;
use crate::layered::LayeredSnapshot;
use crate::view::GraphView;

/// Summary of a graph's (total) degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeSummary {
    pub min: usize,
    pub max: usize,
    pub mean: f64,
    pub median: usize,
    /// Vertices with degree 0 — typically freshly-created entities whose
    /// facts were all rejected by quality control.
    pub isolated: usize,
    /// The highest-degree vertex (hub), if the graph is non-empty.
    pub hub: Option<VertexId>,
}

impl DegreeSummary {
    /// Compute the summary over all vertices of `g`.
    pub fn of(g: &LayeredSnapshot) -> Option<DegreeSummary> {
        if g.vertex_count() == 0 {
            return None;
        }
        let mut degrees: Vec<(usize, VertexId)> = (0..g.vertex_count() as u32)
            .map(VertexId)
            .map(|v| (g.degree(v), v))
            .collect();
        degrees.sort_unstable_by_key(|(d, v)| (*d, v.0));
        let n = degrees.len();
        let sum: usize = degrees.iter().map(|(d, _)| d).sum();
        Some(DegreeSummary {
            min: degrees[0].0,
            max: degrees[n - 1].0,
            mean: sum as f64 / n as f64,
            median: degrees[n / 2].0,
            isolated: degrees.iter().take_while(|(d, _)| *d == 0).count(),
            hub: Some(degrees[n - 1].1),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Provenance;
    use crate::graph::DynamicGraph;

    fn star(n: usize) -> DynamicGraph {
        let mut g = DynamicGraph::new();
        let hub = g.ensure_vertex("hub");
        let p = g.intern_predicate("p");
        for i in 0..n {
            let leaf = g.ensure_vertex(&format!("leaf{i}"));
            g.add_edge_at(hub, p, leaf, 0, 1.0, Provenance::Curated);
        }
        g
    }

    #[test]
    fn star_summary() {
        let g = star(4);
        let s = DegreeSummary::of(&LayeredSnapshot::freeze(&g)).unwrap();
        assert_eq!(s.max, 4);
        assert_eq!(s.min, 1);
        assert_eq!(s.hub, g.vertex_id("hub"));
        assert_eq!(s.isolated, 0);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_has_no_summary() {
        assert!(DegreeSummary::of(&LayeredSnapshot::freeze(&DynamicGraph::new())).is_none());
    }

    #[test]
    fn isolated_counted() {
        let mut g = DynamicGraph::new();
        g.ensure_vertex("a");
        g.ensure_vertex("b");
        let s = DegreeSummary::of(&LayeredSnapshot::freeze(&g)).unwrap();
        assert_eq!(s.isolated, 2);
        assert_eq!(s.max, 0);
    }
}
