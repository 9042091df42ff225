//! Edge records and provenance.
//!
//! NOUS's key premise (§1.1) is a *fused* graph: every fact carries where it
//! came from (curated KB vs. extracted from a document — the red/blue split
//! of Figure 2) and a confidence score assigned by the link-prediction module
//! (§3.4). Edges are immutable once appended; the temporal edge log plus
//! tombstones gives the dynamic-graph semantics.

use crate::ids::{PredicateId, Timestamp, VertexId};
use crate::props::PropMap;

/// Where a fact came from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// From the curated knowledge base (YAGO-style) — Figure 2's red edges.
    Curated,
    /// Extracted from an unstructured document — Figure 2's blue edges.
    /// Carries the document identifier for traceability.
    Extracted { doc_id: u64 },
}

impl Provenance {
    pub fn is_curated(&self) -> bool {
        matches!(self, Provenance::Curated)
    }

    /// Short tag used in exports ("curated" / "extracted").
    pub fn tag(&self) -> &'static str {
        match self {
            Provenance::Curated => "curated",
            Provenance::Extracted { .. } => "extracted",
        }
    }
}

/// An immutable, timestamped, scored fact `(src) -[pred]-> (dst)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    pub src: VertexId,
    pub pred: PredicateId,
    pub dst: VertexId,
    /// Logical insertion time (days since corpus epoch in the benchmarks).
    pub at: Timestamp,
    /// Probability the fact is true, assigned by link prediction (§3.4).
    pub confidence: f32,
    pub provenance: Provenance,
    /// Application properties (sentence offsets, rule ids, …).
    pub props: PropMap,
}

impl Edge {
    pub fn new(
        src: VertexId,
        pred: PredicateId,
        dst: VertexId,
        at: Timestamp,
        confidence: f32,
        provenance: Provenance,
    ) -> Self {
        Self {
            src,
            pred,
            dst,
            at,
            confidence,
            provenance,
            props: PropMap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_tags() {
        assert!(Provenance::Curated.is_curated());
        assert_eq!(Provenance::Curated.tag(), "curated");
        assert_eq!(Provenance::Extracted { doc_id: 1 }.tag(), "extracted");
    }
}
