//! The miner's edge record.
//!
//! Mining operates on *typed* triples: the interesting regularities of a
//! knowledge graph are at the type level ("a Company acquires a Company and
//! invests in a Company"), so each stream edge carries its endpoint type
//! labels alongside the concrete vertex ids. The adapter layer in
//! `nous-core` produces these from graph edges.

/// One stream edge as the miner sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinerEdge {
    /// Unique, stable edge identifier (the graph `EdgeId`).
    pub id: u64,
    /// Concrete endpoint vertex ids.
    pub src: u64,
    pub dst: u64,
    /// Predicate label.
    pub elabel: u32,
    /// Entity-type labels of the endpoints.
    pub src_label: u32,
    pub dst_label: u32,
}

impl MinerEdge {
    pub fn new(id: u64, src: u64, dst: u64, elabel: u32, src_label: u32, dst_label: u32) -> Self {
        Self {
            id,
            src,
            dst,
            elabel,
            src_label,
            dst_label,
        }
    }

    /// Does this edge touch vertex `v`?
    #[inline]
    pub fn touches(&self, v: u64) -> bool {
        self.src == v || self.dst == v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touches_both_endpoints() {
        let e = MinerEdge::new(1, 10, 20, 0, 0, 0);
        assert!(e.touches(10));
        assert!(e.touches(20));
        assert!(!e.touches(30));
    }

    #[test]
    fn self_loop_touches_once() {
        let e = MinerEdge::new(1, 5, 5, 0, 0, 0);
        assert!(e.touches(5));
    }
}
