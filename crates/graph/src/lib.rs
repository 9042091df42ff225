//! # nous-graph — dynamic temporal property graph engine
//!
//! This crate is the storage and traversal substrate for the NOUS
//! reproduction. The original system (Choudhury et al., ICDE 2017) stored its
//! knowledge graph in Apache Spark's GraphX distributed property-graph model;
//! every NOUS algorithm is expressed against a property-graph API (arbitrary
//! properties on vertices and edges, timestamped edge insertions, windowed
//! views over the edge stream). This crate provides that API as a fast
//! in-memory engine with one write side and one read view:
//!
//! - [`DynamicGraph`] — the write side: an append-oriented property graph
//!   with interned vertex names and predicates, per-edge timestamps,
//!   confidence and provenance. It keeps only what writes need.
//! - [`LayeredSnapshot`] — the read view, and the one [`GraphView`]: a
//!   frozen CSR base ([`FrozenView`]) plus delta overlays
//!   ([`DeltaOverlay`]), published after each write batch.
//! - [`window::SlidingWindow`] — a windowed view over the temporal edge log,
//!   the structure the streaming frequent-graph miner (§3.5 of the paper)
//!   operates on.
//! - [`algo`] — BFS distances and degree statistics over a snapshot.
//! - [`snapshot`] — the compact snapshot (the graph's one state format)
//!   plus DOT / JSON exports (the paper's visualisation figures 2, 4 and 6
//!   correspond to these exports).
//! - [`parallel`] — a `std` scoped-thread parallel map standing in for
//!   the "distributed" axis of GraphX at laptop scale.
//!
//! ```
//! use nous_graph::{DynamicGraph, GraphView, LayeredSnapshot, Provenance};
//!
//! let mut g = DynamicGraph::new();
//! let dji = g.ensure_vertex("DJI");
//! let shenzhen = g.ensure_vertex("Shenzhen");
//! let pred = g.intern_predicate("isLocatedIn");
//! g.add_edge_at(dji, pred, shenzhen, 100, 0.97, Provenance::Curated);
//! let view = LayeredSnapshot::freeze(&g);
//! assert_eq!(view.out_degree(dji), 1);
//! assert_eq!(view.in_degree(shenzhen), 1);
//! ```

pub mod algo;
pub mod codec;
pub mod delta;
pub mod edge;
pub mod frozen;
pub mod graph;
pub mod hash;
pub mod ids;
pub mod layered;
pub mod parallel;
pub mod props;
pub mod snapshot;
pub mod view;
pub mod window;

pub use delta::DeltaOverlay;
pub use edge::{Edge, Provenance};
pub use frozen::FrozenView;
pub use graph::{Adj, DeltaWatermark, DynamicGraph, VertexData};
pub use hash::{FxHashMap, FxHashSet};
pub use ids::{EdgeId, PredicateId, Timestamp, VertexId};
pub use layered::{LayeredSnapshot, MergeStats};
pub use props::{PropMap, PropValue};
pub use view::GraphView;
pub use window::SlidingWindow;
