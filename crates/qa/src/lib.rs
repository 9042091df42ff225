//! # nous-qa — explanatory question answering over the knowledge graph
//!
//! §3.6 of the paper: "We implemented a novel path search algorithm for
//! Knowledge Graphs. The algorithm accepts three arguments as input: a
//! source s and a target entity t, and a relationship constraint … returns
//! a set of top-K paths to explain the relationship between s and t. …
//! During the graph walk, we perform a look-ahead search at every hop and
//! select nodes with least topic divergence to the target node. Finally, we
//! compute a 'coherence' score for every path between the source and
//! target, and the path with least amount of divergence is chosen."
//!
//! - [`topic_index::TopicIndex`] — per-vertex topic distributions (from
//!   `nous-topics` LDA over entity text).
//! - [`path`] — path types and budgeted simple-path enumeration with a
//!   pluggable neighbour expander (the look-ahead hook).
//! - [`coherence`] — the paper's algorithm: divergence-guided look-ahead
//!   expansion plus coherence-ranked output.
//! - [`baselines`] — path-ranking baselines for experiment E9: BFS
//!   shortest-path, degree-salience, and PRA-style random-walk probability.
//!
//! Every search has a `*_deadline_*` variant taking a wall-clock
//! [`nous_fault::Deadline`]: on expiry the walk stops expanding and the
//! paths found so far are scored and ranked normally, with
//! `SearchStats::truncated` flagging the result as best-so-far rather
//! than complete. An unbounded deadline is behaviourally identical to
//! the plain search.

pub mod baselines;
pub mod coherence;
pub mod path;
pub mod topic_index;

pub use coherence::{
    coherent_paths, coherent_paths_deadline_instrumented, coherent_paths_deadline_with_stats,
    coherent_paths_instrumented, coherent_paths_with_stats, record_search, QaConfig,
};
pub use path::{PathConstraint, RankedPath, SearchStats};
pub use topic_index::TopicIndex;
