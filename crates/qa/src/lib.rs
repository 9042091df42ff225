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
//! - [`path`] — path types and the exhaustive simple-path enumeration
//!   ([`path::enumerate_paths_with_stats`]) with a pluggable neighbour
//!   expander: the oracle the serving searches are pinned against.
//! - [`coherence`] — the paper's algorithm ([`coherent_paths_with_stats`],
//!   serving `WHY`): divergence-guided look-ahead expansion plus
//!   coherence-ranked output.
//! - [`baselines`] — path-ranking baselines for experiment E9: shortest
//!   path ([`baselines::shortest_paths_with_stats`], serving `PATHS`),
//!   degree-salience, and PRA-style random-walk probability.
//!
//! One function per algorithm, each taking a [`QaConfig`] and returning
//! its paths with [`SearchStats`]. The serving searches honour
//! `QaConfig::deadline` (a wall-clock [`nous_fault::Deadline`], unbounded
//! by default): on expiry the walk stops expanding and the paths found
//! so far are scored and ranked normally, with `SearchStats::truncated`
//! flagging the result as best-so-far rather than complete. A deadline
//! that never expires changes nothing. [`record_search`] files one
//! search's accounting under the `nous_qa_*` metrics.

pub mod baselines;
pub mod coherence;
pub mod path;
pub mod topic_index;

pub use coherence::{coherent_paths_with_stats, record_search, QaConfig};
pub use path::{PathConstraint, RankedPath, SearchStats};
pub use topic_index::TopicIndex;
