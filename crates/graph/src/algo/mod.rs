//! Graph algorithms over a published [`crate::LayeredSnapshot`].
//!
//! BFS distances bound the neighbourhood the DOT / JSON exports render;
//! degree statistics feed the quality dashboard (demo feature 2).

mod bfs;
mod degree;

pub use bfs::{bfs_distances, Direction};
pub use degree::DegreeSummary;
