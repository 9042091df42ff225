//! The harness: workload drivers, the system assembly they share, the
//! span log behind the per-layer ledger, and result files.

pub mod calib;
pub mod layers;
pub mod queries;
pub mod report;
pub mod spec;
pub mod stats;
pub mod system;
pub mod trace;
pub mod window;
pub mod workloads;
