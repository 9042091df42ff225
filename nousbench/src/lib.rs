//! # nous-bench — the one measurement harness of this repository
//!
//! One binary (`nous-bench`) drives seven seeded workloads through the
//! program's public functions and reports end-to-end figures plus, in a
//! separate traced run, a per-layer ledger. Every layer is measured from
//! outside: the harness times calls into `nous-*` crates and records its
//! own spans; the program's tracer stays disabled.
//!
//! See `README.md` for the metric and workload tables and how to read the
//! ledger and the trace file.

pub mod harness;
