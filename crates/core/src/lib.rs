//! # nous-core — the NOUS system facade
//!
//! Wires every component of the paper's Figure 1 into one API:
//!
//! ```text
//!  articles ──► nous-text (OpenIE/NER/coref, §3.2)
//!                  │ raw triples
//!                  ▼
//!           nous-link (predicate mapping + AIDA disambiguation, §3.3)
//!                  │ candidate facts
//!                  ▼
//!           nous-embed (BPR confidence, §3.4) ──► quality control
//!                  │ admitted facts
//!                  ▼
//!      KnowledgeGraph (nous-graph, dynamic + provenance)
//!            │                     │
//!            ▼                     ▼
//!  nous-mining (trending, §3.5)  nous-qa (why-questions, §3.6)
//! ```
//!
//! - [`kg::KnowledgeGraph`] — the fused curated + extracted dynamic KG with
//!   per-entity text, alias tables and the disambiguator/mapper/predictor
//!   state.
//! - [`pipeline::IngestPipeline`] — streaming document ingestion with
//!   quality control and per-stage accounting (demo features 1–3).
//! - [`trends::TrendMonitor`] — sliding-window streaming pattern mining
//!   over the live KG (Figure 7).
//! - [`seeds`] — the bootstrap seed rules for predicate mapping (§3.3's
//!   "5-10 seed examples" per predicate).

pub mod journal;
pub mod kg;
pub mod pipeline;
pub mod quality;
pub mod revision;
pub mod seeds;
pub mod session;
pub mod trends;

pub use journal::{AdmittedFact, IngestJournal};
pub use kg::{entity_summary_view, KnowledgeGraph};
pub use nous_extract::QuarantinedDoc;
pub use pipeline::{DeadLetterStore, IngestPipeline, IngestReport, PipelineConfig};
pub use quality::{CandidateFact, NoSelfLoopGate, QualityGate, TypeSignatureGate};
pub use revision::{RevisionCounters, RevisionPolicy};
pub use session::{CompactionConfig, FrozenSnapshot, SharedSession, FP_SESSION_COMPACT};
pub use trends::TrendMonitor;
