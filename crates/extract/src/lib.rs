//! # nous-extract — the document-level extraction stage
//!
//! Sits between the sentence-level NLP substrate (`nous-text`) and the
//! knowledge-graph pipeline (`nous-core`): it turns whole documents into
//! provenance-stamped candidate facts, the §3.2 output NOUS feeds into
//! mapping and quality control.
//!
//! - [`Document`] — the pipeline's input unit (`id`, logical `day`, text).
//! - [`extract_document`] — runs the full text pipeline and flattens the
//!   per-sentence tuples into [`Extraction`]s carrying document id, day,
//!   sentence index, mention-type hints and n-ary arguments, with
//!   within-document duplicates collapsed to their best-confidence copy.
//! - [`extract_documents_quarantined`] — the same over a micro-batch of
//!   documents, fanned out across worker threads against one read-only
//!   gazetteer snapshot (the read half of the ingestion batch step), with
//!   per-worker document counts for telemetry. Each document runs under
//!   `catch_unwind`, and a panicking or fault-injected document
//!   ([`FP_EXTRACT_POISON`] / [`FP_EXTRACT_PANIC`]) is diverted to a
//!   [`QuarantinedDoc`] list instead of aborting the micro-batch.
//! - [`evaluate`] — ground-truth scoring against a `nous-corpus` article
//!   stream (surface recall / grounded precision / yield), shared by the
//!   E3/E11 benchmarks and the corpus↔pipeline contract tests.

pub mod document;
pub mod evaluate;

pub use document::{
    extract_document, extract_documents_quarantined, DocExtraction, Document, Extraction,
    QuarantinedDoc, FP_EXTRACT_PANIC, FP_EXTRACT_POISON,
};
pub use evaluate::{evaluate_stream, ExtractionQuality};
