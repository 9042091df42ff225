//! The ingestion journal hook: the seam between the pipeline's admit
//! point and a durability layer (see `nous-persist`).
//!
//! `nous-core` knows nothing about files or fsync. Instead, the
//! pipeline accepts a pluggable [`IngestJournal`] sink and calls it at
//! exactly the three points a write-ahead log needs to reproduce the
//! graph mutation stream:
//!
//! 1. [`IngestJournal::entity_created`] — a new vertex was minted from
//!    text, in mint order;
//! 2. [`IngestJournal::fact_admitted`] — a fact cleared quality control
//!    and was written to the graph, in admit order (names are logged
//!    *after* any inverted-rule swap, i.e. exactly as stored);
//! 3. [`IngestJournal::document_merged`] — the document's merge
//!    finished, with the per-document [`IngestReport`] delta. This is
//!    the durability boundary: a WAL that flushes here makes the
//!    document the atomic replay unit.
//!
//! Because `DynamicGraph` assigns dense ids in creation order, replaying
//! minted entities in mint order and facts in admit order onto a
//! checkpointed graph reproduces the original vertex/edge ids exactly.

use crate::pipeline::IngestReport;
use nous_graph::codec::{DecodeError, Reader};
use nous_text::bow::BagOfWords;
use nous_text::ner::EntityType;

/// Stable one-byte wire tag for an [`EntityType`] (WAL + checkpoint
/// format; never renumber).
pub fn entity_type_tag(ty: EntityType) -> u8 {
    match ty {
        EntityType::Person => 0,
        EntityType::Organization => 1,
        EntityType::Location => 2,
        EntityType::Product => 3,
        EntityType::Other => 4,
    }
}

/// Inverse of [`entity_type_tag`].
pub fn entity_type_from_tag(tag: u8) -> Option<EntityType> {
    Some(match tag {
        0 => EntityType::Person,
        1 => EntityType::Organization,
        2 => EntityType::Location,
        3 => EntityType::Product,
        4 => EntityType::Other,
        _ => return None,
    })
}

/// Decode a bag-of-words stored as `(term, count)` pairs — how `NOUSKG01`
/// checkpoints spelled out entity text.
pub fn read_bow(r: &mut Reader<'_>) -> Result<BagOfWords, DecodeError> {
    let n = r.count(8, "bag-of-words length")?;
    let mut bow = BagOfWords::new();
    for _ in 0..n {
        let term = r.str()?;
        let count = r.u32()?;
        bow.add(term, count);
    }
    Ok(bow)
}

/// One admitted fact, by name (ids are not logged — replay re-resolves
/// names, which is id-stable; see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct AdmittedFact {
    pub subject: String,
    pub predicate: String,
    pub object: String,
    pub at: u64,
    pub confidence: f32,
    pub doc_id: u64,
    /// Prepositional adjuncts: `(preposition, text)` pairs.
    pub extra_args: Vec<(String, String)>,
}

/// A sink observing the pipeline's admit stream. Implementations must
/// be cheap per call; the pipeline invokes them inside the sequential
/// merge stage.
pub trait IngestJournal: Send {
    /// A new entity was minted from text (fires once per new vertex, in
    /// mint order, before any fact referencing it is admitted).
    fn entity_created(&mut self, name: &str, ty: EntityType);
    /// A fact was admitted into the graph.
    fn fact_admitted(&mut self, fact: &AdmittedFact);
    /// A document's merge completed; `delta` is this document's
    /// contribution to the cumulative [`IngestReport`].
    fn document_merged(&mut self, doc_id: u64, delta: &IngestReport);
}
