//! Durability for the NOUS ingestion pipeline (ISSUE 3 tentpole).
//!
//! NOUS (§4) maintains its knowledge graph **incrementally from a
//! stream**; losing the process must not mean re-ingesting the stream
//! from day zero. This crate adds the two classic pieces:
//!
//! * a **write-ahead log** ([`wal`]) of admitted facts: every document the
//!   pipeline merges becomes one length-prefixed, checksummed record
//!   ([`record::DocRecord`]) carrying its minted entities, admitted facts
//!   and ingest-report delta, appended through the
//!   [`nous_core::IngestJournal`] hook at the admit point;
//! * periodic **checkpoints** ([`store`]): the full
//!   [`nous_core::KnowledgeGraph`] — graph, gazetteer, disambiguator,
//!   mapper — serialized via `KnowledgeGraph::encode_checkpoint` every N
//!   admitted facts or on demand.
//!
//! **Recovery** = newest valid checkpoint + WAL tail replay, tolerating
//! torn writes by truncating the log at the first corrupt record. Replay
//! is id-stable: `DynamicGraph` hands out dense vertex/edge ids in
//! creation order, and records preserve mint order and admit order, so a
//! recovered graph matches the pre-crash graph edge-for-edge over the
//! surviving prefix.
//!
//! Everything is instrumented through [`nous_obs`] —
//! `nous_wal_appends_total`, `nous_wal_bytes_total`,
//! `nous_checkpoint_seconds`, `nous_recovery_replayed_total` et al. — so
//! durability shows up on the `/stats` snapshot next to ingestion and
//! query metrics.
//!
//! **Fault tolerance** (ISSUE 5): WAL appends/fsyncs and checkpoint
//! writes host named failpoints from [`nous_fault`] (armed only in
//! chaos tests; no-ops unless the `fault-injection` feature is on).
//! Failed appends are retried under a bounded [`store::RetryPolicy`];
//! when the budget is exhausted the store degrades to
//! [`store::DegradedMode::MemoryOnly`] — ingestion keeps going, the
//! loss window is surfaced as `nous_wal_degraded` /
//! `nous_wal_dropped_records_total`, and the first successful probe
//! re-arms durability. Recovery reports torn frames
//! (`nous_wal_torn_frames`, `nous_recovery_truncated_bytes`) and chains
//! across later-generation WALs when the newest checkpoint is corrupt.
//!
//! ```no_run
//! use nous_obs::MetricsRegistry;
//! use nous_persist::{DurabilityConfig, DurableStore};
//! # fn demo(kg: nous_core::KnowledgeGraph,
//! #         mut pipeline: nous_core::IngestPipeline,
//! #         articles: Vec<nous_corpus::Article>) -> std::io::Result<()> {
//! let registry = MetricsRegistry::new();
//! let dir = std::path::Path::new("./nous-data");
//!
//! // First boot: baseline checkpoint, then journal every merged document.
//! let mut kg = kg;
//! let mut store = DurableStore::create(
//!     dir, DurabilityConfig::default(), &kg, &pipeline.report(), &registry)?;
//! pipeline.set_journal(store.journal());
//! for a in &articles {
//!     pipeline.ingest(&mut kg, a);
//!     store.maybe_checkpoint(&kg, &pipeline.report())?;
//! }
//!
//! // After a crash: restore checkpoint + replay the WAL tail.
//! let (_store, recovered) =
//!     DurableStore::open(dir, DurabilityConfig::default(), &registry)?;
//! assert_eq!(recovered.kg.graph.edge_count(), kg.graph.edge_count());
//! # Ok(())
//! # }
//! ```

pub mod record;
pub mod store;
pub mod wal;

pub use record::DocRecord;
pub use store::{
    AckHook, DegradedMode, DurabilityConfig, DurableStore, Recovered, RetryPolicy,
    FP_CHECKPOINT_WRITE,
};
pub use wal::{FsyncPolicy, Wal, WalScan, FP_WAL_APPEND, FP_WAL_FSYNC};
