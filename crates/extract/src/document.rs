//! Document model and document-level extraction.

use nous_fault::Faults;
use nous_text::bow::BagOfWords;
use nous_text::ner::{EntityType, Gazetteer};
use nous_text::openie::ExtractorConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Failpoint keyed by document id: when it fires, the document fails
/// extraction with an injected error (no panic) and is quarantined.
pub const FP_EXTRACT_POISON: &str = "extract.poison";
/// Failpoint keyed by document id: when it fires, the extraction worker
/// *panics* mid-document — exercising the `catch_unwind` isolation that
/// also guards against real extractor bugs.
pub const FP_EXTRACT_PANIC: &str = "extract.panic";

/// One input document of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    pub id: u64,
    /// Logical publication day (days since the corpus epoch).
    pub day: u64,
    pub text: String,
}

impl From<&nous_corpus::Article> for Document {
    fn from(a: &nous_corpus::Article) -> Self {
        Document {
            id: a.id,
            day: a.day,
            text: a.body.clone(),
        }
    }
}

/// One candidate fact extracted from a document, with full provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Extraction {
    pub doc_id: u64,
    pub day: u64,
    /// Sentence index within the document.
    pub sentence: usize,
    /// Subject surface (coreference already substituted).
    pub subject: String,
    /// NER type hint for the subject mention, when one matched.
    pub subject_type: Option<EntityType>,
    /// Normalised raw predicate (verb lemma, possibly `lemma_prep`).
    pub predicate: String,
    pub object: String,
    pub object_type: Option<EntityType>,
    /// N-ary `(preposition, argument surface)` pairs.
    pub extra_args: Vec<(String, String)>,
    pub negated: bool,
    /// Extractor-heuristic confidence in `[0.05, 0.95]`.
    pub confidence: f32,
}

impl Extraction {
    /// The dedup key: one fact per `(subject, predicate, object)` per doc.
    fn key(&self) -> (String, String, String) {
        (
            self.subject.to_lowercase(),
            self.predicate.clone(),
            self.object.to_lowercase(),
        )
    }
}

/// Everything extracted from one document.
#[derive(Debug, Clone)]
pub struct DocExtraction {
    pub doc_id: u64,
    pub sentences: usize,
    /// Deduplicated extractions in reading order.
    pub extractions: Vec<Extraction>,
    /// Count before within-document dedup (over-generation diagnostics).
    pub raw_count: usize,
    /// Bag-of-words of the whole document (the disambiguation context).
    pub context: BagOfWords,
}

/// Run the §3.2 pipeline over a document and flatten to extractions.
///
/// A repeated statement inside one document ("X bought Y. … X bought Y
/// for $2M.") collapses to the higher-confidence copy — cross-document
/// repetition is evidence (corroboration), within-document repetition is
/// just prose.
pub fn extract_document(
    doc: &Document,
    gazetteer: &Gazetteer,
    cfg: &ExtractorConfig,
) -> DocExtraction {
    let analyzed = nous_text::analyze(&doc.text, gazetteer, cfg);
    let mut extractions: Vec<Extraction> = Vec::new();
    // `keys[i]` is `extractions[i].key()`, computed once per candidate.
    let mut keys = Vec::new();
    let mut raw_count = 0usize;

    for (sidx, sentence) in analyzed.sentences.iter().enumerate() {
        let type_of = |surface: &str| {
            sentence
                .mentions
                .iter()
                .find(|m| m.text.eq_ignore_ascii_case(surface))
                .map(|m| m.entity_type)
        };
        for t in &sentence.triples {
            raw_count += 1;
            let candidate = Extraction {
                doc_id: doc.id,
                day: doc.day,
                sentence: sidx,
                subject: t.subject.text.clone(),
                subject_type: type_of(&t.subject.text),
                predicate: t.predicate.clone(),
                object: t.object.text.clone(),
                object_type: type_of(&t.object.text),
                extra_args: t
                    .extra_args
                    .iter()
                    .map(|(prep, arg)| (prep.clone(), arg.text.clone()))
                    .collect(),
                negated: t.negated,
                confidence: t.confidence,
            };
            let key = candidate.key();
            match keys.iter().position(|k| *k == key) {
                Some(i) if candidate.confidence > extractions[i].confidence => {
                    extractions[i] = candidate;
                }
                Some(_) => {}
                None => {
                    keys.push(key);
                    extractions.push(candidate);
                }
            }
        }
    }

    DocExtraction {
        doc_id: doc.id,
        sentences: analyzed.sentences.len(),
        extractions,
        raw_count,
        context: BagOfWords::from_tagged(analyzed.sentences.iter().flat_map(|s| &s.tagged)),
    }
}

/// A document that failed extraction: the input's identity plus the error
/// that took it out, parked for offline inspection / reprocessing instead
/// of poisoning the whole micro-batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedDoc {
    pub doc_id: u64,
    pub day: u64,
    pub error: String,
}

/// [`extract_document`] hardened for fleet use: the extractor runs under
/// `catch_unwind`, so a panicking document (extractor bug, or the
/// [`FP_EXTRACT_PANIC`] failpoint) comes back as `Err` instead of killing
/// the worker thread. The [`FP_EXTRACT_POISON`] failpoint injects a
/// non-panicking failure the same way. Both failpoints are keyed by the
/// document id, so which documents fail is a pure function of the fault
/// seed — independent of worker count and scheduling.
fn try_extract_document(
    doc: &Document,
    gazetteer: &Gazetteer,
    cfg: &ExtractorConfig,
    faults: &Faults,
) -> Result<DocExtraction, String> {
    if faults.hit_keyed(FP_EXTRACT_POISON, doc.id) {
        return Err(format!("injected fault: {FP_EXTRACT_POISON}"));
    }
    catch_unwind(AssertUnwindSafe(|| {
        if faults.hit_keyed(FP_EXTRACT_PANIC, doc.id) {
            panic!("injected fault: {FP_EXTRACT_PANIC}");
        }
        extract_document(doc, gazetteer, cfg)
    }))
    .map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "worker panicked (non-string payload)".to_owned());
        format!("extraction panicked: {msg}")
    })
}

/// Extract a micro-batch of documents on parallel worker threads
/// (`workers == 0` means auto — `NOUS_THREADS` or the hardware
/// parallelism), with poison-document quarantine.
///
/// Extraction is stateless with respect to the knowledge graph: every
/// document reads the same immutable gazetteer snapshot, so the fan-out is
/// embarrassingly parallel. The first return value holds the surviving
/// extractions in input order — exactly what
/// `docs.iter().map(|d| extract_document(d, ..))` produces for them. The
/// second has one entry per worker thread actually used, holding how many
/// documents it extracted (telemetry reports the realised fan-out width
/// from it). Failed documents (panic or injected fault) are diverted into
/// the third instead of aborting the batch.
pub fn extract_documents_quarantined(
    docs: &[Document],
    gazetteer: &Gazetteer,
    cfg: &ExtractorConfig,
    workers: usize,
    faults: &Faults,
) -> (Vec<DocExtraction>, Vec<usize>, Vec<QuarantinedDoc>) {
    let (results, worker_docs) = nous_graph::parallel::par_map_chunks(docs, workers, |d| {
        try_extract_document(d, gazetteer, cfg, faults).map_err(|error| QuarantinedDoc {
            doc_id: d.id,
            day: d.day,
            error,
        })
    });
    let mut ok = Vec::with_capacity(results.len());
    let mut quarantined = Vec::new();
    for r in results {
        match r {
            Ok(ext) => ok.push(ext),
            Err(q) => quarantined.push(q),
        }
    }
    (ok, worker_docs, quarantined)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaz() -> Gazetteer {
        let mut g = Gazetteer::new();
        g.insert("Apex Robotics", EntityType::Organization);
        g.insert("Condor Labs", EntityType::Organization);
        g.insert("Shenzhen", EntityType::Location);
        g
    }

    fn doc(text: &str) -> Document {
        Document {
            id: 9,
            day: 120,
            text: text.to_owned(),
        }
    }

    #[test]
    fn provenance_is_stamped() {
        let d = extract_document(
            &doc("Apex Robotics acquired Condor Labs."),
            &gaz(),
            &ExtractorConfig::default(),
        );
        assert_eq!(d.doc_id, 9);
        assert_eq!(d.sentences, 1);
        let e = d
            .extractions
            .iter()
            .find(|e| e.predicate == "acquire")
            .unwrap();
        assert_eq!(e.doc_id, 9);
        assert_eq!(e.day, 120);
        assert_eq!(e.sentence, 0);
        assert_eq!(e.subject_type, Some(EntityType::Organization));
        assert_eq!(e.object_type, Some(EntityType::Organization));
    }

    #[test]
    fn within_document_repeats_collapse() {
        let d = extract_document(
            &doc("Apex Robotics acquired Condor Labs. Apex Robotics acquired Condor Labs."),
            &gaz(),
            &ExtractorConfig::default(),
        );
        let acquires: Vec<_> = d
            .extractions
            .iter()
            .filter(|e| e.predicate == "acquire")
            .collect();
        assert_eq!(acquires.len(), 1, "deduped: {acquires:?}");
        assert!(
            d.raw_count >= 2,
            "raw count keeps the over-generation signal"
        );
    }

    #[test]
    fn dedup_keeps_highest_confidence_copy() {
        // Same fact, once with a pronoun subject (penalised) and once named.
        let d = extract_document(
            &doc("Apex Robotics announced a deal. It acquired Condor Labs. \
                  Apex Robotics acquired Condor Labs."),
            &gaz(),
            &ExtractorConfig::default(),
        );
        let e = d
            .extractions
            .iter()
            .find(|e| e.predicate == "acquire")
            .unwrap();
        // Coref rewrote the pronoun, so both copies share the key; the
        // named-subject copy has the higher confidence.
        assert!(e.confidence >= 0.7, "kept the stronger copy: {e:?}");
    }

    #[test]
    fn extra_args_flattened() {
        let d = extract_document(
            &doc("Apex Robotics launched the Phantom 9 in Shenzhen in March."),
            &gaz(),
            &ExtractorConfig::default(),
        );
        let e = d
            .extractions
            .iter()
            .find(|e| e.predicate == "launch")
            .unwrap();
        assert_eq!(e.extra_args.len(), 2);
        assert_eq!(e.extra_args[0].0, "in");
    }

    #[test]
    fn document_from_article() {
        let (_, kb, articles) = nous_corpus::Preset::Smoke.build();
        let _ = kb;
        let d = Document::from(&articles[0]);
        assert_eq!(d.id, articles[0].id);
        assert_eq!(d.day, articles[0].day);
        assert_eq!(d.text, articles[0].body);
    }

    #[test]
    fn empty_document() {
        let d = extract_document(&doc(""), &gaz(), &ExtractorConfig::default());
        assert_eq!(d.sentences, 0);
        assert!(d.extractions.is_empty());
        assert_eq!(d.raw_count, 0);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn poison_failpoint_quarantines_exactly_the_keyed_docs() {
        use nous_fault::{FaultPlan, SitePlan};
        let g = gaz();
        let cfg = ExtractorConfig::default();
        let docs: Vec<Document> = (0..16)
            .map(|i| Document {
                id: 100 + i,
                day: i,
                text: "Apex Robotics acquired Condor Labs.".to_owned(),
            })
            .collect();
        let plan = FaultPlan::from_seed(42).site(FP_EXTRACT_POISON, SitePlan::probability(0.3));
        // The pure preview predicts exactly which doc ids fail, regardless
        // of worker count/scheduling (keyed decisions are order-free).
        let expect: Vec<u64> = docs
            .iter()
            .map(|d| d.id)
            .filter(|id| plan.would_fire_keyed(FP_EXTRACT_POISON, *id))
            .collect();
        assert!(!expect.is_empty(), "seed 42 must poison at least one doc");
        assert!(expect.len() < docs.len(), "and spare at least one");
        for workers in [1, 4] {
            let faults = plan.clone().arm();
            let (ok, _, quarantined) =
                extract_documents_quarantined(&docs, &g, &cfg, workers, &faults);
            let got: Vec<u64> = quarantined.iter().map(|q| q.doc_id).collect();
            assert_eq!(got, expect, "workers={workers}");
            assert_eq!(ok.len() + quarantined.len(), docs.len());
            assert!(quarantined.iter().all(|q| q.error.contains("injected")));
            // Survivors keep input order and skip the poisoned ids.
            let ok_ids: Vec<u64> = ok.iter().map(|e| e.doc_id).collect();
            let expect_ok: Vec<u64> = docs
                .iter()
                .map(|d| d.id)
                .filter(|id| !expect.contains(id))
                .collect();
            assert_eq!(ok_ids, expect_ok);
        }
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn worker_panic_is_caught_and_quarantined() {
        use nous_fault::{FaultPlan, SitePlan};
        let g = gaz();
        let cfg = ExtractorConfig::default();
        let docs: Vec<Document> = (0..4)
            .map(|i| Document {
                id: i,
                day: i,
                text: "Apex Robotics acquired Condor Labs.".to_owned(),
            })
            .collect();
        let faults = FaultPlan::from_seed(1)
            .site(FP_EXTRACT_PANIC, SitePlan::schedule(vec![2]))
            .arm();
        // Silence the default hook for the duration: the panic is expected.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (ok, _, quarantined) = extract_documents_quarantined(&docs, &g, &cfg, 2, &faults);
        std::panic::set_hook(prev);
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].doc_id, 2);
        assert!(
            quarantined[0].error.contains("panicked"),
            "{}",
            quarantined[0].error
        );
        assert_eq!(ok.len(), 3, "batch survives a panicking worker doc");
    }

    #[test]
    fn batch_extraction_matches_per_document_calls() {
        let g = gaz();
        let cfg = ExtractorConfig::default();
        let docs: Vec<Document> = (0..24)
            .map(|i| Document {
                id: i,
                day: 100 + i,
                text: format!(
                    "Apex Robotics acquired Condor Labs. \
                     Condor Labs launched the Falcon {i} in Shenzhen."
                ),
            })
            .collect();
        let seq: Vec<DocExtraction> = docs.iter().map(|d| extract_document(d, &g, &cfg)).collect();
        for workers in [0, 1, 4] {
            let (par, worker_docs, quarantined) =
                extract_documents_quarantined(&docs, &g, &cfg, workers, &Faults::disabled());
            assert!(quarantined.is_empty(), "workers={workers}");
            assert_eq!(worker_docs.iter().sum::<usize>(), docs.len());
            assert_eq!(par.len(), seq.len());
            for (p, s) in par.iter().zip(&seq) {
                assert_eq!(p.doc_id, s.doc_id, "order preserved (workers={workers})");
                assert_eq!(p.extractions, s.extractions);
                assert_eq!(p.raw_count, s.raw_count);
            }
        }
    }
}
