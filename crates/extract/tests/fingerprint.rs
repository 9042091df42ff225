//! Pins `extract_document`'s output, extractions and context bag, on a
//! seeded 2 000-article `Preset::Large` stream, as one FNV-1a hash over
//! their `Debug` rendering. A change to tagging, extraction, coreference
//! or the bag of words that moves any byte of any document moves the hash.
//! When a change is meant to move it, re-derive the value and say why.

use nous_corpus::world::Kind;
use nous_corpus::{ArticleStream, CuratedKb, Preset, StreamConfig, World};
use nous_extract::{extract_document, Document};
use nous_text::ner::{EntityType, Gazetteer};
use nous_text::openie::ExtractorConfig;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

#[test]
fn extraction_output_is_pinned() {
    let world = World::generate(&Preset::Large.world_config());
    let kb = CuratedKb::generate(&world, 7);
    let stream = StreamConfig {
        seed: 31,
        articles: 2000,
        ..Preset::Large.stream_config()
    };
    let articles = ArticleStream::generate(&world, &kb, &stream);
    let mut gazetteer = Gazetteer::new();
    for e in &world.entities {
        let ty = match e.kind {
            Kind::Company => EntityType::Organization,
            Kind::Person => EntityType::Person,
            Kind::Location => EntityType::Location,
            Kind::Product => EntityType::Product,
        };
        for alias in &e.aliases {
            gazetteer.insert(alias, ty);
        }
    }
    let cfg = ExtractorConfig::default();
    let mut hash = FNV_OFFSET;
    let mut extractions = 0;
    for article in &articles {
        let d = extract_document(&Document::from(article), &gazetteer, &cfg);
        extractions += d.extractions.len();
        let rendered = format!(
            "{} {} {} {:?} {:?}\n",
            d.doc_id, d.sentences, d.raw_count, d.extractions, d.context
        );
        hash = fnv1a(hash, rendered.as_bytes());
    }
    assert!(extractions > articles.len(), "{extractions} extractions");
    assert_eq!(hash, 0xbcce_ffd0_2e06_e446, "fingerprint {hash:#018x}");
}
