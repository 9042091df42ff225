//! `extract_document` builds a document's context bag from the tokens
//! `analyze` already produced, sentence by sentence, instead of tokenizing
//! the text a second time. These tests hold it to the bag
//! `BagOfWords::from_text` builds from the whole text: on a seeded
//! `Preset::Large` article stream, on generated text full of the periods,
//! apostrophes and numbers where a sentence boundary could cut a token,
//! and on arbitrary text.

use nous_corpus::world::Kind;
use nous_corpus::{ArticleStream, CuratedKb, Preset, StreamConfig, World};
use nous_extract::{extract_document, Document};
use nous_text::bow::BagOfWords;
use nous_text::ner::{EntityType, Gazetteer};
use nous_text::openie::ExtractorConfig;
use proptest::prelude::*;

fn context_of(text: &str, gazetteer: &Gazetteer) -> BagOfWords {
    let doc = Document {
        id: 1,
        day: 0,
        text: text.to_owned(),
    };
    extract_document(&doc, gazetteer, &ExtractorConfig::default()).context
}

#[test]
fn context_bag_equals_the_bag_of_the_text_on_an_article_stream() {
    let world = World::generate(&Preset::Large.world_config());
    let kb = CuratedKb::generate(&world, 7);
    let stream = StreamConfig {
        seed: 47,
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
    for article in &articles {
        let d = extract_document(&Document::from(article), &gazetteer, &cfg);
        assert_eq!(
            d.context,
            BagOfWords::from_text(&article.body),
            "article {}",
            article.id
        );
    }
}

#[test]
fn context_bag_keeps_words_with_inner_periods() {
    let text = "Visit example.com today. The U.S. regulator's v2.5 rules cost $3.5 million.";
    let bag = context_of(text, &Gazetteer::new());
    assert_eq!(bag, BagOfWords::from_text(text));
    assert_eq!(bag.count("example.com"), 1);
    assert_eq!(bag.count("regulator"), 1);
}

proptest! {
    #[test]
    fn context_bag_equals_the_bag_of_generated_text(
        text in "((U\\.S\\. )?(Mr\\. )?([A-Z]?[a-z]{1,7}(['’]s)?)?([0-9]{1,4}(\\.[0-9]{1,2})?)?([.!?][\")’]?)?([A-Za-z0-9]{1,3})?[ \n,;\"()’-]{1,2}){0,40}"
    ) {
        prop_assert_eq!(context_of(&text, &Gazetteer::new()), BagOfWords::from_text(&text), "{:?}", text);
    }

    #[test]
    fn context_bag_equals_the_bag_of_arbitrary_text(text in "\\PC{0,300}") {
        prop_assert_eq!(context_of(&text, &Gazetteer::new()), BagOfWords::from_text(&text), "{:?}", text);
    }
}
