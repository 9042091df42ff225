//! The assembled text-analysis pipeline: sentences → tokens → POS →
//! mentions → coreference → OpenIE/SRL, with coreference substituted back
//! into the extracted tuples.
//!
//! This is the §3.2 stage of NOUS as one call: [`analyze`] consumes a raw
//! document and produces per-sentence analyses whose extracted tuples have
//! pronouns and definite nominals rewritten to their antecedents.

use crate::coref::{self, CorefResolution};
use crate::ner::{self, Gazetteer, Mention};
use crate::openie::{self, ExtractionSpan, ExtractorConfig, RawTriple};
use crate::pos::{self, Tagged};
use crate::sentence;
use crate::srl::{self, Frame};
use crate::token::tokenize;

/// Analysis of one sentence.
#[derive(Debug, Clone)]
pub struct AnalyzedSentence {
    pub text: String,
    pub tagged: Vec<Tagged>,
    pub mentions: Vec<Mention>,
    /// OpenIE tuples with coreference substituted into subject/object.
    pub triples: Vec<RawTriple>,
    /// SRL frames with the same substitution applied.
    pub frames: Vec<Frame>,
}

/// Analysis of a whole document.
#[derive(Debug, Clone)]
pub struct AnalyzedDoc {
    pub sentences: Vec<AnalyzedSentence>,
    pub resolutions: Vec<CorefResolution>,
}

/// Rewrite `span` to the antecedent of the first resolution in sentence
/// `sidx` that lies inside it.
fn substitute(span: &mut ExtractionSpan, sidx: usize, resolutions: &[CorefResolution]) {
    let inside = |r: &&CorefResolution| {
        r.sentence == sidx && r.token_start >= span.start && r.token_end <= span.end
    };
    if let Some(r) = resolutions.iter().find(inside) {
        span.text = r.antecedent.clone();
    }
}

/// Run the full §3.2 pipeline over a raw document.
pub fn analyze(text: &str, gazetteer: &Gazetteer, cfg: &ExtractorConfig) -> AnalyzedDoc {
    let sents = sentence::split_sentences(text);
    let mut per_sentence: Vec<(Vec<Tagged>, Vec<Mention>)> = Vec::with_capacity(sents.len());
    for s in &sents {
        let tagged = pos::tag_owned(tokenize(&s.text));
        let mentions = ner::mentions(&tagged, gazetteer);
        per_sentence.push((tagged, mentions));
    }
    let resolutions = coref::resolve(&per_sentence);

    let mut sentences = Vec::with_capacity(sents.len());
    for (sidx, (s, (tagged, mentions))) in sents.iter().zip(per_sentence).enumerate() {
        let mut triples = openie::extract(&tagged, cfg);
        for t in &mut triples {
            substitute(&mut t.subject, sidx, &resolutions);
            substitute(&mut t.object, sidx, &resolutions);
            for (_, arg) in &mut t.extra_args {
                substitute(arg, sidx, &resolutions);
            }
        }
        let frames = triples.iter().map(|t| srl::frame_of(&tagged, t)).collect();
        sentences.push(AnalyzedSentence {
            text: s.text.clone(),
            tagged,
            mentions,
            triples,
            frames,
        });
    }
    AnalyzedDoc {
        sentences,
        resolutions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ner::EntityType;

    fn gaz() -> Gazetteer {
        let mut g = Gazetteer::new();
        g.insert("DJI", EntityType::Organization);
        g.insert("Accel", EntityType::Organization);
        g.insert("Frank Wang", EntityType::Person);
        g
    }

    #[test]
    fn pronoun_substituted_into_triples() {
        let doc = analyze(
            "DJI announced a drone. It acquired Accel.",
            &gaz(),
            &ExtractorConfig::default(),
        );
        assert_eq!(doc.sentences.len(), 2);
        let t = doc.sentences[1]
            .triples
            .iter()
            .find(|t| t.predicate == "acquire")
            .expect("acquire triple");
        assert_eq!(t.subject.text, "DJI", "pronoun rewritten via coref");
        assert_eq!(t.object.text, "Accel");
    }

    #[test]
    fn definite_nominal_substituted() {
        let doc = analyze(
            "DJI unveiled the Phantom. Regulators investigated the company in March.",
            &gaz(),
            &ExtractorConfig::default(),
        );
        let t = doc.sentences[1]
            .triples
            .iter()
            .find(|t| t.predicate == "investigate")
            .expect("investigate triple");
        assert_eq!(t.object.text, "DJI");
    }

    #[test]
    fn frames_follow_substitution() {
        let doc = analyze(
            "DJI announced a drone. It acquired Accel in March.",
            &gaz(),
            &ExtractorConfig::default(),
        );
        let f = doc.sentences[1]
            .frames
            .iter()
            .find(|f| f.predicate == "acquire")
            .expect("acquire frame");
        assert_eq!(f.a0, "DJI");
        assert_eq!(f.time.as_deref(), Some("March"));
    }

    /// Two tuples of one predicate in one sentence: each frame reads its
    /// own tuple's arguments and adjuncts, not the first same-predicate one.
    #[test]
    fn each_frame_carries_its_own_triple() {
        let args = |text: &str| {
            let doc = analyze(text, &gaz(), &ExtractorConfig::default());
            let s = &doc.sentences[0];
            assert_eq!(s.frames.len(), s.triples.len());
            s.frames
                .iter()
                .filter(|f| f.predicate == "acquire")
                .map(|f| (f.a0.clone(), f.a1.clone(), f.time.clone()))
                .collect::<Vec<_>>()
        };
        let own = |a0: &str, a1: &str, time: Option<&str>| {
            (a0.to_owned(), a1.to_owned(), time.map(str::to_owned))
        };
        assert_eq!(
            args("DJI acquired Accel and Parrot acquired Skyward."),
            vec![own("DJI", "Accel", None), own("Parrot", "Skyward", None)]
        );
        assert_eq!(
            args("DJI acquired Accel, and Intel acquired Yuneec in March."),
            vec![
                own("DJI", "Accel", None),
                own("Intel", "Yuneec", Some("March"))
            ]
        );
    }

    #[test]
    fn mentions_present_per_sentence() {
        let doc = analyze(
            "DJI competes with Parrot.",
            &gaz(),
            &ExtractorConfig::default(),
        );
        assert!(doc.sentences[0].mentions.iter().any(|m| m.text == "DJI"));
    }

    #[test]
    fn empty_document() {
        let doc = analyze("", &gaz(), &ExtractorConfig::default());
        assert!(doc.sentences.is_empty());
        assert!(doc.resolutions.is_empty());
    }
}
