//! Semantic-role labelling (light).
//!
//! The paper's appendix (Figure 3) shows dated triples "extracted from Wall
//! Street Journal Articles using Semantic Role Labeling". This module turns
//! OpenIE tuples into shallow predicate-argument frames: A0 (agent), A1
//! (patient), AM-LOC and AM-TMP adjuncts, by classifying each prepositional
//! argument with the temporal lexicon and location cues.

use crate::lexicon;
use crate::openie::RawTriple;
use crate::pos::{Tag, Tagged};

/// A shallow predicate-argument frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Predicate lemma (plus preposition for phrasal relations).
    pub predicate: String,
    /// Agent (subject) surface text.
    pub a0: String,
    /// Patient (object) surface text.
    pub a1: String,
    /// AM-LOC adjunct, if present.
    pub location: Option<String>,
    /// AM-TMP adjunct, if present.
    pub time: Option<String>,
    pub negated: bool,
    pub confidence: f32,
}

fn is_temporal(tagged: &[Tagged], start: usize, end: usize) -> bool {
    tagged[start..end].iter().any(|t| {
        lexicon::lookup(&t.token.lower()).is_some_and(|e| e.temporal)
            || (t.tag == Tag::CD && t.token.text.len() == 4) // bare year
    })
}

fn is_locational(prep: &str, tagged: &[Tagged], start: usize, end: usize) -> bool {
    matches!(prep, "in" | "at" | "near" | "from" | "to" | "across")
        && tagged[start..end].iter().any(|t| t.tag == Tag::NNP)
}

/// Classify one OpenIE tuple into a frame.
pub(crate) fn frame_of(tagged: &[Tagged], t: &RawTriple) -> Frame {
    let mut location = None;
    let mut time = None;
    for (prep, arg) in &t.extra_args {
        if time.is_none() && is_temporal(tagged, arg.start, arg.end) {
            time = Some(arg.text.clone());
        } else if location.is_none() && is_locational(prep, tagged, arg.start, arg.end) {
            location = Some(arg.text.clone());
        }
    }
    Frame {
        predicate: t.predicate.clone(),
        a0: t.subject.text.clone(),
        a1: t.object.text.clone(),
        location,
        time,
        negated: t.negated,
        confidence: t.confidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::openie::{extract, ExtractorConfig};
    use crate::pos::tag;
    use crate::token::tokenize;

    fn frames(input: &str) -> Vec<Frame> {
        let tagged = tag(&tokenize(input));
        extract(&tagged, &ExtractorConfig::default())
            .iter()
            .map(|t| frame_of(&tagged, t))
            .collect()
    }

    #[test]
    fn basic_frame() {
        let f = frames("DJI acquired Accel.");
        assert_eq!(f[0].predicate, "acquire");
        assert_eq!(f[0].a0, "DJI");
        assert_eq!(f[0].a1, "Accel");
        assert!(f[0].location.is_none());
        assert!(f[0].time.is_none());
    }

    #[test]
    fn location_adjunct() {
        let f = frames("DJI launched the Phantom 4 in Shenzhen.");
        let fr = f.iter().find(|f| f.predicate == "launch").unwrap();
        assert_eq!(fr.location.as_deref(), Some("Shenzhen"));
    }

    #[test]
    fn temporal_adjunct_month() {
        let f = frames("DJI launched the Phantom 4 in March.");
        let fr = f.iter().find(|f| f.predicate == "launch").unwrap();
        assert_eq!(fr.time.as_deref(), Some("March"));
        assert!(fr.location.is_none(), "March is temporal, not a place");
    }

    #[test]
    fn temporal_adjunct_year() {
        let f = frames("DJI opened an office in 2015.");
        let fr = f.iter().find(|f| f.predicate == "open").unwrap();
        assert_eq!(fr.time.as_deref(), Some("2015"));
    }

    #[test]
    fn both_adjuncts() {
        let f = frames("DJI launched the Phantom 4 in Shenzhen in March.");
        let fr = f.iter().find(|f| f.predicate == "launch").unwrap();
        assert_eq!(fr.location.as_deref(), Some("Shenzhen"));
        assert_eq!(fr.time.as_deref(), Some("March"));
    }

    #[test]
    fn negation_carries_through() {
        let f = frames("DJI never acquired Accel.");
        assert!(f[0].negated);
    }
}
