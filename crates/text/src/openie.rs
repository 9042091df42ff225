//! Open Information Extraction (ReVerb-style).
//!
//! §3.2: "we used Open Information Extraction (OpenIE) technique to obtain
//! binary or n-ary relational tuples from every sentence." The extractor
//! follows the ReVerb recipe: a relation phrase is a verb group optionally
//! extended by the preposition that introduces its object
//! (`V | V P | V W* P`), arguments are the nearest noun phrases on either
//! side. On top of that sit the "heuristics for triple extraction" the
//! paper mentions, each individually toggleable so the demo's
//! heuristic-trade-off feature (demonstration feature 1) can be reproduced:
//! appositive/copular patterns, possessive ownership, passive-voice
//! inversion, and n-ary prepositional arguments.

use crate::chunk::{self, Chunk};
use crate::pos::{Tag, Tagged};

/// A token span with its rendered surface text.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionSpan {
    pub start: usize,
    pub end: usize,
    pub text: String,
}

impl ExtractionSpan {
    fn from_chunk(c: &Chunk) -> Self {
        Self {
            start: c.start,
            end: c.end,
            text: c.text.clone(),
        }
    }
}

/// One extracted relational tuple (binary core + optional n-ary arguments).
#[derive(Debug, Clone, PartialEq)]
pub struct RawTriple {
    pub subject: ExtractionSpan,
    /// Normalised relation: main-verb lemma, suffixed with the object's
    /// introducing preposition when present (`"base_in"`, `"invest_in"`).
    pub predicate: String,
    /// The relation phrase as it appeared ("has quickly acquired").
    pub pred_surface: String,
    pub object: ExtractionSpan,
    /// Additional `(preposition, argument)` pairs — the n-ary part.
    pub extra_args: Vec<(String, ExtractionSpan)>,
    pub negated: bool,
    /// Extraction-time confidence heuristic in `[0.05, 0.95]`. This is the
    /// *extractor's* confidence, later combined with link-prediction scores.
    pub confidence: f32,
}

/// Heuristic toggles — the knobs of demonstration feature 1.
#[derive(Debug, Clone)]
pub struct ExtractorConfig {
    /// Emit `is_a` triples from copular and appositive constructions.
    pub appositives: bool,
    /// Emit `has` triples from possessive noun phrases ("DJI's drone").
    pub possessives: bool,
    /// Collect n-ary prepositional arguments after the object.
    pub nary: bool,
    /// Invert passive-voice triples ("X was acquired by Y" → Y acquire X).
    pub passive_inversion: bool,
    /// Drop triples below this confidence.
    pub min_confidence: f32,
}

impl Default for ExtractorConfig {
    fn default() -> Self {
        Self {
            appositives: true,
            possessives: true,
            nary: true,
            passive_inversion: true,
            min_confidence: 0.0,
        }
    }
}

fn main_lemma(tagged: &[Tagged], vg: &Chunk) -> String {
    tagged[vg.head]
        .lemma
        .clone()
        .unwrap_or_else(|| tagged[vg.head].token.lower())
}

fn vg_is_negated(tagged: &[Tagged], vg: &Chunk) -> bool {
    // Negation adverbs sit inside the group ("did not acquire") or directly
    // before it ("never acquired").
    let start = vg.start.saturating_sub(1);
    tagged[start..vg.end].iter().any(|t| {
        let l = t.token.lower();
        l == "not" || l == "never" || l.ends_with("n't") || l.ends_with("n’t")
    })
}

fn vg_is_passive(tagged: &[Tagged], vg: &Chunk) -> bool {
    let has_be = tagged[vg.start..vg.end]
        .iter()
        .any(|t| t.lemma.as_deref() == Some("be"));
    has_be && tagged[vg.head].tag == Tag::VBN
}

fn is_proper(tagged: &[Tagged], span: &ExtractionSpan) -> bool {
    tagged[span.start..span.end]
        .iter()
        .any(|t| t.tag == Tag::NNP)
}

fn confidence(
    tagged: &[Tagged],
    subject: &ExtractionSpan,
    object: &ExtractionSpan,
    negated: bool,
    base: f32,
) -> f32 {
    let mut c = base;
    if is_proper(tagged, subject) {
        c += 0.1;
    }
    if is_proper(tagged, object) {
        c += 0.1;
    }
    if negated {
        c -= 0.2;
    }
    if tagged[subject.start].tag == Tag::PRP {
        c -= 0.1;
    }
    if tagged.len() < 12 {
        c += 0.05;
    }
    c.clamp(0.05, 0.95)
}

/// Extract relational tuples from one tagged sentence.
pub fn extract(tagged: &[Tagged], cfg: &ExtractorConfig) -> Vec<RawTriple> {
    let nps = noun_like_phrases(tagged);
    let vgs = chunk::verb_groups(tagged);
    let mut out = Vec::new();

    for vg in &vgs {
        // Subject: nearest NP (or pronoun) ending at/before the VG.
        let subject = nps.iter().rev().find(|np| np.end <= vg.start);
        let Some(subject) = subject else { continue };

        // Object: nearest NP after the VG, optionally after one IN/TO.
        let mut prep: Option<String> = None;
        let mut k = vg.end;
        if k < tagged.len() && matches!(tagged[k].tag, Tag::IN | Tag::TO) {
            prep = Some(tagged[k].token.lower());
            k += 1;
        }
        let object = nps.iter().find(|np| np.start >= k);
        let Some(object) = object else { continue };
        // Too far away: an intervening verb group breaks the attachment.
        if vgs
            .iter()
            .any(|v| v.start >= vg.end && v.end <= object.start)
        {
            continue;
        }

        let lemma = main_lemma(tagged, vg);
        let negated = vg_is_negated(tagged, vg);
        let passive = vg_is_passive(tagged, vg);

        let mut subj_span = ExtractionSpan::from_chunk(subject);
        let mut obj_span = ExtractionSpan::from_chunk(object);

        // Copular "X is a Y" → is_a.
        if lemma == "be" && cfg.appositives {
            if object.start < tagged.len() && starts_with_indef_article(tagged, object) {
                let conf = confidence(tagged, &subj_span, &obj_span, negated, 0.65);
                if conf >= cfg.min_confidence {
                    out.push(RawTriple {
                        subject: subj_span,
                        predicate: "is_a".into(),
                        pred_surface: render_vg(tagged, vg),
                        object: obj_span,
                        extra_args: Vec::new(),
                        negated,
                        confidence: conf,
                    });
                }
            }
            continue;
        }
        if lemma == "be" || lemma == "do" {
            continue; // bare auxiliaries carry no relation
        }

        let mut predicate = lemma.clone();
        if let Some(p) = &prep {
            predicate = format!("{lemma}_{p}");
        }

        // Passive inversion: "X was acquired by Y" → (Y, acquire, X).
        if passive && cfg.passive_inversion && prep.as_deref() == Some("by") {
            std::mem::swap(&mut subj_span, &mut obj_span);
            predicate = lemma.clone();
        }

        // N-ary arguments: subsequent "IN NP" pairs.
        let mut extra_args = Vec::new();
        if cfg.nary {
            let mut pos = object.end;
            while pos + 1 < tagged.len() && tagged[pos].tag == Tag::IN {
                let p = tagged[pos].token.lower();
                if let Some(np) = nps.iter().find(|np| np.start == pos + 1) {
                    extra_args.push((p, ExtractionSpan::from_chunk(np)));
                    pos = np.end;
                } else {
                    break;
                }
            }
        }

        let conf = confidence(tagged, &subj_span, &obj_span, negated, 0.6);
        if conf >= cfg.min_confidence {
            out.push(RawTriple {
                subject: subj_span,
                predicate,
                pred_surface: render_vg(tagged, vg),
                object: obj_span,
                extra_args,
                negated,
                confidence: conf,
            });
        }
    }

    // Appositive pattern: NP , NP(with indefinite article) → is_a.
    if cfg.appositives {
        for w in nps.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if b.start == a.end + 1
                && tagged[a.end].tag == Tag::Punct
                && tagged[a.end].token.text == ","
                && starts_with_indef_article(tagged, b)
            {
                let subj = ExtractionSpan::from_chunk(a);
                let obj = ExtractionSpan::from_chunk(b);
                let conf = confidence(tagged, &subj, &obj, false, 0.55);
                if conf >= cfg.min_confidence {
                    out.push(RawTriple {
                        subject: subj,
                        predicate: "is_a".into(),
                        pred_surface: ", (appositive)".into(),
                        object: obj,
                        extra_args: Vec::new(),
                        negated: false,
                        confidence: conf,
                    });
                }
            }
        }
    }

    // Possessive pattern: NP(poss) NP → has.
    if cfg.possessives {
        for w in nps.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.possessive && b.start == a.end {
                let subj = ExtractionSpan::from_chunk(a);
                let obj = ExtractionSpan::from_chunk(b);
                let conf = confidence(tagged, &subj, &obj, false, 0.4);
                if conf >= cfg.min_confidence {
                    out.push(RawTriple {
                        subject: subj,
                        predicate: "has".into(),
                        pred_surface: "'s (possessive)".into(),
                        object: obj,
                        extra_args: Vec::new(),
                        negated: false,
                        confidence: conf,
                    });
                }
            }
        }
    }

    out
}

/// NPs plus bare pronouns (pronoun subjects participate in extraction and
/// are later rewritten by coreference).
fn noun_like_phrases(tagged: &[Tagged]) -> Vec<Chunk> {
    let mut nps = chunk::noun_phrases(tagged);
    for (i, t) in tagged.iter().enumerate() {
        if t.tag == Tag::PRP && !nps.iter().any(|np| np.start <= i && i < np.end) {
            nps.push(Chunk {
                kind: chunk::ChunkKind::NounPhrase,
                start: i,
                end: i + 1,
                head: i,
                text: t.token.text.clone(),
                possessive: false,
            });
        }
    }
    nps.sort_by_key(|c| c.start);
    nps
}

fn starts_with_indef_article(tagged: &[Tagged], np: &Chunk) -> bool {
    matches!(tagged[np.start].token.lower().as_str(), "a" | "an" | "the")
}

fn render_vg(tagged: &[Tagged], vg: &Chunk) -> String {
    tagged[vg.start..vg.end]
        .iter()
        .map(|t| t.token.text.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pos::tag;
    use crate::token::tokenize;

    fn run(input: &str) -> Vec<RawTriple> {
        extract(&tag(&tokenize(input)), &ExtractorConfig::default())
    }

    fn find<'a>(triples: &'a [RawTriple], pred: &str) -> Option<&'a RawTriple> {
        triples.iter().find(|t| t.predicate == pred)
    }

    #[test]
    fn simple_svo() {
        let t = run("DJI acquired Accel.");
        let tr = find(&t, "acquire").unwrap();
        assert_eq!(tr.subject.text, "DJI");
        assert_eq!(tr.object.text, "Accel");
        assert!(!tr.negated);
        assert!(tr.confidence > 0.6);
    }

    #[test]
    fn verb_preposition_object() {
        let t = run("DJI invested in Skydio.");
        let tr = find(&t, "invest_in").unwrap();
        assert_eq!(tr.subject.text, "DJI");
        assert_eq!(tr.object.text, "Skydio");
    }

    #[test]
    fn passive_is_inverted() {
        let t = run("Accel was acquired by DJI.");
        let tr = find(&t, "acquire").unwrap();
        assert_eq!(tr.subject.text, "DJI");
        assert_eq!(tr.object.text, "Accel");
    }

    #[test]
    fn passive_without_inversion_keeps_prep_form() {
        let cfg = ExtractorConfig {
            passive_inversion: false,
            ..Default::default()
        };
        let t = extract(&tag(&tokenize("Accel was acquired by DJI.")), &cfg);
        let tr = find(&t, "acquire_by").unwrap();
        assert_eq!(tr.subject.text, "Accel");
    }

    #[test]
    fn copular_is_a() {
        let t = run("DJI is a drone company.");
        let tr = find(&t, "is_a").unwrap();
        assert_eq!(tr.subject.text, "DJI");
        assert!(tr.object.text.contains("drone company"));
    }

    #[test]
    fn appositive_is_a() {
        let t = run("Windermere, a real-estate firm, deployed drones.");
        let tr = find(&t, "is_a").unwrap();
        assert_eq!(tr.subject.text, "Windermere");
        assert!(tr.object.text.contains("firm"));
        // Core SVO triple also comes out.
        assert!(find(&t, "deploy").is_some());
    }

    #[test]
    fn possessive_has() {
        let t = run("DJI's Phantom 4 sold well.");
        let tr = find(&t, "has").unwrap();
        assert_eq!(tr.subject.text, "DJI");
        assert!(tr.object.text.starts_with("Phantom"));
    }

    #[test]
    fn nary_arguments_collected() {
        let t = run("DJI launched the Phantom 4 in Shenzhen in March.");
        let tr = find(&t, "launch").unwrap();
        assert_eq!(tr.extra_args.len(), 2);
        assert_eq!(tr.extra_args[0].0, "in");
        assert_eq!(tr.extra_args[0].1.text, "Shenzhen");
        assert_eq!(tr.extra_args[1].1.text, "March");
    }

    #[test]
    fn negation_lowers_confidence_and_flags() {
        let pos = run("DJI acquired Accel.");
        let neg = run("DJI never acquired Accel.");
        let p = find(&pos, "acquire").unwrap();
        let n = find(&neg, "acquire").unwrap();
        assert!(n.negated);
        assert!(n.confidence < p.confidence);
    }

    #[test]
    fn min_confidence_filters() {
        let cfg = ExtractorConfig {
            min_confidence: 0.99,
            ..Default::default()
        };
        assert!(extract(&tag(&tokenize("DJI acquired Accel.")), &cfg).is_empty());
    }

    #[test]
    fn pronoun_subject_extracted_with_lower_confidence() {
        let t = run("It acquired Accel.");
        let tr = find(&t, "acquire").unwrap();
        assert_eq!(tr.subject.text, "It");
        let named = run("DJI acquired Accel.");
        assert!(tr.confidence < find(&named, "acquire").unwrap().confidence);
    }

    #[test]
    fn heuristics_can_be_disabled() {
        let cfg = ExtractorConfig {
            appositives: false,
            possessives: false,
            nary: false,
            ..Default::default()
        };
        let t = extract(
            &tag(&tokenize(
                "DJI's Phantom, a camera drone, flew in Shenzhen.",
            )),
            &cfg,
        );
        assert!(find(&t, "has").is_none());
        assert!(find(&t, "is_a").is_none());
        assert!(t.iter().all(|tr| tr.extra_args.is_empty()));
    }

    #[test]
    fn conjunction_yields_multiple_triples() {
        let t = run("DJI acquired Accel and launched a drone.");
        assert!(find(&t, "acquire").is_some());
        assert!(find(&t, "launch").is_some());
    }

    #[test]
    fn no_object_no_triple() {
        let t = run("DJI grew.");
        assert!(t.is_empty());
    }
}
