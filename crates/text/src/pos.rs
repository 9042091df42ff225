//! Part-of-speech tagging.
//!
//! A lexicon + suffix + context tagger over a compact Penn-style tag set.
//! Accuracy on open-domain English is far below a trained tagger, but the
//! extraction pipeline only relies on the distinctions that matter for
//! OpenIE: noun vs. verb vs. function word, proper vs. common noun, and
//! verb inflection (for relation-phrase detection and lemmatisation).

use crate::lexicon;
use crate::token::{Token, TokenKind};

/// Compact Penn-style tag set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// Determiner
    DT,
    /// Preposition / subordinating conjunction
    IN,
    /// Pronoun
    PRP,
    /// Coordinating conjunction
    CC,
    /// Modal
    MD,
    /// Cardinal number
    CD,
    /// Infinitival "to"
    TO,
    /// Adverb
    RB,
    /// Adjective
    JJ,
    /// Common noun, singular
    NN,
    /// Common noun, plural
    NNS,
    /// Proper noun
    NNP,
    /// Verb, base form
    VB,
    /// Verb, 3rd person singular present
    VBZ,
    /// Verb, past tense
    VBD,
    /// Verb, gerund
    VBG,
    /// Verb, past participle
    VBN,
    /// Punctuation
    Punct,
    /// Symbol ($, %)
    Sym,
}

impl Tag {
    /// Any verbal tag (used by chunking and OpenIE relation phrases).
    pub fn is_verb(self) -> bool {
        matches!(self, Tag::VB | Tag::VBZ | Tag::VBD | Tag::VBG | Tag::VBN)
    }

    /// Any nominal tag.
    pub fn is_noun(self) -> bool {
        matches!(self, Tag::NN | Tag::NNS | Tag::NNP)
    }
}

/// A token with its lower-cased form, its tag and (for known verbs) lemma.
#[derive(Debug, Clone, PartialEq)]
pub struct Tagged {
    pub token: Token,
    /// `token.text` lower-cased, computed once when the token is tagged.
    /// Every later stage reads it instead of lower-casing again.
    pub lower: String,
    pub tag: Tag,
    /// Lemma for verbs found in the lexicon table.
    pub lemma: Option<String>,
}

/// Tag by lexicon lookup and surface shape, ignoring context. `lower` is
/// `tok.text` lower-cased.
fn lexical_tag(tok: &Token, lower: &str) -> (Tag, Option<String>) {
    match tok.kind {
        TokenKind::Number => return (Tag::CD, None),
        TokenKind::Punct => return (Tag::Punct, None),
        TokenKind::Symbol => return (Tag::Sym, None),
        TokenKind::Word => {}
    }
    // Strip possessive for lookup purposes ("DJI's" -> "DJI").
    let bare = lower
        .strip_suffix("'s")
        .or_else(|| lower.strip_suffix("’s"))
        .unwrap_or(lower);

    // Negative contractions: resolve the auxiliary ("didn't" -> did).
    if let Some(stem) = bare
        .strip_suffix("n't")
        .or_else(|| bare.strip_suffix("n’t"))
    {
        let full = match stem {
            "ca" => "can",
            "wo" => "will",
            "sha" => "shall",
            other => other,
        };
        match lexicon::lookup(full).and_then(|e| e.tag) {
            Some((Tag::MD, _)) => return (Tag::MD, None),
            Some((_, Some(aux @ ("be" | "have" | "do")))) => {
                let tag = match full {
                    "is" | "are" | "has" | "does" => Tag::VBZ,
                    "do" | "doing" | "done" => Tag::VB,
                    _ => Tag::VBD,
                };
                return (tag, Some(aux.to_owned()));
            }
            _ => {}
        }
    }
    if let Some((tag, lemma)) = lexicon::lookup(bare).and_then(|e| e.tag) {
        return (tag, lemma.map(str::to_owned));
    }
    // Proper noun: an unknown capitalised word in any position — in news
    // text, unknown capitalised words are overwhelmingly entity names, so
    // this outranks the suffix heuristics ("Skyward" is not a gerund).
    if tok.is_capitalized() {
        return (Tag::NNP, None);
    }
    // Suffix heuristics for unknown open-class words.
    if bare.len() > 3 {
        if bare.ends_with("ly") {
            return (Tag::RB, None);
        }
        if bare.ends_with("ing") {
            return (Tag::VBG, None);
        }
        if bare.ends_with("ed") {
            return (Tag::VBN, None);
        }
        if ["ous", "ful", "ive", "ble", "ish", "ant", "ent"]
            .iter()
            .any(|s| bare.ends_with(s))
        {
            return (Tag::JJ, None);
        }
        if [
            "tion", "sion", "ment", "ness", "ship", "ism", "ure", "ance", "ence",
        ]
        .iter()
        .any(|s| bare.ends_with(s))
        {
            return (Tag::NN, None);
        }
        if bare.ends_with('s') && !bare.ends_with("ss") {
            return (Tag::NNS, None);
        }
    }
    (Tag::NN, None)
}

/// [`tag_owned`] over a copy of `tokens`.
pub fn tag(tokens: &[Token]) -> Vec<Tagged> {
    tag_owned(tokens.to_vec())
}

/// Tag a tokenised sentence, moving the tokens into the output. Applies
/// lexical tagging then a small set of contextual repair rules.
pub fn tag_owned(tokens: Vec<Token>) -> Vec<Tagged> {
    let mut out: Vec<Tagged> = tokens
        .into_iter()
        .map(|token| {
            let lower = token.text.to_lowercase();
            let (tag, lemma) = lexical_tag(&token, &lower);
            Tagged {
                token,
                lower,
                tag,
                lemma,
            }
        })
        .collect();
    // Context repairs.
    for i in 0..out.len() {
        // VBD after have/be auxiliary -> VBN ("has acquired").
        if out[i].tag == Tag::VBD && i > 0 {
            let prev_lemma = out[i - 1].lemma.as_deref();
            if matches!(prev_lemma, Some("have") | Some("be")) {
                out[i].tag = Tag::VBN;
            }
        }
        // Base-form noun after a modal or "to" is a verb ("will ban", "to ban").
        if matches!(out[i].tag, Tag::NN) && i > 0 && matches!(out[i - 1].tag, Tag::MD | Tag::TO) {
            if let Some((lemma, _)) = lexicon::verb_form(&out[i].lower) {
                out[i].tag = Tag::VB;
                out[i].lemma = Some(lemma.to_owned());
            }
        }
        // Participle directly before a noun acts as an adjective
        // ("leading company", "unmanned aircraft") — only when not preceded
        // by an auxiliary (which would make it a passive/progressive verb).
        if matches!(out[i].tag, Tag::VBG | Tag::VBN)
            && i + 1 < out.len()
            && out[i + 1].tag.is_noun()
        {
            let after_aux =
                i > 0 && matches!(out[i - 1].lemma.as_deref(), Some("be") | Some("have"));
            if !after_aux {
                out[i].tag = Tag::JJ;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::tokenize;

    fn tags(input: &str) -> Vec<Tag> {
        tag(&tokenize(input)).into_iter().map(|t| t.tag).collect()
    }

    #[test]
    fn svo_sentence() {
        assert_eq!(
            tags("DJI acquired Accel."),
            vec![Tag::NNP, Tag::VBD, Tag::NNP, Tag::Punct]
        );
    }

    #[test]
    fn determiner_adjective_noun() {
        assert_eq!(
            tags("The new drone flies."),
            vec![Tag::DT, Tag::JJ, Tag::NN, Tag::VBZ, Tag::Punct]
        );
    }

    #[test]
    fn auxiliary_flips_past_to_participle() {
        let t = tags("The firm has acquired a startup.");
        assert_eq!(t[3], Tag::VBN, "acquired after has");
        let t2 = tags("The firm acquired a startup.");
        assert_eq!(t2[2], Tag::VBD);
    }

    #[test]
    fn modal_fixes_base_verb() {
        let t = tag(&tokenize("Regulators will ban drones."));
        assert_eq!(t[2].tag, Tag::VB);
        assert_eq!(t[2].lemma.as_deref(), Some("ban"));
    }

    #[test]
    fn participle_before_noun_is_adjective() {
        let t = tags("The leading company sells unmanned aircraft.");
        assert_eq!(t[1], Tag::JJ, "leading");
        // "unmanned" is in the adjective lexicon already; check an unknown:
        let t2 = tags("A camera-equipped drone landed.");
        assert_eq!(t2[1], Tag::JJ, "camera-equipped before noun");
    }

    #[test]
    fn plural_nouns() {
        let t = tags("Companies sell drones in cities.");
        // "Companies" is sentence-initial capitalised and a known plural noun.
        assert_eq!(t[2], Tag::NNS, "drones");
        assert_eq!(t[4], Tag::NNS, "cities");
    }

    #[test]
    fn numbers_and_symbols() {
        assert_eq!(
            tags("Shares rose 20 % in 2015."),
            vec![
                Tag::NNS,
                Tag::VBD,
                Tag::CD,
                Tag::Sym,
                Tag::IN,
                Tag::CD,
                Tag::Punct
            ]
        );
    }

    #[test]
    fn proper_nouns_mid_sentence() {
        let t = tags("Analysts at Windermere track drones.");
        assert_eq!(t[2], Tag::NNP, "Windermere");
    }

    #[test]
    fn suffix_heuristics() {
        let t = tags("the zorgly brimful flotation vexes");
        assert_eq!(t[1], Tag::RB, "-ly");
        assert_eq!(t[2], Tag::JJ, "-ful");
        assert_eq!(t[3], Tag::NN, "-tion");
    }

    #[test]
    fn possessives_keep_proper_tag() {
        let t = tags("DJI's drone flew.");
        assert_eq!(t[0], Tag::NNP);
    }

    #[test]
    fn verb_lemmas_attach() {
        let t = tag(&tokenize("DJI manufactures drones."));
        assert_eq!(t[1].lemma.as_deref(), Some("manufacture"));
    }

    #[test]
    fn tag_class_helpers() {
        assert!(Tag::VBZ.is_verb());
        assert!(!Tag::NN.is_verb());
        assert!(Tag::NNP.is_noun());
        assert!(!Tag::JJ.is_noun());
    }
}
