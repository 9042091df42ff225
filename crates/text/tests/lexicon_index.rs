//! The lexicon index against the linear table cascade it replaced.
//!
//! `oracle` below is the tagger's lexical lookup as it was before the
//! index: a scan of each table in precedence order, then a plural retry.
//! The index must give the same `(tag, lemma)` for every lexicon word and
//! its capitalised, possessive, plural and `n't` variants, and for every
//! token of a seeded `Preset::Large` article stream, context repairs
//! included. `verb_form` and `is_stopword` are checked the same way.

use nous_corpus::Preset;
use nous_text::lexicon::{self, *};
use nous_text::pos::{tag_owned, Tag};
use nous_text::{split_sentences, tokenize, Token, TokenKind};

/// The pre-index lookups, kept verbatim as the reference.
mod oracle {
    use super::*;

    pub fn is_stopword(lower: &str) -> bool {
        DETERMINERS.contains(&lower)
            || PREPOSITIONS.contains(&lower)
            || PRONOUNS.contains(&lower)
            || CONJUNCTIONS.contains(&lower)
            || MODALS.contains(&lower)
            || AUX_BE.contains(&lower)
            || AUX_HAVE.contains(&lower)
            || AUX_DO.contains(&lower)
            || matches!(
                lower,
                "to" | "s" | "t" | "will" | "one" | "two" | "also" | "said" | "says"
            )
    }

    pub fn verb_form(lower: &str) -> Option<(&'static str, &'static str)> {
        for &(base, third, past, ger, part) in VERB_TABLE {
            if lower == base {
                return Some((base, "VB"));
            }
            if lower == third {
                return Some((base, "VBZ"));
            }
            if lower == past {
                return Some((base, "VBD"));
            }
            if lower == ger {
                return Some((base, "VBG"));
            }
            if lower == part {
                return Some((base, "VBN"));
            }
        }
        None
    }

    fn singular_of(lower: &str) -> Option<String> {
        if let Some(stem) = lower.strip_suffix("ies") {
            return Some(format!("{stem}y"));
        }
        for suf in ["ses", "xes", "ches", "shes"] {
            if let Some(stem) = lower.strip_suffix(suf) {
                return Some(format!("{stem}{}", &suf[..suf.len() - 2]));
            }
        }
        lower
            .strip_suffix('s')
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
    }

    pub fn lexical_tag(tok: &Token) -> (Tag, Option<String>) {
        match tok.kind {
            TokenKind::Number => return (Tag::CD, None),
            TokenKind::Punct => return (Tag::Punct, None),
            TokenKind::Symbol => return (Tag::Sym, None),
            TokenKind::Word => {}
        }
        let lower = tok.lower();
        let bare = lower
            .strip_suffix("'s")
            .or_else(|| lower.strip_suffix("’s"))
            .unwrap_or(&lower);

        if bare == "to" {
            return (Tag::TO, None);
        }
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
            if MODALS.contains(&full) {
                return (Tag::MD, None);
            }
            if AUX_DO.contains(&full) {
                let tag = if full == "does" {
                    Tag::VBZ
                } else if full == "did" {
                    Tag::VBD
                } else {
                    Tag::VB
                };
                return (tag, Some("do".to_owned()));
            }
            if AUX_BE.contains(&full) {
                let tag = if matches!(full, "is" | "are") {
                    Tag::VBZ
                } else {
                    Tag::VBD
                };
                return (tag, Some("be".to_owned()));
            }
            if AUX_HAVE.contains(&full) {
                let tag = if full == "has" { Tag::VBZ } else { Tag::VBD };
                return (tag, Some("have".to_owned()));
            }
        }
        if DETERMINERS.contains(&bare) {
            return (Tag::DT, None);
        }
        if PREPOSITIONS.contains(&bare) {
            return (Tag::IN, None);
        }
        if PRONOUNS.contains(&bare) {
            return (Tag::PRP, None);
        }
        if CONJUNCTIONS.contains(&bare) {
            return (Tag::CC, None);
        }
        if MODALS.contains(&bare) {
            return (Tag::MD, None);
        }
        if AUX_BE.contains(&bare) {
            let tag = match bare {
                "is" | "are" | "am" => Tag::VBZ,
                "was" | "were" => Tag::VBD,
                "been" => Tag::VBN,
                "being" => Tag::VBG,
                _ => Tag::VB,
            };
            return (tag, Some("be".to_owned()));
        }
        if AUX_HAVE.contains(&bare) {
            let tag = match bare {
                "has" => Tag::VBZ,
                "had" => Tag::VBD,
                "having" => Tag::VBG,
                _ => Tag::VB,
            };
            return (tag, Some("have".to_owned()));
        }
        if AUX_DO.contains(&bare) {
            let tag = match bare {
                "does" => Tag::VBZ,
                "did" => Tag::VBD,
                "doing" => Tag::VBG,
                "done" => Tag::VBN,
                _ => Tag::VB,
            };
            return (tag, Some("do".to_owned()));
        }
        if let Some((lemma, form)) = verb_form(bare) {
            let tag = match form {
                "VB" => Tag::VB,
                "VBZ" => Tag::VBZ,
                "VBD" => Tag::VBD,
                "VBG" => Tag::VBG,
                _ => Tag::VBN,
            };
            return (tag, Some(lemma.to_owned()));
        }
        if ADVERBS.contains(&bare) {
            return (Tag::RB, None);
        }
        if ADJECTIVES.contains(&bare) {
            return (Tag::JJ, None);
        }
        if COMMON_NOUNS.contains(&bare) || TEMPORAL_NOUNS.contains(&bare) {
            return (Tag::NN, None);
        }
        if let Some(sing) = singular_of(bare) {
            if COMMON_NOUNS.contains(&sing.as_str()) {
                return (Tag::NNS, None);
            }
            if let Some((lemma, "VB")) = verb_form(&sing) {
                return (Tag::VBZ, Some(lemma.to_owned()));
            }
        }
        if tok.is_capitalized() {
            return (Tag::NNP, None);
        }
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

    /// `pos::tag` over the cascade: lexical tags, then the context repairs.
    pub fn tag(tokens: &[Token]) -> Vec<(Tag, Option<String>)> {
        let mut out: Vec<(Tag, Option<String>)> = tokens.iter().map(lexical_tag).collect();
        for i in 0..out.len() {
            if out[i].0 == Tag::VBD
                && i > 0
                && matches!(out[i - 1].1.as_deref(), Some("have") | Some("be"))
            {
                out[i].0 = Tag::VBN;
            }
            if out[i].0 == Tag::NN && i > 0 && matches!(out[i - 1].0, Tag::MD | Tag::TO) {
                if let Some((lemma, _)) = verb_form(&tokens[i].lower()) {
                    out[i] = (Tag::VB, Some(lemma.to_owned()));
                }
            }
            if matches!(out[i].0, Tag::VBG | Tag::VBN)
                && i + 1 < out.len()
                && out[i + 1].0.is_noun()
            {
                let after_aux =
                    i > 0 && matches!(out[i - 1].1.as_deref(), Some("be") | Some("have"));
                if !after_aux {
                    out[i].0 = Tag::JJ;
                }
            }
        }
        out
    }
}

fn tags_of(tokens: Vec<Token>) -> Vec<(Tag, Option<String>)> {
    tag_owned(tokens)
        .into_iter()
        .map(|t| (t.tag, t.lemma))
        .collect()
}

fn word(text: &str) -> Token {
    Token {
        text: text.to_owned(),
        kind: TokenKind::Word,
        start: 0,
        end: text.len(),
    }
}

fn lexicon_words() -> Vec<&'static str> {
    let tables: [&[&'static str]; 12] = [
        DETERMINERS,
        PREPOSITIONS,
        PRONOUNS,
        CONJUNCTIONS,
        MODALS,
        AUX_BE,
        AUX_HAVE,
        AUX_DO,
        ADVERBS,
        COMMON_NOUNS,
        ADJECTIVES,
        TEMPORAL_NOUNS,
    ];
    let verbs = VERB_TABLE
        .iter()
        .flat_map(|&(a, b, c, d, e)| [a, b, c, d, e]);
    let fillers = ["to", "s", "t", "one", "two", "ca", "wo", "sha", ""];
    tables
        .concat()
        .into_iter()
        .chain(verbs)
        .chain(fillers)
        .collect()
}

fn variants(w: &str) -> Vec<String> {
    let mut capitalised: String = w.chars().take(1).flat_map(char::to_uppercase).collect();
    capitalised.extend(w.chars().skip(1));
    let mut out = vec![w.to_owned(), w.to_uppercase()];
    for base in [w, capitalised.as_str()] {
        out.extend([
            base.to_owned(),
            format!("{base}'s"),
            format!("{base}’s"),
            format!("{base}s"),
            format!("{base}es"),
            format!("{base}n't"),
            format!("{base}n’t"),
            format!("{base}n't's"),
        ]);
        if let Some(stem) = base.strip_suffix('y') {
            out.push(format!("{stem}ies"));
        }
        if let Some(stem) = base.strip_suffix("n't") {
            out.push(stem.to_owned());
        }
    }
    out.retain(|v| !v.is_empty());
    out
}

#[test]
fn every_lexicon_word_and_variant_tags_as_the_cascade_did() {
    let mut checked = 0;
    for w in lexicon_words() {
        for v in variants(w) {
            let tok = word(&v);
            assert_eq!(
                tags_of(vec![tok.clone()]),
                vec![oracle::lexical_tag(&tok)],
                "tag of {v:?}"
            );
            let lower = v.to_lowercase();
            assert_eq!(
                lexicon::verb_form(&lower),
                oracle::verb_form(&lower),
                "verb_form({lower:?})"
            );
            assert_eq!(
                lexicon::is_stopword(&lower),
                oracle::is_stopword(&lower),
                "is_stopword({lower:?})"
            );
            checked += 1;
        }
    }
    assert!(checked > 4000, "{checked} variants");
}

#[test]
fn every_corpus_token_tags_as_the_cascade_did() {
    let (_, _, articles) = Preset::Large.build();
    let mut tokens = 0;
    for article in &articles {
        for sentence in split_sentences(&article.body) {
            let toks = tokenize(&sentence.text);
            tokens += toks.len();
            let expected = oracle::tag(&toks);
            for t in &toks {
                if t.kind == TokenKind::Word {
                    let lower = t.lower();
                    assert_eq!(lexicon::is_stopword(&lower), oracle::is_stopword(&lower));
                }
            }
            assert_eq!(tags_of(toks), expected, "{:?}", sentence.text);
        }
    }
    assert!(tokens > 100_000, "{tokens} tokens");
}
