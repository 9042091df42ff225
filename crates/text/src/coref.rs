//! Heuristic coreference resolution.
//!
//! NOUS §3.2: "We also perform named entity extraction and co-reference
//! resolution, and used this information to implement heuristics for triple
//! extraction." Three families of coreference are resolved, in priority
//! order, each to the most recent compatible antecedent mention:
//!
//! 1. **Pronouns** — `he`/`she` → Person, `it` → Organization/Product,
//!    `they` → Organization.
//! 2. **Definite nominals** — "the company" → most recent Organization,
//!    "the drone" → Product, "the city" → Location, etc.
//! 3. **Partial names** — a short mention whose words are a prefix or
//!    suffix of an earlier longer mention ("DJI Technology Co." … "DJI")
//!    links to the longer canonical form.

use crate::chunk::Chunk;
use crate::ner::{EntityType, Mention};
use crate::pos::{Tag, Tagged};

/// One resolved anaphor: the surface at `(sentence, token_start..token_end)`
/// refers to `antecedent`.
#[derive(Debug, Clone, PartialEq)]
pub struct CorefResolution {
    pub sentence: usize,
    pub token_start: usize,
    pub token_end: usize,
    pub surface: String,
    pub antecedent: String,
    pub entity_type: EntityType,
}

/// Nominal heads that corefer with a typed antecedent when definite.
fn nominal_target(head: &str) -> Option<EntityType> {
    Some(match head {
        "company" | "firm" | "startup" | "manufacturer" | "maker" | "regulator" | "agency"
        | "rival" | "competitor" | "organization" => EntityType::Organization,
        "drone" | "device" | "product" | "aircraft" | "model" => EntityType::Product,
        "city" | "country" | "region" | "town" => EntityType::Location,
        "executive" | "founder" | "chief" | "spokesman" | "spokeswoman" | "man" | "woman" => {
            EntityType::Person
        }
        _ => return None,
    })
}

fn pronoun_targets(lower: &str) -> Option<&'static [EntityType]> {
    Some(match lower {
        "he" | "she" | "him" | "her" => &[EntityType::Person],
        "it" | "its" => &[
            EntityType::Organization,
            EntityType::Product,
            EntityType::Other,
        ],
        "they" | "them" | "their" => &[EntityType::Organization, EntityType::Other],
        _ => return None,
    })
}

/// Do `a` and `b` lower-case to the same string? Allocates only when one
/// of them is not ASCII.
fn same_lowercase(a: &str, b: &str) -> bool {
    if a.is_ascii() && b.is_ascii() {
        a.eq_ignore_ascii_case(b)
    } else {
        a.to_lowercase() == b.to_lowercase()
    }
}

/// Is `short` a word-prefix or word-suffix of `long` (case-insensitive)?
fn is_partial_name(short: &str, long: &str) -> bool {
    if short.eq_ignore_ascii_case(long) {
        return false;
    }
    let s = short.split_whitespace().count();
    let l = long.split_whitespace().count();
    if s == 0 || s >= l {
        return false;
    }
    let words_from = |skip: usize| {
        short
            .split_whitespace()
            .zip(long.split_whitespace().skip(skip))
            .all(|(a, b)| same_lowercase(a, b))
    };
    words_from(0) || words_from(l - s)
}

/// History of candidate antecedents, most recent last.
#[derive(Debug, Default)]
struct History {
    /// `(canonical text, type, was-a-subject)` in order of appearance;
    /// re-mentions refresh recency by re-pushing.
    entries: Vec<(String, EntityType, bool)>,
}

impl History {
    fn push(&mut self, text: &str, ty: EntityType, subject: bool) {
        self.entries.retain(|(t, ..)| !t.eq_ignore_ascii_case(text));
        self.entries.push((text.to_owned(), ty, subject));
    }

    /// Most recent compatible antecedent, preferring grammatical subjects —
    /// the classic salience heuristic: "Apex makes the Phantom. It …" binds
    /// "It" to the subject Apex, not the more recent object Phantom.
    fn most_recent(&self, types: &[EntityType]) -> Option<(&String, EntityType)> {
        self.entries
            .iter()
            .rev()
            .find(|(_, t, subject)| *subject && types.contains(t))
            .or_else(|| {
                self.entries
                    .iter()
                    .rev()
                    .find(|(_, t, _)| types.contains(t))
            })
            .map(|(text, ty, _)| (text, *ty))
    }

    fn longer_form(&self, short: &str) -> Option<(&String, EntityType)> {
        self.entries
            .iter()
            .rev()
            .find(|(t, ..)| is_partial_name(short, t))
            .map(|(text, ty, _)| (text, *ty))
    }
}

/// Resolve coreference across a document.
///
/// `sentences` yields each sentence's tagged tokens, its noun phrases
/// ([`chunk::noun_phrases`](crate::chunk::noun_phrases) of the tokens) and
/// its detected mentions, in document order. Returns all resolutions
/// found; it also returns partial-name links for mentions (so extraction
/// can canonicalise "DJI" to "DJI Technology Co" when both appear).
pub fn resolve<'a>(
    sentences: impl IntoIterator<Item = (&'a [Tagged], &'a [Chunk], &'a [Mention])>,
) -> Vec<CorefResolution> {
    let mut history = History::default();
    let mut out = Vec::new();

    for (sidx, (tagged, noun_phrases, mentions)) in sentences.into_iter().enumerate() {
        // 3. Partial names: link then refresh history with canonical form.
        for m in mentions {
            if let Some((canon, ty)) = history.longer_form(&m.text) {
                out.push(CorefResolution {
                    sentence: sidx,
                    token_start: m.start,
                    token_end: m.end,
                    surface: m.text.clone(),
                    antecedent: canon.clone(),
                    entity_type: ty,
                });
            }
        }

        // 1. Pronouns.
        for (tidx, t) in tagged.iter().enumerate() {
            if t.tag != Tag::PRP {
                continue;
            }
            if let Some(types) = pronoun_targets(&t.lower) {
                if let Some((ante, ty)) = history.most_recent(types) {
                    let ante = ante.clone();
                    out.push(CorefResolution {
                        sentence: sidx,
                        token_start: tidx,
                        token_end: tidx + 1,
                        surface: t.token.text.clone(),
                        antecedent: ante.clone(),
                        entity_type: ty,
                    });
                    // The anaphor re-mentions the antecedent: refresh its
                    // recency (subject when the pronoun opens the sentence).
                    history.push(&ante, ty, tidx == 0);
                }
            }
        }

        // 2. Definite nominals ("the company").
        for np in noun_phrases {
            let head = &tagged[np.head];
            if head.tag != Tag::NN {
                continue;
            }
            let starts_with_the = tagged[np.start].lower == "the";
            if !starts_with_the {
                continue;
            }
            if let Some(ty) = nominal_target(&head.lower) {
                if let Some((ante, aty)) = history.most_recent(&[ty]) {
                    let ante = ante.clone();
                    out.push(CorefResolution {
                        sentence: sidx,
                        token_start: np.start,
                        token_end: np.end,
                        surface: np.text.clone(),
                        antecedent: ante.clone(),
                        entity_type: aty,
                    });
                    history.push(&ante, aty, np.start == 0);
                }
            }
        }

        // Update history *after* resolving this sentence, so anaphors don't
        // resolve to mentions in the same sentence appearing later. A
        // sentence-initial mention is the grammatical subject (to a good
        // approximation in news prose).
        for m in mentions {
            let canon = history
                .longer_form(&m.text)
                .map(|(t, _)| t.clone())
                .unwrap_or_else(|| m.text.clone());
            history.push(&canon, m.entity_type, m.start == 0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::noun_phrases;
    use crate::ner::{mentions, Gazetteer};
    use crate::pos::tag;
    use crate::token::tokenize;

    fn resolve_doc(text: &str, gaz: &Gazetteer) -> Vec<CorefResolution> {
        let sentences: Vec<_> = crate::sentence::split_sentences(text)
            .iter()
            .map(|s| {
                let tagged = tag(&tokenize(&s.text));
                let nps = noun_phrases(&tagged);
                let m = mentions(&tagged, &nps, gaz);
                (tagged, nps, m)
            })
            .collect();
        resolve(
            sentences
                .iter()
                .map(|(t, nps, m)| (t.as_slice(), nps.as_slice(), m.as_slice())),
        )
    }

    fn org_gaz() -> Gazetteer {
        let mut g = Gazetteer::new();
        g.insert("DJI", EntityType::Organization);
        g.insert("Parrot", EntityType::Organization);
        g.insert("Frank Wang", EntityType::Person);
        g
    }

    #[test]
    fn it_resolves_to_recent_org() {
        let res = resolve_doc(
            "DJI announced a drone. It also opened an office.",
            &org_gaz(),
        );
        let it = res.iter().find(|r| r.surface == "It").unwrap();
        assert_eq!(it.antecedent, "DJI");
        assert_eq!(it.entity_type, EntityType::Organization);
        assert_eq!(it.sentence, 1);
    }

    #[test]
    fn he_resolves_to_person_not_org() {
        let res = resolve_doc(
            "Frank Wang founded DJI. He led the company for years.",
            &org_gaz(),
        );
        let he = res.iter().find(|r| r.surface == "He").unwrap();
        assert_eq!(he.antecedent, "Frank Wang");
    }

    #[test]
    fn definite_nominal_resolves() {
        let res = resolve_doc(
            "Frank Wang founded DJI. He led the company for years.",
            &org_gaz(),
        );
        let nom = res.iter().find(|r| r.surface.contains("company")).unwrap();
        assert_eq!(nom.antecedent, "DJI");
    }

    #[test]
    fn recency_wins() {
        let res = resolve_doc(
            "Parrot struggled. DJI expanded. It won the market.",
            &org_gaz(),
        );
        let it = res.iter().find(|r| r.surface == "It").unwrap();
        assert_eq!(it.antecedent, "DJI", "most recent org wins");
    }

    #[test]
    fn partial_name_links_to_long_form() {
        let mut gaz = org_gaz();
        gaz.insert("DJI Technology Co.", EntityType::Organization);
        let res = resolve_doc(
            "DJI Technology Co. unveiled a drone. DJI said sales rose.",
            &gaz,
        );
        let link = res.iter().find(|r| r.surface == "DJI").unwrap();
        assert_eq!(link.antecedent, "DJI Technology Co.");
    }

    #[test]
    fn no_antecedent_no_resolution() {
        assert!(resolve_doc("It was raining.", &Gazetteer::new()).is_empty());
    }

    #[test]
    fn same_sentence_mentions_do_not_serve_as_antecedents() {
        // "It" in sentence 0 has no prior sentence; DJI appears later in the
        // same sentence and must not be used.
        let res = resolve_doc("It beat DJI. DJI recovered.", &org_gaz());
        assert!(!res.iter().any(|r| r.surface == "It"));
    }

    #[test]
    fn partial_name_helper() {
        assert!(is_partial_name("DJI", "DJI Technology Co."));
        assert!(is_partial_name("Wang", "Frank Wang"));
        assert!(!is_partial_name("DJI", "DJI"));
        // Only prefixes/suffixes link; bare middle words are too ambiguous.
        assert!(!is_partial_name("Technology", "DJI Technology Co."));
        assert!(!is_partial_name("DJI Co", "DJI Technology Co."));
    }
}
