//! Shallow chunking: noun phrases and verb groups.
//!
//! The OpenIE stage needs exactly two shallow structures: noun phrases
//! (relation arguments) and verb groups (relation phrases). The NP grammar
//! is `(DT)? (JJ|CD)* (NN|NNS|NNP)+`, with a split at possessive markers so
//! that `"DJI's Phantom 4"` yields two NPs (`DJI`, `Phantom 4`) — the
//! possessive itself is surfaced so extraction can emit an ownership triple,
//! one of the "heuristics for triple extraction" §3.2 mentions.

use crate::pos::{Tag, Tagged};

/// Kind of a shallow chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkKind {
    NounPhrase,
    VerbGroup,
}

/// A contiguous chunk over the tagged token sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    pub kind: ChunkKind,
    /// Token index range `[start, end)` into the tagged sentence.
    pub start: usize,
    pub end: usize,
    /// Index of the head token (last noun of an NP, main verb of a VG).
    pub head: usize,
    /// Surface text with possessive markers stripped.
    pub text: String,
    /// For NPs: whether the phrase carried a possessive marker (`DJI's`).
    pub possessive: bool,
}

fn strip_possessive(s: &str) -> &str {
    s.strip_suffix("'s")
        .or_else(|| s.strip_suffix("’s"))
        .unwrap_or(s)
}

fn has_possessive(s: &str) -> bool {
    s.ends_with("'s") || s.ends_with("’s")
}

fn render(tagged: &[Tagged], start: usize, end: usize) -> String {
    let mut out = String::new();
    for t in &tagged[start..end] {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(strip_possessive(&t.token.text));
    }
    out
}

/// Extract all noun phrases, in order.
pub fn noun_phrases(tagged: &[Tagged]) -> Vec<Chunk> {
    let mut out = Vec::new();
    let n = tagged.len();
    let mut i = 0;
    while i < n {
        // Optional determiner.
        let start = i;
        let mut j = i;
        if j < n && tagged[j].tag == Tag::DT {
            j += 1;
        }
        // Modifiers.
        while j < n && matches!(tagged[j].tag, Tag::JJ | Tag::CD) {
            j += 1;
        }
        // Noun run, splitting after any possessive-marked token.
        let noun_start = j;
        let mut possessive = false;
        let mut head = j;
        while j < n {
            let t = &tagged[j];
            if t.tag.is_noun() {
                head = j;
            } else if !(t.tag == Tag::CD && j > noun_start) {
                // Trailing numbers stay inside the NP ("Phantom 4").
                break;
            }
            let tok_text = &t.token.text;
            j += 1;
            if has_possessive(tok_text) {
                possessive = true;
                break;
            }
        }
        if j > noun_start && tagged[noun_start].tag.is_noun() {
            out.push(Chunk {
                kind: ChunkKind::NounPhrase,
                start,
                end: j,
                head,
                text: render(tagged, start, j),
                possessive,
            });
            i = j;
        } else if j == noun_start
            && noun_start > start
            && tagged[start..noun_start].iter().all(|t| t.tag == Tag::CD)
        {
            // Bare numeric phrase ("in 2015", "cost 1,200"): a degenerate NP
            // whose head is the number — needed for temporal SRL adjuncts.
            out.push(Chunk {
                kind: ChunkKind::NounPhrase,
                start,
                end: noun_start,
                head: noun_start - 1,
                text: render(tagged, start, noun_start),
                possessive: false,
            });
            i = noun_start;
        } else {
            i = start.max(j) + 1;
        }
    }
    out
}

/// Extract verb groups: `(MD)? (RB)* (AUX|V)+ (RB)*` sequences containing at
/// least one non-adverb verb; `head` is the last main verb of the group.
pub fn verb_groups(tagged: &[Tagged]) -> Vec<Chunk> {
    let mut out = Vec::new();
    let n = tagged.len();
    let mut i = 0;
    while i < n {
        if !(tagged[i].tag.is_verb() || tagged[i].tag == Tag::MD) {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i;
        let mut last_verb = None;
        while j < n {
            match tagged[j].tag {
                t if t.is_verb() => {
                    last_verb = Some(j);
                    j += 1;
                }
                Tag::MD => {
                    j += 1;
                }
                Tag::RB if j + 1 < n && (tagged[j + 1].tag.is_verb()) => {
                    // Adverb inside the group ("has quickly acquired").
                    j += 1;
                }
                _ => break,
            }
        }
        if let Some(head) = last_verb {
            out.push(Chunk {
                kind: ChunkKind::VerbGroup,
                start,
                end: j,
                head,
                text: render(tagged, start, j),
                possessive: false,
            });
        }
        i = j.max(start + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pos::tag;
    use crate::token::tokenize;

    fn nps(input: &str) -> Vec<String> {
        noun_phrases(&tag(&tokenize(input)))
            .into_iter()
            .map(|c| c.text)
            .collect()
    }

    fn vgs(input: &str) -> Vec<String> {
        verb_groups(&tag(&tokenize(input)))
            .into_iter()
            .map(|c| c.text)
            .collect()
    }

    #[test]
    fn simple_np_extraction() {
        assert_eq!(
            nps("The new drone reached the market."),
            vec!["The new drone", "the market"]
        );
    }

    #[test]
    fn proper_noun_sequences_stay_together() {
        assert_eq!(
            nps("Wall Street Journal reported it."),
            vec!["Wall Street Journal"]
        );
    }

    #[test]
    fn possessive_splits_nps() {
        let chunks = noun_phrases(&tag(&tokenize("DJI's Phantom 4 sold well.")));
        assert_eq!(chunks[0].text, "DJI");
        assert!(chunks[0].possessive);
        assert!(chunks[1].text.starts_with("Phantom"));
        assert!(!chunks[1].possessive);
    }

    #[test]
    fn np_head_is_last_noun() {
        let chunks = noun_phrases(&tag(&tokenize("the leading drone company grew")));
        assert_eq!(chunks[0].text, "the leading drone company");
        let tagged = tag(&tokenize("the leading drone company grew"));
        assert_eq!(tagged[chunks[0].head].token.text, "company");
    }

    #[test]
    fn verb_group_with_auxiliaries() {
        assert_eq!(
            vgs("The firm has quickly acquired a rival."),
            vec!["has quickly acquired"]
        );
    }

    #[test]
    fn modal_verb_group() {
        assert_eq!(vgs("Regulators will ban drones."), vec!["will ban"]);
    }

    #[test]
    fn multiple_verb_groups() {
        let v = vgs("DJI acquired Accel and launched a drone.");
        assert_eq!(v, vec!["acquired", "launched"]);
    }

    #[test]
    fn verb_group_head_is_main_verb() {
        let tagged = tag(&tokenize("The firm has acquired a rival."));
        let groups = verb_groups(&tagged);
        assert_eq!(groups.len(), 1);
        assert_eq!(tagged[groups[0].head].token.text, "acquired");
    }

    #[test]
    fn numbers_as_np_modifiers() {
        assert_eq!(nps("DJI sold 400 drones."), vec!["DJI", "400 drones"]);
    }

    #[test]
    fn no_chunks_in_function_word_soup() {
        assert!(nps("of and the in").is_empty());
        assert!(vgs("of and the in").is_empty());
    }
}
