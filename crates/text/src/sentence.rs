//! Abbreviation-aware sentence splitting.
//!
//! Operates on raw text (before tokenisation) and returns sentence spans,
//! so the extraction pipeline can report sentence-level provenance. A period
//! ends a sentence unless it terminates a known abbreviation ("Inc.",
//! "Mr.", "U.S.") or sits inside a token ("3.5", "example.com").

use crate::token::char_at;

/// A sentence with its byte span into the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sentence {
    pub text: String,
    pub start: usize,
    pub end: usize,
}

/// Abbreviations whose trailing period does not end a sentence.
/// Compared case-insensitively against the word before the period.
const ABBREVIATIONS: &[&str] = &[
    "mr", "mrs", "ms", "dr", "prof", "inc", "corp", "co", "ltd", "llc", "jr", "sr", "st", "vs",
    "etc", "est", "dept", "gov", "sen", "rep", "gen", "col", "jan", "feb", "mar", "apr", "jun",
    "jul", "aug", "sep", "sept", "oct", "nov", "dec", "no", "vol", "fig", "approx",
];

fn word_before(text: &str, period_idx: usize) -> &str {
    let head = &text[..period_idx];
    let start = head
        .rfind(|c: char| !c.is_alphanumeric() && c != '.')
        .map(|i| i + head[i..].chars().next().map_or(1, char::len_utf8))
        .unwrap_or(0);
    &head[start..]
}

/// `ABBREVIATIONS` contains `word`, compared case-insensitively. ASCII
/// case folding is exact here: no listed abbreviation holds a letter that
/// a non-ASCII character lower-cases to.
fn is_listed_abbreviation(word: &str) -> bool {
    ABBREVIATIONS.iter().any(|a| a.eq_ignore_ascii_case(word))
}

/// True when the period at `idx` most likely terminates an abbreviation
/// rather than a sentence.
fn is_abbreviation_period(text: &str, idx: usize) -> bool {
    let w = word_before(text, idx);
    if w.is_empty() {
        return false;
    }
    if is_listed_abbreviation(w) {
        return true;
    }
    // Initials / dotted acronyms: "U.S", "J.R", single capital "J".
    let mut letters = w.split('.').filter(|p| !p.is_empty()).peekable();
    letters.peek().is_some() && letters.all(|p| p.chars().count() == 1)
}

/// Split `text` into sentences. Terminators are `.`, `!`, `?` followed by
/// whitespace-then-capital (or end of input); newlines followed by a blank
/// line (paragraph breaks) also split. A period directly followed by a
/// letter or digit is never a terminator: it sits inside a token
/// (`example.com`, `3.5`), and no sentence boundary falls inside a token.
pub fn split_sentences(text: &str) -> Vec<Sentence> {
    let mut out = Vec::new();
    let mut sent_start = 0usize;
    let mut i = 0usize;

    let push = |start: usize, end: usize, out: &mut Vec<Sentence>| {
        let raw = &text[start..end];
        let trimmed = raw.trim();
        if !trimmed.is_empty() {
            let lead = raw.len() - raw.trim_start().len();
            out.push(Sentence {
                text: trimmed.to_owned(),
                start: start + lead,
                end: start + lead + trimmed.len(),
            });
        }
    };

    while let Some(c) = char_at(text, i) {
        // The terminators and the newline are one byte each.
        let next = char_at(text, i + c.len_utf8());
        if matches!(c, '.' | '!' | '?') {
            if c == '.' && next.is_some_and(char::is_alphanumeric) {
                i += 1;
                continue;
            }
            if c == '.' && is_abbreviation_period(text, i) {
                // Still a boundary if what follows clearly starts a new
                // sentence AND the abbreviation is a dotted acronym like
                // "U.S." (honorifics such as "Mr." never end sentences).
                let honorific = is_listed_abbreviation(word_before(text, i));
                let after_dots = i + text[i..].len() - text[i..].trim_start_matches('.').len();
                let rest = text[after_dots..].trim_start();
                let next_cap = rest.chars().next().is_some_and(char::is_uppercase);
                let followed_by_space = char_at(text, after_dots).is_some_and(char::is_whitespace);
                if honorific || !(followed_by_space && (next_cap || rest.is_empty())) {
                    i += 1;
                    continue;
                }
                // Heuristic: treat "U.S. The" as a boundary only when the
                // next word is a common sentence opener; otherwise assume
                // the acronym modifies what follows ("U.S. Army").
                let opener = [
                    "The ", "It ", "A ", "In ", "On ", "But ", "He ", "She ", "They ",
                ]
                .iter()
                .any(|o| rest.starts_with(o));
                if !opener {
                    i += 1;
                    continue;
                }
            }
            // Consume the terminator plus any run of closing quotes/brackets.
            let tail = &text[i + 1..];
            let end = text.len()
                - tail
                    .trim_start_matches(['"', '\'', ')', ']', '’', '”'])
                    .len();
            push(sent_start, end, &mut out);
            sent_start = end;
            i = end;
            continue;
        }
        // Paragraph break.
        if c == '\n' && next == Some('\n') {
            push(sent_start, i, &mut out);
            sent_start = i;
        }
        i += c.len_utf8();
    }
    push(sent_start, text.len(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sents(input: &str) -> Vec<String> {
        split_sentences(input).into_iter().map(|s| s.text).collect()
    }

    #[test]
    fn basic_split() {
        assert_eq!(
            sents("DJI makes drones. Parrot makes drones too."),
            vec!["DJI makes drones.", "Parrot makes drones too."]
        );
    }

    #[test]
    fn honorific_abbreviations_do_not_split() {
        assert_eq!(
            sents("Mr. Wang founded DJI. It grew fast."),
            vec!["Mr. Wang founded DJI.", "It grew fast."]
        );
    }

    #[test]
    fn corporate_suffixes_do_not_split() {
        let s = sents("Amazon Inc. acquired the startup. The deal closed.");
        assert_eq!(s.len(), 2);
        assert!(s[0].contains("Inc. acquired"));
    }

    #[test]
    fn acronym_mid_sentence() {
        let s = sents("The U.S. regulator approved drones. Sales rose.");
        assert_eq!(s.len(), 2);
        assert!(s[0].starts_with("The U.S. regulator"));
    }

    #[test]
    fn acronym_at_sentence_end_before_opener() {
        let s = sents("The company moved to the U.S. The market welcomed it.");
        assert_eq!(s.len(), 2, "got: {s:?}");
    }

    #[test]
    fn decimals_do_not_split() {
        let s = sents("Shares rose 3.5 percent. Analysts cheered.");
        assert_eq!(s.len(), 2);
        assert!(s[0].contains("3.5 percent"));
    }

    #[test]
    fn question_and_exclamation() {
        assert_eq!(
            sents("Why did DJI win? Scale! And focus."),
            vec!["Why did DJI win?", "Scale!", "And focus."]
        );
    }

    #[test]
    fn trailing_quote_attaches_to_sentence() {
        let s = sents("He said \"drones are the future.\" Markets agreed.");
        assert_eq!(s.len(), 2);
        assert!(s[0].ends_with("future.\""));
    }

    #[test]
    fn spans_index_into_source() {
        let input = "  DJI makes drones.  Parrot competes.  ";
        for s in split_sentences(input) {
            assert_eq!(&input[s.start..s.end], s.text);
        }
    }

    #[test]
    fn paragraph_breaks_split_without_period() {
        let s = sents("Headline about drones\n\nThe body starts here.");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], "Headline about drones");
    }

    #[test]
    fn empty_input() {
        assert!(split_sentences("").is_empty());
        assert!(split_sentences("   \n\n  ").is_empty());
    }
}
