//! Offset-preserving tokeniser.
//!
//! Splits text into word / number / punctuation tokens while keeping byte
//! offsets into the source, so downstream stages (NER spans, provenance)
//! can always point back at the original document. Handles the patterns
//! that matter for news text: contractions (`didn't`), possessives
//! (`DJI's`), hyphenated compounds (`drone-based`), abbreviations with
//! internal periods (`U.S.`), numbers with separators (`1,250.75`), and
//! currency/percent symbols.

/// Coarse lexical class decided purely by surface form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Alphabetic word (possibly hyphenated or with internal apostrophe).
    Word,
    /// Number, including separators and decimal point (`1,250.75`).
    Number,
    /// Single punctuation mark.
    Punct,
    /// Currency or other symbol (`$`, `%`, `€`).
    Symbol,
}

/// One token with its source span (`byte_start..byte_end`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub text: String,
    pub kind: TokenKind,
    pub start: usize,
    pub end: usize,
}

impl Token {
    /// Lower-cased surface form (allocates; a tagged token carries it
    /// precomputed as [`Tagged::lower`](crate::pos::Tagged::lower)).
    pub fn lower(&self) -> String {
        self.text.to_lowercase()
    }

    /// True if the first character is an ASCII uppercase letter.
    pub fn is_capitalized(&self) -> bool {
        self.text.chars().next().is_some_and(|c| c.is_uppercase())
    }
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric()
}

/// The character at byte offset `i` of `text`, if any.
pub(crate) fn char_at(text: &str, i: usize) -> Option<char> {
    text[i..].chars().next()
}

/// Tokenise `text`. Offsets index into `text`'s bytes; every token's span
/// reproduces exactly its surface form (`&text[t.start..t.end] == t.text`).
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut i = 0;
    while let Some(c) = char_at(text, i) {
        let start = i;
        if c.is_whitespace() {
            i += c.len_utf8();
            continue;
        }
        if c.is_ascii_digit() {
            // Number: digits with internal , or . followed by a digit.
            let mut j = i + 1;
            while let Some(cj) = char_at(text, j) {
                if cj.is_ascii_digit() {
                    j += 1;
                } else if (cj == ',' || cj == '.')
                    && char_at(text, j + 1).is_some_and(|d| d.is_ascii_digit())
                {
                    j += 2;
                } else {
                    break;
                }
            }
            tokens.push(Token {
                text: text[start..j].to_owned(),
                kind: TokenKind::Number,
                start,
                end: j,
            });
            i = j;
            continue;
        }
        if c.is_alphabetic() {
            // Word: letters/digits, plus internal apostrophe/hyphen/period
            // when flanked by letters (U.S., drone-based, didn't).
            let mut j = i + c.len_utf8();
            while let Some(cj) = char_at(text, j) {
                if is_word_char(cj) {
                    j += cj.len_utf8();
                    continue;
                }
                if matches!(cj, '\'' | '-' | '.' | '’') {
                    let after = j + cj.len_utf8();
                    if let Some(a) = char_at(text, after).filter(|a| a.is_alphabetic()) {
                        j = after + a.len_utf8();
                        continue;
                    }
                }
                break;
            }
            let mut end = j;
            // A trailing period stays inside only for abbreviation-shaped
            // words (single letters between periods: "U.S.") and known
            // dotted abbreviations ("Mr.", "Inc."); otherwise the sentence
            // splitter owns it. The loop above only ever includes periods
            // that a letter follows, so re-attach it here.
            if text[end..].starts_with('.') && looks_like_abbrev(&text[start..end]) {
                end += 1;
            }
            tokens.push(Token {
                text: text[start..end].to_owned(),
                kind: TokenKind::Word,
                start,
                end,
            });
            i = end;
            continue;
        }
        // Single-char token.
        let end = start + c.len_utf8();
        let kind = if c == '$' || c == '%' || c == '€' || c == '£' {
            TokenKind::Symbol
        } else {
            TokenKind::Punct
        };
        tokens.push(Token {
            text: text[start..end].to_owned(),
            kind,
            start,
            end,
        });
        i = end;
    }
    tokens
}

/// Words whose trailing period belongs to the token (honorifics and
/// corporate suffixes), so NER sees "Mr." / "Inc." as single units.
const DOTTED_ABBREVS: &[&str] = &[
    "mr", "mrs", "ms", "dr", "prof", "inc", "corp", "ltd", "co", "jr", "sr", "st", "no", "vs",
];

/// `U.S` / `U.K` / `a.m` shapes (alternating short letters and periods), or
/// a known dotted abbreviation like `Mr` / `Inc`.
fn looks_like_abbrev(s: &str) -> bool {
    // ASCII case folding is exact here: no listed abbreviation holds a
    // letter that a non-ASCII character lower-cases to.
    if DOTTED_ABBREVS.iter().any(|a| a.eq_ignore_ascii_case(s)) {
        return true;
    }
    s.contains('.')
        && s.split('.')
            .all(|p| p.chars().count() <= 2 && !p.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(input: &str) -> Vec<String> {
        tokenize(input).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn simple_sentence() {
        assert_eq!(
            texts("DJI manufactures drones."),
            vec!["DJI", "manufactures", "drones", "."]
        );
    }

    #[test]
    fn offsets_reproduce_surface() {
        let input = "In 2015, DJI's Phantom-3 cost $1,250.75 (roughly).";
        for t in tokenize(input) {
            assert_eq!(&input[t.start..t.end], t.text, "span mismatch for {t:?}");
        }
    }

    #[test]
    fn numbers_with_separators() {
        let toks = tokenize("Revenue was 1,250.75 million in 2015.");
        assert_eq!(toks[2].text, "1,250.75");
        assert_eq!(toks[2].kind, TokenKind::Number);
        assert_eq!(toks[5].text, "2015");
    }

    #[test]
    fn contractions_and_hyphens_stay_whole() {
        assert_eq!(
            texts("It didn't use drone-based tech."),
            vec!["It", "didn't", "use", "drone-based", "tech", "."]
        );
    }

    #[test]
    fn abbreviations_keep_final_period() {
        let toks = tokenize("The U.S. regulator acted.");
        assert_eq!(toks[1].text, "U.S.");
        assert_eq!(toks[1].kind, TokenKind::Word);
        assert_eq!(toks[2].text, "regulator");
    }

    #[test]
    fn currency_symbols() {
        let toks = tokenize("$3 million (20%)");
        assert_eq!(toks[0].kind, TokenKind::Symbol);
        assert_eq!(toks[5].text, "%");
        assert_eq!(toks[5].kind, TokenKind::Symbol);
    }

    #[test]
    fn possessive_splits_are_preserved_inside_word() {
        // "DJI's" stays one token; the chunker strips possessives later.
        assert_eq!(texts("DJI's drone"), vec!["DJI's", "drone"]);
    }

    #[test]
    fn empty_and_whitespace() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \n\t ").is_empty());
    }

    #[test]
    fn unicode_words() {
        let toks = tokenize("Café Münster announced results.");
        assert_eq!(toks[0].text, "Café");
        assert_eq!(toks[1].text, "Münster");
    }

    #[test]
    fn capitalization_check() {
        let toks = tokenize("DJI announced");
        assert!(toks[0].is_capitalized());
        assert!(!toks[1].is_capitalized());
    }
}
