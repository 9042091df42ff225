//! Do per-sentence tokens, shifted by `Sentence::start`, reproduce the
//! tokens of the whole document? Only then could a document's bag of words
//! be built from the tokens `analyze` produces, instead of tokenizing the
//! document a second time.
//!
//! They do whenever no sentence boundary falls inside a token, and the
//! property test pins that over text whose periods are followed by a
//! non-letter. They do not in general: the splitter ends a sentence at the
//! period of `example.com`, while the tokenizer keeps `example.com` as one
//! word. `extract_document` therefore builds its context bag from the
//! document text.

use nous_text::{split_sentences, tokenize, Token};
use proptest::prelude::*;

fn sentence_tokens(text: &str) -> Vec<Token> {
    split_sentences(text)
        .iter()
        .flat_map(|s| {
            tokenize(&s.text).into_iter().map(|t| Token {
                start: t.start + s.start,
                end: t.end + s.start,
                ..t
            })
        })
        .collect()
}

proptest! {
    #[test]
    fn sentence_tokens_concatenate_to_document_tokens(
        text in "((U\\.S\\. )?(Mr\\. )?(Inc\\. )?([A-Z]?[a-z]{1,7}('s)?)?([0-9]{1,4}(\\.[0-9]{1,2})?)?([.!?][\")’]?)?[ \n,;\"()’-]{1,2}){0,40}"
    ) {
        prop_assert_eq!(sentence_tokens(&text), tokenize(&text), "{:?}", text);
    }
}

#[test]
fn a_period_inside_a_word_can_end_a_sentence() {
    let text = "Visit example.com today.";
    let sentences: Vec<String> = split_sentences(text).into_iter().map(|s| s.text).collect();
    assert_eq!(sentences, ["Visit example.", "com today."]);
    let whole: Vec<String> = tokenize(text).into_iter().map(|t| t.text).collect();
    assert_eq!(whole, ["Visit", "example.com", "today", "."]);
    assert_ne!(sentence_tokens(text), tokenize(text));
}
