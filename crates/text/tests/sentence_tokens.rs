//! Do per-sentence tokens, shifted by `Sentence::start`, reproduce the
//! tokens of the whole document? They do because no sentence boundary
//! falls inside a token: the splitter never ends a sentence at a period
//! directly followed by a letter or digit (`example.com`, `3.5`), which is
//! exactly where the tokenizer keeps a period inside a word or number.
//! `extract_document` relies on it to build a document's bag of words from
//! the tokens `analyze` produces instead of tokenizing the document again.

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
        text in "((U\\.S\\. )?(Mr\\. )?(Inc\\. )?([A-Z]?[a-z]{1,7}('s)?)?([0-9]{1,4}(\\.[0-9]{1,2})?)?([.!?][\")’]?)?([A-Za-z0-9]{1,3})?[ \n,;\"()’-]{1,2}){0,40}"
    ) {
        prop_assert_eq!(sentence_tokens(&text), tokenize(&text), "{:?}", text);
    }
}

#[test]
fn a_period_inside_a_word_does_not_end_a_sentence() {
    let text = "Visit example.com today. It loads.";
    let sentences: Vec<String> = split_sentences(text).into_iter().map(|s| s.text).collect();
    assert_eq!(sentences, ["Visit example.com today.", "It loads."]);
    let whole: Vec<String> = tokenize(text).into_iter().map(|t| t.text).collect();
    assert_eq!(
        whole,
        ["Visit", "example.com", "today", ".", "It", "loads", "."]
    );
    assert_eq!(sentence_tokens(text), tokenize(text));
}
