//! Bag-of-words utilities.
//!
//! Entity disambiguation (§3.3) compares "the text surrounding the entity
//! mention" against per-entity context, and the QA layer (§3.6) builds a
//! document-term matrix for LDA from per-vertex text. Both consume the
//! [`BagOfWords`] built here: lower-cased content words with stopwords and
//! punctuation removed.

use crate::lexicon;
use crate::pos::Tagged;
use crate::token::{tokenize, TokenKind};
use std::collections::BTreeMap;

/// Sparse term-frequency vector over lower-cased content words.
///
/// Backed by a `BTreeMap` so iteration order is deterministic (important
/// for reproducible LDA initialisation and stable test output). The
/// squared L2 norm is maintained on every [`BagOfWords::add`], so
/// [`BagOfWords::cosine`] costs one pass over the smaller bag however
/// large the other one has grown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BagOfWords {
    counts: BTreeMap<String, u32>,
    total: u32,
    /// Σ count² over `counts`.
    norm_sq: u64,
}

impl BagOfWords {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from raw text: tokenize, lower-case, drop stopwords, numbers
    /// and punctuation.
    pub fn from_text(text: &str) -> Self {
        let mut bow = Self::new();
        for tok in tokenize(text) {
            if tok.kind != TokenKind::Word {
                continue;
            }
            if let Some(term) = content_term(&tok.lower()) {
                bow.add(term, 1);
            }
        }
        bow
    }

    /// Build from already-tagged tokens, reading each one's precomputed
    /// lower-case form. Over the tokens of every sentence of a text (as
    /// [`analyze`](crate::analyze) produces them) this is the bag
    /// [`BagOfWords::from_text`] builds from the text.
    pub fn from_tagged<'a>(tagged: impl IntoIterator<Item = &'a Tagged>) -> Self {
        let mut bow = Self::new();
        for t in tagged {
            if t.token.kind != TokenKind::Word {
                continue;
            }
            if let Some(term) = content_term(&t.lower) {
                bow.add(term, 1);
            }
        }
        bow
    }

    /// Add `n` occurrences of `term`. Allocates only when the term is new
    /// to the bag — merges into an entity's long-lived context mostly hit
    /// terms it already holds.
    pub fn add(&mut self, term: &str, n: u32) {
        let (old, new) = match self.counts.get_mut(term) {
            Some(count) => {
                let old = *count;
                *count += n;
                (old, *count)
            }
            None => {
                self.counts.insert(term.to_owned(), n);
                (0, n)
            }
        };
        self.norm_sq += u64::from(new).pow(2) - u64::from(old).pow(2);
        self.total += n;
    }

    /// Merge another bag into this one.
    pub fn merge(&mut self, other: &BagOfWords) {
        for (t, n) in &other.counts {
            self.add(t, *n);
        }
    }

    pub fn count(&self, term: &str) -> u32 {
        self.counts.get(term).copied().unwrap_or(0)
    }

    /// Total token count (with multiplicity).
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Squared L2 norm of the term-frequency vector, Σ count².
    pub fn norm_sq(&self) -> u64 {
        self.norm_sq
    }

    /// Number of distinct terms.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, u32)> {
        self.counts.iter().map(|(t, n)| (t.as_str(), *n))
    }

    /// Cosine similarity of term-frequency vectors, in `[0, 1]`.
    pub fn cosine(&self, other: &BagOfWords) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let (small, large) = if self.distinct() <= other.distinct() {
            (self, other)
        } else {
            (other, self)
        };
        // Integer arithmetic: the dot product and both squared norms are
        // exact whatever order the terms are visited in, so the result is
        // the same bits as summing the squares afresh (as long as the sums
        // stay below 2^53, where f64 stops representing every integer).
        let dot: u64 = small
            .iter()
            .map(|(t, n)| u64::from(n) * u64::from(large.count(t)))
            .sum();
        if dot == 0 {
            return 0.0;
        }
        let na = (self.norm_sq as f64).sqrt();
        let nb = (other.norm_sq as f64).sqrt();
        dot as f64 / (na * nb)
    }

    /// Jaccard similarity over distinct term sets, in `[0, 1]`.
    pub fn jaccard(&self, other: &BagOfWords) -> f64 {
        if self.is_empty() && other.is_empty() {
            return 0.0;
        }
        let inter = self
            .counts
            .keys()
            .filter(|t| other.counts.contains_key(*t))
            .count();
        let union = self.distinct() + other.distinct() - inter;
        inter as f64 / union as f64
    }

    /// The `k` most frequent terms (ties broken alphabetically).
    pub fn top_terms(&self, k: usize) -> Vec<(&str, u32)> {
        let mut v: Vec<(&str, u32)> = self.iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v.truncate(k);
        v
    }
}

/// The bag's term for a lower-cased word: the word with its possessive
/// stripped, or `None` for a stopword or a term shorter than two bytes.
fn content_term(lower: &str) -> Option<&str> {
    let bare = lower
        .strip_suffix("'s")
        .or_else(|| lower.strip_suffix("’s"))
        .unwrap_or(lower);
    (bare.len() >= 2 && !lexicon::is_stopword(bare)).then_some(bare)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_text_drops_stopwords_and_numbers() {
        let b = BagOfWords::from_text("The drone flew over the city in 2015.");
        assert_eq!(b.count("drone"), 1);
        assert_eq!(b.count("the"), 0);
        assert_eq!(b.count("2015"), 0);
        assert_eq!(b.count("in"), 0);
    }

    #[test]
    fn counting_and_merge() {
        let mut a = BagOfWords::from_text("drone drone camera");
        let b = BagOfWords::from_text("drone pilot");
        a.merge(&b);
        assert_eq!(a.count("drone"), 3);
        assert_eq!(a.count("pilot"), 1);
        assert_eq!(a.total(), 5);
        assert_eq!(a.distinct(), 3);
    }

    #[test]
    fn cosine_identity_and_disjoint() {
        let a = BagOfWords::from_text("drone camera flight");
        let b = BagOfWords::from_text("drone camera flight");
        assert!((a.cosine(&b) - 1.0).abs() < 1e-9);
        let c = BagOfWords::from_text("banana apple");
        assert_eq!(a.cosine(&c), 0.0);
        assert_eq!(a.cosine(&BagOfWords::new()), 0.0);
    }

    /// The reference the incremental norm replaced: both norms summed
    /// afresh from the counts on every call.
    fn cosine_from_scratch(a: &BagOfWords, b: &BagOfWords) -> f64 {
        let dot: f64 = a.iter().map(|(t, n)| n as f64 * b.count(t) as f64).sum();
        if dot == 0.0 {
            return 0.0;
        }
        let norm = |x: &BagOfWords| {
            x.iter()
                .map(|(_, n)| (n as f64).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        dot / (norm(a) * norm(b))
    }

    #[test]
    fn incremental_norm_gives_the_same_bits_as_recomputing() {
        let mut ctx = BagOfWords::new();
        let doc = BagOfWords::from_text("drone camera flight battery drone pilot");
        for round in 0..40u32 {
            ctx.merge(&BagOfWords::from_text(
                "drone flight regulator waiver airspace",
            ));
            ctx.add("camera", round);
            assert_eq!(
                doc.cosine(&ctx).to_bits(),
                cosine_from_scratch(&doc, &ctx).to_bits()
            );
        }
    }

    #[test]
    fn cosine_is_symmetric() {
        let a = BagOfWords::from_text("drone camera flight drone");
        let b = BagOfWords::from_text("drone pilot");
        assert!((a.cosine(&b) - b.cosine(&a)).abs() < 1e-12);
    }

    #[test]
    fn jaccard_bounds() {
        let a = BagOfWords::from_text("drone camera");
        let b = BagOfWords::from_text("drone pilot");
        let j = a.jaccard(&b);
        assert!((j - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(BagOfWords::new().jaccard(&BagOfWords::new()), 0.0);
    }

    #[test]
    fn top_terms_order() {
        let b = BagOfWords::from_text("drone drone camera battery battery battery");
        let top = b.top_terms(2);
        assert_eq!(top[0].0, "battery");
        assert_eq!(top[1].0, "drone");
    }

    #[test]
    fn possessives_normalised() {
        let b = BagOfWords::from_text("DJI's drone");
        assert_eq!(b.count("dji"), 1);
    }
}
