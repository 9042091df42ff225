//! The per-entity context bags of the disambiguator.
//!
//! An entity's context is the bag-of-words of its KG neighbourhood (§3.3);
//! it grows with every fact admitted about the entity and is read whenever
//! an ambiguous mention has to be scored against it. Entities of one graph
//! share most of their vocabulary, so the bags are kept over one interned
//! term table: a bag is a vector of `(term id, count)` sorted by id — eight
//! bytes per distinct term, no string, no tree node — with its squared norm
//! maintained on every update.
//!
//! Every admitted fact folds each endpoint's name into the other's bag.
//! A record's name never changes, so its terms are tokenized and interned
//! once, on the first fold that needs them, and kept as `(term id, count)`
//! entries beside the bags.

use crate::names::Names;
use nous_text::bow::BagOfWords;

/// One entity's context: `(term id, count)` ascending by id.
#[derive(Debug, Default)]
struct TermBag {
    counts: Vec<(u32, u32)>,
    /// Σ count².
    norm_sq: u64,
}

impl TermBag {
    /// Add `n` occurrences of `term`: in place when the bag holds it.
    fn add(&mut self, term: u32, n: u32) {
        let (old, new) = match self.counts.binary_search_by_key(&term, |&(t, _)| t) {
            Ok(at) => {
                let old = self.counts[at].1;
                self.counts[at].1 += n;
                (old, old + n)
            }
            Err(at) => {
                self.counts.insert(at, (term, n));
                (0, n)
            }
        };
        self.norm_sq += u64::from(new).pow(2) - u64::from(old).pow(2);
    }

    fn count(&self, term: u32) -> u32 {
        match self.counts.binary_search_by_key(&term, |&(t, _)| t) {
            Ok(at) => self.counts[at].1,
            Err(_) => 0,
        }
    }
}

/// A mention context reduced to the terms some entity context holds.
pub(crate) struct KnownTerms {
    counts: Vec<(u32, u32)>,
    /// Σ count² of the *whole* mention context, unknown terms included.
    norm_sq: u64,
}

/// One context bag per registered record, over one shared term table.
#[derive(Debug, Default)]
pub(crate) struct ContextStore {
    terms: Names,
    bags: Vec<TermBag>,
    /// Per record, the span of `name_entries` holding its name's terms,
    /// once a fold has needed them.
    name_spans: Vec<Option<(u32, u32)>>,
    /// Name terms as `(term id, count)`, in the order they were interned.
    name_entries: Vec<(u32, u32)>,
}

impl ContextStore {
    /// An empty store whose term table already holds `terms`, in order.
    /// `None` if a term repeats.
    pub(crate) fn with_terms(terms: Vec<String>) -> Option<Self> {
        Some(Self {
            terms: Names::from_table(terms)?,
            ..Self::default()
        })
    }

    /// Register the next record's context.
    pub(crate) fn push(&mut self, context: &BagOfWords) {
        self.bags.push(TermBag::default());
        self.name_spans.push(None);
        self.merge(self.bags.len() - 1, context);
    }

    /// Register the next record's context from stored `(term id, count)`
    /// entries. `None` (nothing registered) unless the ids ascend strictly
    /// and the term table holds them all.
    pub(crate) fn push_entries(&mut self, entries: Vec<(u32, u32)>) -> Option<()> {
        let ascending = entries.windows(2).all(|w| w[0].0 < w[1].0);
        let known = entries
            .last()
            .is_none_or(|&(t, _)| (t as usize) < self.terms.table().len());
        if !(ascending && known) {
            return None;
        }
        let norm_sq = entries.iter().map(|&(_, n)| u64::from(n).pow(2)).sum();
        self.bags.push(TermBag {
            counts: entries,
            norm_sq,
        });
        self.name_spans.push(None);
        Some(())
    }

    /// Fold `extra` into record `idx`'s bag. Allocates only for a term new
    /// to the whole store, moves memory only for a term new to the bag.
    pub(crate) fn merge(&mut self, idx: usize, extra: &BagOfWords) {
        let bag = &mut self.bags[idx];
        for (term, n) in extra.iter() {
            bag.add(self.terms.intern(term), n);
        }
    }

    /// Fold record `from`'s name into record `idx`'s bag: exactly
    /// `merge(idx, &BagOfWords::from_text(name))`, with `name` the name
    /// `from` was registered under. The name is tokenized and its terms
    /// interned (in that merge's order) only the first time.
    pub(crate) fn merge_name(&mut self, idx: usize, from: usize, name: &str) {
        let (start, end) = match self.name_spans[from] {
            Some(span) => span,
            None => {
                let start = self.name_entries.len() as u32;
                for (term, n) in BagOfWords::from_text(name).iter() {
                    self.name_entries.push((self.terms.intern(term), n));
                }
                let span = (start, self.name_entries.len() as u32);
                self.name_spans[from] = Some(span);
                span
            }
        };
        let bag = &mut self.bags[idx];
        for &(term, n) in &self.name_entries[start as usize..end as usize] {
            bag.add(term, n);
        }
    }

    /// `mention`'s terms as the store knows them — computed once per
    /// mention, used against every candidate's bag.
    pub(crate) fn known_terms(&self, mention: &BagOfWords) -> KnownTerms {
        KnownTerms {
            counts: mention
                .iter()
                .filter_map(|(term, n)| Some((self.terms.get(term)?, n)))
                .collect(),
            norm_sq: mention.norm_sq(),
        }
    }

    /// Cosine similarity between a mention context and record `idx`'s bag,
    /// in `[0, 1]`: the bits [`BagOfWords::cosine`] gives for the same two
    /// bags (integer dot product and norms, exact in any order).
    pub(crate) fn cosine(&self, mention: &KnownTerms, idx: usize) -> f64 {
        let bag = &self.bags[idx];
        let dot: u64 = mention
            .counts
            .iter()
            .map(|&(term, n)| u64::from(n) * u64::from(bag.count(term)))
            .sum();
        if dot == 0 {
            return 0.0;
        }
        dot as f64 / ((mention.norm_sq as f64).sqrt() * (bag.norm_sq as f64).sqrt())
    }

    /// Record `idx`'s bag spelled out.
    pub(crate) fn bag(&self, idx: usize) -> BagOfWords {
        let mut out = BagOfWords::new();
        for &(term, n) in &self.bags[idx].counts {
            out.add(self.terms.name(term), n);
        }
        out
    }

    /// The term table, indexed by the ids [`ContextStore::entries`] uses.
    pub(crate) fn terms(&self) -> &[String] {
        self.terms.table()
    }

    /// Record `idx`'s `(term id, count)` entries, ascending by id.
    pub(crate) fn entries(&self, idx: usize) -> &[(u32, u32)] {
        &self.bags[idx].counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_matches_the_string_keyed_bags_bit_for_bit() {
        let texts = [
            "crop farm spraying drone drone harvest",
            "delivery parcel warehouse drone logistics parcel",
            "city skyline harbour",
        ];
        let mut store = ContextStore::default();
        let mut plain: Vec<BagOfWords> = Vec::new();
        for t in texts {
            store.push(&BagOfWords::from_text(t));
            plain.push(BagOfWords::from_text(t));
        }
        let mention = BagOfWords::from_text("the drone sprayed the crop near the harbour airfield");
        for round in 0..30 {
            let extra = BagOfWords::from_text(texts[round % 3]);
            store.merge(round % 2, &extra);
            plain[round % 2].merge(&extra);
            let known = store.known_terms(&mention);
            for (i, bag) in plain.iter().enumerate() {
                assert_eq!(
                    store.cosine(&known, i).to_bits(),
                    mention.cosine(bag).to_bits()
                );
                assert_eq!(&store.bag(i), bag);
            }
        }
        assert_eq!(store.cosine(&store.known_terms(&BagOfWords::new()), 0), 0.0);
    }

    #[test]
    fn stored_entries_rebuild_the_same_store() {
        let mut store = ContextStore::default();
        store.push(&BagOfWords::from_text("drone camera flight drone"));
        store.push(&BagOfWords::new());
        store.push(&BagOfWords::from_text("camera lens"));
        let mut back = ContextStore::with_terms(store.terms().to_vec()).unwrap();
        for i in 0..3 {
            back.push_entries(store.entries(i).to_vec()).unwrap();
        }
        for i in 0..3 {
            assert_eq!(back.bag(i), store.bag(i));
            assert_eq!(back.bags[i].norm_sq, store.bags[i].norm_sq);
        }
        // Unknown id, unsorted ids and a repeated term are all refused.
        assert!(back.push_entries(vec![(99, 1)]).is_none());
        assert!(back.push_entries(vec![(1, 1), (0, 1)]).is_none());
        assert!(ContextStore::with_terms(vec!["a".into(), "a".into()]).is_none());
    }
}
