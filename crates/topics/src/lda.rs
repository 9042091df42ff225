//! Collapsed-Gibbs Latent Dirichlet Allocation.
//!
//! A standard collapsed Gibbs sampler (Griffiths & Steyvers 2004) over
//! bag-of-words documents: per-token topic assignments `z` are resampled
//! from `p(z=k) ∝ (n_dk + α)(n_kw + β)/(n_k + Vβ)`. The paper ran Spark's
//! LDA over per-entity text; at the scales of this reproduction (hundreds
//! of entities, thousands of tokens) a single-threaded sampler converges in
//! well under a second.
//!
//! New entities join the knowledge graph continuously, so the model also
//! supports **fold-in inference**: sampling topic assignments for an unseen
//! document against frozen topic-term counts.

use nous_text::bow::BagOfWords;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Sampler hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LdaConfig {
    /// Number of latent topics `K`.
    pub topics: usize,
    /// Symmetric document–topic prior.
    pub alpha: f64,
    /// Symmetric topic–term prior.
    pub beta: f64,
    /// Gibbs sweeps over the corpus.
    pub iterations: usize,
    pub seed: u64,
}

impl Default for LdaConfig {
    fn default() -> Self {
        Self {
            topics: 6,
            alpha: 0.5,
            beta: 0.01,
            iterations: 120,
            seed: 42,
        }
    }
}

/// A trained LDA model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LdaModel {
    cfg: LdaConfig,
    vocab: Vec<String>,
    term_index: HashMap<String, usize>,
    /// Topic-term counts, word-major: `topic_term[w * K + k]`.
    topic_term: Vec<u32>,
    /// Per-topic totals (`Σ_w topic_term[w * K + k]`).
    topic_totals: Vec<u32>,
    /// Per-training-document topic distributions.
    doc_topics: Vec<Vec<f64>>,
}

/// The sampler's state after the last sweep.
struct Fitted {
    topic_term: Vec<u32>,
    topic_totals: Vec<u32>,
    doc_topics: Vec<Vec<f64>>,
}

/// Topic distributions of `docs` without keeping a model. Each document
/// is a list of `(term id, count)` entries into `terms`, in any order;
/// the sampler sees them in [`token_order`], so the same bags give the
/// same bits as [`LdaModel::fit`] and [`LdaModel::doc_distribution`],
/// without a copied term string or a per-token word id.
pub fn fit_doc_topics<S: AsRef<str>>(
    mut docs: Vec<Vec<(u32, u32)>>,
    terms: &[S],
    cfg: &LdaConfig,
) -> Vec<Vec<f64>> {
    let vocab = token_order(&mut docs, terms);
    gibbs(&docs, vocab.len(), cfg).doc_topics
}

/// The order the sampler's random draws follow: each document's terms
/// lexicographically (as a [`BagOfWords`] iterates), and words numbered by
/// first appearance in that walk. Rewrites `docs`' term ids into word ids
/// in place and returns each word's term id.
fn token_order<S: AsRef<str>>(docs: &mut [Vec<(u32, u32)>], terms: &[S]) -> Vec<u32> {
    let mut word = vec![u32::MAX; terms.len()];
    let mut vocab = Vec::new();
    for doc in docs {
        doc.sort_unstable_by(|a, b| {
            terms[a.0 as usize]
                .as_ref()
                .cmp(terms[b.0 as usize].as_ref())
        });
        for (id, _) in doc {
            let w = &mut word[*id as usize];
            if *w == u32::MAX {
                *w = vocab.len() as u32;
                vocab.push(*id);
            }
            *id = *w;
        }
    }
    vocab
}

/// Collapsed Gibbs sampling over run-length documents. Tokens are never
/// expanded into a word-id list: the runs are walked in place, and the
/// per-token topic assignment is one `u16`.
fn gibbs(docs: &[Vec<(u32, u32)>], vocab_size: usize, cfg: &LdaConfig) -> Fitted {
    assert!(cfg.topics > 0, "need at least one topic");
    assert!(
        cfg.topics <= usize::from(u16::MAX) + 1,
        "topic assignments are stored as u16"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let v = vocab_size.max(1);
    let k = cfg.topics;

    // Random init.
    let mut topic_term = vec![0u32; v * k];
    let mut topic_totals = vec![0u32; k];
    let mut doc_topic = vec![0u32; docs.len() * k];
    let tokens: usize = docs.iter().flatten().map(|&(_, n)| n as usize).sum();
    let mut z: Vec<u16> = Vec::with_capacity(tokens);
    for (d, doc) in docs.iter().enumerate() {
        for &(w, n) in doc {
            for _ in 0..n {
                let t = rng.gen_range(0..k);
                topic_term[w as usize * k + t] += 1;
                topic_totals[t] += 1;
                doc_topic[d * k + t] += 1;
                z.push(t as u16);
            }
        }
    }

    // Gibbs sweeps.
    let vbeta = v as f64 * cfg.beta;
    let mut probs = vec![0.0f64; k];
    for _ in 0..cfg.iterations {
        let mut slots = z.iter_mut();
        for (doc, dt) in docs.iter().zip(doc_topic.chunks_exact_mut(k)) {
            for &(w, n) in doc {
                let tw = &mut topic_term[w as usize * k..][..k];
                for _ in 0..n {
                    let slot = slots.next().expect("one assignment per token");
                    let old = usize::from(*slot);
                    tw[old] -= 1;
                    topic_totals[old] -= 1;
                    dt[old] -= 1;

                    let mut total = 0.0;
                    for (t, p) in probs.iter_mut().enumerate() {
                        *p = (dt[t] as f64 + cfg.alpha) * (tw[t] as f64 + cfg.beta)
                            / (topic_totals[t] as f64 + vbeta);
                        total += *p;
                    }
                    let mut x = rng.gen_range(0.0..total);
                    let mut new = k - 1;
                    for (t, p) in probs.iter().enumerate() {
                        if x < *p {
                            new = t;
                            break;
                        }
                        x -= p;
                    }
                    *slot = new as u16;
                    tw[new] += 1;
                    topic_totals[new] += 1;
                    dt[new] += 1;
                }
            }
        }
    }

    let doc_topics = doc_topic
        .chunks_exact(k)
        .map(|counts| normalise(counts, cfg.alpha))
        .collect();
    Fitted {
        topic_term,
        topic_totals,
        doc_topics,
    }
}

impl LdaModel {
    /// Train on `docs` (one bag per document/entity).
    pub fn fit(docs: &[BagOfWords], cfg: &LdaConfig) -> LdaModel {
        let mut ids: HashMap<&str, u32> = HashMap::new();
        let mut terms: Vec<&str> = Vec::new();
        let mut runs: Vec<Vec<(u32, u32)>> = docs
            .iter()
            .map(|d| {
                d.iter()
                    .map(|(t, n)| {
                        let id = *ids.entry(t).or_insert_with(|| {
                            terms.push(t);
                            terms.len() as u32 - 1
                        });
                        (id, n)
                    })
                    .collect()
            })
            .collect();
        let vocab: Vec<String> = token_order(&mut runs, &terms)
            .into_iter()
            .map(|id| terms[id as usize].to_owned())
            .collect();
        let term_index = vocab
            .iter()
            .enumerate()
            .map(|(w, t)| (t.clone(), w))
            .collect();
        let fitted = gibbs(&runs, vocab.len(), cfg);
        LdaModel {
            cfg: cfg.clone(),
            vocab,
            term_index,
            topic_term: fitted.topic_term,
            topic_totals: fitted.topic_totals,
            doc_topics: fitted.doc_topics,
        }
    }

    pub fn num_topics(&self) -> usize {
        self.cfg.topics
    }

    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Topic distribution of training document `d`.
    pub fn doc_distribution(&self, d: usize) -> &[f64] {
        &self.doc_topics[d]
    }

    /// Fold-in inference for an unseen document: Gibbs-sample its topic
    /// assignments against frozen topic-term counts.
    pub fn infer(&self, doc: &BagOfWords, iterations: usize, seed: u64) -> Vec<f64> {
        let k = self.cfg.topics;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xda3e_39cb_94b9_5bdb);
        let words: Vec<usize> = doc
            .iter()
            .flat_map(|(t, n)| {
                let w = self.term_index.get(t).copied();
                std::iter::repeat_n(w, n as usize)
            })
            .flatten()
            .collect();
        if words.is_empty() {
            // No overlap with the training vocabulary: uniform.
            return vec![1.0 / k as f64; k];
        }
        let vbeta = self.vocab.len() as f64 * self.cfg.beta;
        let mut counts = vec![0u32; k];
        let mut z: Vec<usize> = words
            .iter()
            .map(|_| {
                let t = rng.gen_range(0..k);
                counts[t] += 1;
                t
            })
            .collect();
        let mut probs = vec![0.0f64; k];
        for _ in 0..iterations.max(1) {
            for (i, &w) in words.iter().enumerate() {
                let old = z[i];
                counts[old] -= 1;
                let mut total = 0.0;
                for (t, p) in probs.iter_mut().enumerate() {
                    *p = (counts[t] as f64 + self.cfg.alpha)
                        * (self.topic_term[w * k + t] as f64 + self.cfg.beta)
                        / (self.topic_totals[t] as f64 + vbeta);
                    total += *p;
                }
                let mut x = rng.gen_range(0.0..total);
                let mut new = k - 1;
                for (t, p) in probs.iter().enumerate() {
                    if x < *p {
                        new = t;
                        break;
                    }
                    x -= p;
                }
                z[i] = new;
                counts[new] += 1;
            }
        }
        normalise(&counts, self.cfg.alpha)
    }

    /// The `n` highest-probability terms of topic `k`.
    pub fn topic_terms(&self, k: usize, n: usize) -> Vec<(&str, f64)> {
        let total = self.topic_totals[k] as f64 + self.vocab.len() as f64 * self.cfg.beta;
        let mut terms: Vec<(&str, f64)> = self
            .vocab
            .iter()
            .enumerate()
            .map(|(w, term)| {
                let c = self.topic_term[w * self.cfg.topics + k];
                (term.as_str(), (c as f64 + self.cfg.beta) / total)
            })
            .collect();
        terms.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite probs"));
        terms.truncate(n);
        terms
    }
}

fn normalise(counts: &[u32], alpha: f64) -> Vec<f64> {
    let total: f64 = counts.iter().map(|&c| c as f64 + alpha).sum();
    counts.iter().map(|&c| (c as f64 + alpha) / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::divergence::js_divergence;

    /// Two crisply-separated synthetic topics.
    fn two_topic_corpus() -> Vec<BagOfWords> {
        let farm_words = ["crop", "farm", "harvest", "soil", "irrigation"];
        let fin_words = ["valuation", "funding", "equity", "earnings", "capital"];
        let mut docs = Vec::new();
        for i in 0..12 {
            let mut b = BagOfWords::new();
            let bank = if i % 2 == 0 { &farm_words } else { &fin_words };
            for (j, w) in bank.iter().enumerate() {
                b.add(w, 2 + ((i + j) % 3) as u32);
            }
            docs.push(b);
        }
        docs
    }

    #[test]
    fn distributions_are_normalised() {
        let docs = two_topic_corpus();
        let model = LdaModel::fit(
            &docs,
            &LdaConfig {
                topics: 2,
                ..Default::default()
            },
        );
        for d in 0..docs.len() {
            let p = model.doc_distribution(d);
            assert_eq!(p.len(), 2);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn recovers_two_topic_structure() {
        let docs = two_topic_corpus();
        let model = LdaModel::fit(
            &docs,
            &LdaConfig {
                topics: 2,
                ..Default::default()
            },
        );
        // Same-class documents must be closer than cross-class ones.
        let d_same = js_divergence(model.doc_distribution(0), model.doc_distribution(2));
        let d_cross = js_divergence(model.doc_distribution(0), model.doc_distribution(1));
        assert!(
            d_same < d_cross,
            "same-topic divergence {d_same:.3} should be below cross-topic {d_cross:.3}"
        );
    }

    #[test]
    fn fold_in_matches_training_class() {
        let docs = two_topic_corpus();
        let model = LdaModel::fit(
            &docs,
            &LdaConfig {
                topics: 2,
                ..Default::default()
            },
        );
        let mut unseen = BagOfWords::new();
        for w in ["crop", "farm", "harvest"] {
            unseen.add(w, 3);
        }
        let p = model.infer(&unseen, 50, 1);
        let to_farm = js_divergence(&p, model.doc_distribution(0));
        let to_fin = js_divergence(&p, model.doc_distribution(1));
        assert!(to_farm < to_fin);
    }

    #[test]
    fn infer_with_unknown_vocab_is_uniform() {
        let docs = two_topic_corpus();
        let model = LdaModel::fit(
            &docs,
            &LdaConfig {
                topics: 2,
                ..Default::default()
            },
        );
        let mut unseen = BagOfWords::new();
        unseen.add("zzzzz", 5);
        let p = model.infer(&unseen, 20, 1);
        assert!((p[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn training_is_deterministic_in_seed() {
        let docs = two_topic_corpus();
        let cfg = LdaConfig {
            topics: 3,
            ..Default::default()
        };
        let a = LdaModel::fit(&docs, &cfg);
        let b = LdaModel::fit(&docs, &cfg);
        assert_eq!(a.doc_distribution(0), b.doc_distribution(0));
    }

    #[test]
    fn topic_terms_are_sorted_and_probabilistic() {
        let docs = two_topic_corpus();
        let model = LdaModel::fit(
            &docs,
            &LdaConfig {
                topics: 2,
                ..Default::default()
            },
        );
        for k in 0..2 {
            let terms = model.topic_terms(k, 5);
            assert_eq!(terms.len(), 5);
            assert!(terms.windows(2).all(|w| w[0].1 >= w[1].1));
            assert!(terms.iter().all(|(_, p)| (0.0..=1.0).contains(p)));
        }
    }

    #[test]
    fn empty_corpus_trains_trivially() {
        let model = LdaModel::fit(
            &[],
            &LdaConfig {
                topics: 2,
                ..Default::default()
            },
        );
        assert_eq!(model.vocab_size(), 0);
        let p = model.infer(&BagOfWords::new(), 10, 0);
        assert_eq!(p, vec![0.5, 0.5]);
    }
}
