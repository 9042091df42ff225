//! Ground-truth evaluation of extraction quality.
//!
//! The synthetic corpus records which facts each article expresses, which
//! makes extraction measurable — demo feature 1's "trade-off from various
//! heuristics" needs exactly these numbers. Shared by the E3/E11 benches
//! and the corpus↔pipeline contract tests.

use crate::document::{extract_document, Document};
use nous_corpus::{Article, World, ONTOLOGY};
use nous_text::ner::Gazetteer;
use nous_text::openie::ExtractorConfig;

/// Aggregate extraction quality over a stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExtractionQuality {
    /// Ground-truth facts whose surface form was recovered.
    pub recalled: usize,
    /// Total ground-truth facts.
    pub truth_total: usize,
    /// Raw tuples whose predicate is an ontology surface form.
    pub grounded: usize,
    /// Total raw tuples produced (after within-document dedup).
    pub yielded: usize,
}

impl ExtractionQuality {
    pub fn recall(&self) -> f64 {
        self.recalled as f64 / self.truth_total.max(1) as f64
    }

    /// Precision proxy: fraction of output that expresses an ontology
    /// relation at all (the rest is OpenIE over-generation).
    pub fn precision(&self) -> f64 {
        self.grounded as f64 / self.yielded.max(1) as f64
    }
}

/// Does `surface` mention entity `idx` (by any alias, substring match)?
fn matches_entity(world: &World, surface: &str, idx: usize) -> bool {
    let lower = surface.to_lowercase();
    world.entities[idx]
        .aliases
        .iter()
        .any(|al| lower.contains(&al.to_lowercase()))
}

/// Score extraction over `articles` with the given heuristics.
pub fn evaluate_stream(
    world: &World,
    articles: &[Article],
    gazetteer: &Gazetteer,
    cfg: &ExtractorConfig,
) -> ExtractionQuality {
    let mut q = ExtractionQuality::default();
    for article in articles {
        let doc = Document::from(article);
        let extracted = extract_document(&doc, gazetteer, cfg);
        q.yielded += extracted.extractions.len();
        for e in &extracted.extractions {
            if ONTOLOGY
                .iter()
                .any(|op| op.surface_forms().iter().any(|(sf, _)| *sf == e.predicate))
            {
                q.grounded += 1;
            }
        }
        for f in &article.facts {
            q.truth_total += 1;
            let sub = world.by_name(&f.subject).expect("canonical subject");
            let obj = world.by_name(&f.object).expect("canonical object");
            let forms = f.predicate.surface_forms();
            let hit = extracted.extractions.iter().any(|e| {
                forms.iter().any(|(sf, inv)| {
                    *sf == e.predicate
                        && if *inv {
                            matches_entity(world, &e.subject, obj)
                                && matches_entity(world, &e.object, sub)
                        } else {
                            matches_entity(world, &e.subject, sub)
                                && matches_entity(world, &e.object, obj)
                        }
                })
            });
            if hit {
                q.recalled += 1;
            }
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use nous_corpus::world::Kind;
    use nous_corpus::Preset;
    use nous_text::ner::EntityType;

    fn setup() -> (World, Vec<Article>, Gazetteer) {
        let (world, kb, _) = Preset::Smoke.build();
        let mut sc = Preset::Smoke.stream_config();
        sc.articles = 80;
        let articles = nous_corpus::ArticleStream::generate(&world, &kb, &sc);
        let mut gaz = Gazetteer::new();
        for e in &world.entities {
            let ty = match e.kind {
                Kind::Company => EntityType::Organization,
                Kind::Person => EntityType::Person,
                Kind::Location => EntityType::Location,
                Kind::Product => EntityType::Product,
            };
            for a in &e.aliases {
                gaz.insert(a, ty);
            }
        }
        (world, articles, gaz)
    }

    #[test]
    fn default_heuristics_reach_contract_quality() {
        let (world, articles, gaz) = setup();
        let q = evaluate_stream(&world, &articles, &gaz, &ExtractorConfig::default());
        assert!(q.truth_total > 50);
        assert!(q.recall() > 0.6, "recall {:.2}", q.recall());
        assert!(q.precision() > 0.2, "precision {:.2}", q.precision());
        assert!(q.yielded >= q.grounded);
    }

    #[test]
    fn confidence_threshold_trades_recall_for_precision() {
        let (world, articles, gaz) = setup();
        let loose = evaluate_stream(&world, &articles, &gaz, &ExtractorConfig::default());
        let strict = evaluate_stream(
            &world,
            &articles,
            &gaz,
            &ExtractorConfig {
                min_confidence: 0.7,
                ..Default::default()
            },
        );
        assert!(
            strict.precision() > loose.precision(),
            "threshold lifts precision"
        );
        assert!(strict.recall() <= loose.recall(), "and cannot raise recall");
        assert!(strict.yielded < loose.yielded);
    }

    #[test]
    fn quality_ratios_are_bounded() {
        let (world, articles, gaz) = setup();
        let q = evaluate_stream(&world, &articles, &gaz, &ExtractorConfig::default());
        assert!((0.0..=1.0).contains(&q.recall()));
        assert!((0.0..=1.0).contains(&q.precision()));
        let empty = ExtractionQuality::default();
        assert_eq!(empty.recall(), 0.0);
        assert_eq!(empty.precision(), 0.0);
    }
}
