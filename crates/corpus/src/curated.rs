//! The synthetic curated knowledge base (YAGO2 stand-in).
//!
//! From a [`World`], generates the background facts NOUS fuses with
//! extracted knowledge: headquarters, founders, product ownership and a
//! sparse inter-company relation web. All curated facts carry confidence
//! 1.0 and `Provenance::Curated` when loaded into a graph; they are the
//! red edges of the paper's Figure 2.

use crate::ontology::OntologyPredicate;
#[cfg(test)]
use crate::world::Kind;
use crate::world::World;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One curated fact between two world entities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CuratedTriple {
    /// Index of the subject entity in the world.
    pub subject: usize,
    pub predicate: OntologyPredicate,
    /// Index of the object entity in the world.
    pub object: usize,
}

/// The generated curated KB.
#[derive(Debug, Clone)]
pub struct CuratedKb {
    pub triples: Vec<CuratedTriple>,
}

impl CuratedKb {
    /// Generate curated facts over `world` (deterministic in `seed`).
    pub fn generate(world: &World, seed: u64) -> CuratedKb {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut triples = Vec::new();

        // Every company: one HQ, one founder.
        for &c in &world.companies {
            let hq = *world
                .locations
                .choose(&mut rng)
                .expect("locations non-empty");
            triples.push(CuratedTriple {
                subject: c,
                predicate: OntologyPredicate::IsLocatedIn,
                object: hq,
            });
            let founder = *world.people.choose(&mut rng).expect("people non-empty");
            triples.push(CuratedTriple {
                subject: c,
                predicate: OntologyPredicate::FoundedBy,
                object: founder,
            });
        }

        // Every product: exactly one manufacturer, biased to same topic.
        for &p in &world.products {
            let topic = world.entity(p).topic;
            let same_topic: Vec<usize> = world
                .companies
                .iter()
                .copied()
                .filter(|&c| world.entity(c).topic == topic)
                .collect();
            let owner = if !same_topic.is_empty() && rng.gen_bool(0.8) {
                *same_topic.choose(&mut rng).expect("non-empty")
            } else {
                *world
                    .companies
                    .choose(&mut rng)
                    .expect("companies non-empty")
            };
            triples.push(CuratedTriple {
                subject: owner,
                predicate: OntologyPredicate::Manufactures,
                object: p,
            });
        }

        // Sparse inter-company web: competition within a topic, partnerships
        // and investments across.
        for &c in &world.companies {
            let topic = world.entity(c).topic;
            if rng.gen_bool(0.6) {
                let rivals: Vec<usize> = world
                    .companies
                    .iter()
                    .copied()
                    .filter(|&o| o != c && world.entity(o).topic == topic)
                    .collect();
                if let Some(&r) = rivals.choose(&mut rng) {
                    triples.push(CuratedTriple {
                        subject: c,
                        predicate: OntologyPredicate::CompetesWith,
                        object: r,
                    });
                }
            }
            if rng.gen_bool(0.35) {
                if let Some(&o) = world.companies.choose(&mut rng) {
                    if o != c {
                        triples.push(CuratedTriple {
                            subject: c,
                            predicate: OntologyPredicate::PartneredWith,
                            object: o,
                        });
                    }
                }
            }
            if rng.gen_bool(0.25) {
                if let Some(&o) = world.companies.choose(&mut rng) {
                    if o != c {
                        triples.push(CuratedTriple {
                            subject: c,
                            predicate: OntologyPredicate::InvestedIn,
                            object: o,
                        });
                    }
                }
            }
        }

        // Dedup exact repeats (possible via random draws).
        triples.sort_by_key(|t| (t.subject, t.predicate.name(), t.object));
        triples.dedup();
        CuratedKb { triples }
    }

    pub fn len(&self) -> usize {
        self.triples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// All facts with the given predicate.
    pub fn with_predicate(
        &self,
        p: OntologyPredicate,
    ) -> impl Iterator<Item = &CuratedTriple> + '_ {
        self.triples.iter().filter(move |t| t.predicate == p)
    }

    /// The unique manufacturer of a product, if the product exists.
    pub fn manufacturer_of(&self, product: usize) -> Option<usize> {
        self.with_predicate(OntologyPredicate::Manufactures)
            .find(|t| t.object == product)
            .map(|t| t.subject)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn sample() -> (World, CuratedKb) {
        let w = World::generate(&WorldConfig::default());
        let kb = CuratedKb::generate(&w, 7);
        (w, kb)
    }

    #[test]
    fn deterministic() {
        let w = World::generate(&WorldConfig::default());
        let a = CuratedKb::generate(&w, 7);
        let b = CuratedKb::generate(&w, 7);
        assert_eq!(a.triples, b.triples);
        let c = CuratedKb::generate(&w, 8);
        assert_ne!(a.triples, c.triples);
    }

    #[test]
    fn every_company_has_hq_and_founder() {
        let (w, kb) = sample();
        for &c in &w.companies {
            assert!(
                kb.with_predicate(OntologyPredicate::IsLocatedIn)
                    .any(|t| t.subject == c),
                "company {c} lacks HQ"
            );
            assert!(
                kb.with_predicate(OntologyPredicate::FoundedBy)
                    .any(|t| t.subject == c),
                "company {c} lacks founder"
            );
        }
    }

    #[test]
    fn every_product_has_one_manufacturer() {
        let (w, kb) = sample();
        for &p in &w.products {
            let makers: Vec<_> = kb
                .with_predicate(OntologyPredicate::Manufactures)
                .filter(|t| t.object == p)
                .collect();
            assert_eq!(makers.len(), 1, "product {p}");
            assert_eq!(kb.manufacturer_of(p), Some(makers[0].subject));
        }
    }

    #[test]
    fn type_signatures_hold() {
        let (w, kb) = sample();
        for t in &kb.triples {
            let s = w.entity(t.subject).kind;
            let o = w.entity(t.object).kind;
            match t.predicate {
                OntologyPredicate::IsLocatedIn => {
                    assert_eq!(s, Kind::Company);
                    assert_eq!(o, Kind::Location);
                }
                OntologyPredicate::FoundedBy => {
                    assert_eq!(s, Kind::Company);
                    assert_eq!(o, Kind::Person);
                }
                OntologyPredicate::Manufactures => {
                    assert_eq!(s, Kind::Company);
                    assert_eq!(o, Kind::Product);
                }
                _ => {
                    assert_eq!(s, Kind::Company);
                    assert_eq!(o, Kind::Company);
                }
            }
        }
    }

    #[test]
    fn no_self_relations() {
        let (_, kb) = sample();
        assert!(kb.triples.iter().all(|t| t.subject != t.object));
    }

    #[test]
    fn no_duplicate_triples() {
        let (_, kb) = sample();
        let mut seen = std::collections::HashSet::new();
        for t in &kb.triples {
            assert!(seen.insert((t.subject, t.predicate.name(), t.object)));
        }
    }
}
