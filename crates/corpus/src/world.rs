//! The generated entity world.
//!
//! A [`World`] is the cast of a synthetic corpus: companies, people,
//! locations and products with canonical names, alias tables, topical
//! affiliation and a YAGO-style description text. Both the curated KB and
//! the article stream are derived from the same world, which is what lets
//! NOUS fuse them (§1.1): curated facts and extracted facts talk about the
//! same entities.

use crate::vocab::{self, Topic};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Entity kinds of the generated world (aligned with
/// `nous_text::ner::EntityType`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Company,
    Person,
    Location,
    Product,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Company => "Company",
            Kind::Person => "Person",
            Kind::Location => "Location",
            Kind::Product => "Product",
        }
    }
}

/// One generated entity.
#[derive(Debug, Clone)]
pub struct EntitySpec {
    /// Canonical name ("Apex Robotics", "Frank Wang", "Phantom 4").
    pub name: String,
    pub kind: Kind,
    /// Alias surfaces including the canonical name. First-word aliases may
    /// be shared between entities (deliberate ambiguity).
    pub aliases: Vec<String>,
    pub topic: Topic,
    /// Wikipedia-like description text (context for disambiguation + LDA).
    pub description: String,
}

/// Parameters of world generation.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    pub seed: u64,
    pub companies: usize,
    pub people: usize,
    pub products: usize,
    /// Probability that a new company reuses an existing name head, making
    /// its one-word alias ambiguous.
    pub ambiguity: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            companies: 60,
            people: 40,
            products: 50,
            ambiguity: 0.25,
        }
    }
}

/// The generated cast, with lookup indexes.
#[derive(Debug, Clone)]
pub struct World {
    pub entities: Vec<EntitySpec>,
    /// Indexes into `entities` by kind.
    pub companies: Vec<usize>,
    pub people: Vec<usize>,
    pub locations: Vec<usize>,
    pub products: Vec<usize>,
    /// alias (lowercase) → entity indexes sharing that alias.
    pub alias_index: HashMap<String, Vec<usize>>,
}

impl World {
    /// Generate a world from `cfg` (deterministic in the seed).
    pub fn generate(cfg: &WorldConfig) -> World {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut entities: Vec<EntitySpec> = Vec::new();
        let mut companies = Vec::new();
        let mut people = Vec::new();
        let mut locations = Vec::new();
        let mut products = Vec::new();

        // Locations: every city, topic drawn uniformly (cities are topic-
        // neutral but need one for description text).
        for city in vocab::CITIES {
            let topic = *[Topic::Regulation, Topic::Finance, Topic::Logistics]
                .choose(&mut rng)
                .expect("non-empty");
            locations.push(entities.len());
            entities.push(EntitySpec {
                name: (*city).to_owned(),
                kind: Kind::Location,
                aliases: vec![(*city).to_owned()],
                topic,
                description: format!(
                    "{city} is a city with a growing technology sector. Local officials \
                     track {} and {} developments.",
                    topic.words()[0],
                    topic.words()[1]
                ),
            });
        }

        // People.
        let mut used_person = HashSet::new();
        while people.len() < cfg.people {
            let given = vocab::GIVEN_NAMES.choose(&mut rng).expect("non-empty");
            let family = vocab::FAMILY_NAMES.choose(&mut rng).expect("non-empty");
            let name = format!("{given} {family}");
            if !used_person.insert(name.clone()) {
                continue;
            }
            let topic = *Topic::ALL.choose(&mut rng).expect("non-empty");
            people.push(entities.len());
            entities.push(EntitySpec {
                aliases: vec![name.clone(), (*family).to_owned()],
                name,
                kind: Kind::Person,
                topic,
                description: format!(
                    "An executive known for work on {} and {} initiatives.",
                    topic.words()[2],
                    topic.words()[3]
                ),
            });
        }

        // Companies, with controlled head reuse.
        let mut used_company = HashSet::new();
        let mut used_heads: Vec<&str> = Vec::new();
        while companies.len() < cfg.companies {
            let reuse = !used_heads.is_empty() && rng.gen_bool(cfg.ambiguity);
            let head = if reuse {
                *used_heads.choose(&mut rng).expect("non-empty")
            } else {
                vocab::COMPANY_HEADS.choose(&mut rng).expect("non-empty")
            };
            let suffix = vocab::COMPANY_SUFFIXES.choose(&mut rng).expect("non-empty");
            let name = format!("{head} {suffix}");
            if !used_company.insert(name.clone()) {
                continue;
            }
            if !used_heads.contains(&head) {
                used_heads.push(head);
            }
            let topic = *Topic::ALL.choose(&mut rng).expect("non-empty");
            let w = topic.words();
            companies.push(entities.len());
            entities.push(EntitySpec {
                aliases: vec![name.clone(), head.to_owned()],
                name,
                kind: Kind::Company,
                topic,
                description: format!(
                    "A {} company. The firm develops {} and {} products and serves {} \
                     customers. Its teams focus on {} and {} workflows, with ongoing {} \
                     and {} programs and strong {} expertise.",
                    topic.name(),
                    w[0],
                    w[1],
                    w[2],
                    w[3],
                    w[4],
                    w[5],
                    w[6],
                    w[7],
                ),
            });
        }

        // Products: "<Line> <n>" names, owned later by the curated KB.
        let mut used_product = HashSet::new();
        while products.len() < cfg.products {
            let line = vocab::PRODUCT_LINES.choose(&mut rng).expect("non-empty");
            let number = rng.gen_range(1..10u32);
            let name = format!("{line} {number}");
            if !used_product.insert(name.clone()) {
                continue;
            }
            let topic = *Topic::ALL.choose(&mut rng).expect("non-empty");
            products.push(entities.len());
            entities.push(EntitySpec {
                aliases: vec![name.clone(), (*line).to_owned()],
                name,
                kind: Kind::Product,
                topic,
                description: format!(
                    "A drone model aimed at {} users, praised for its {} features.",
                    topic.name(),
                    topic.words()[4]
                ),
            });
        }

        let mut alias_index: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, e) in entities.iter().enumerate() {
            for a in &e.aliases {
                alias_index.entry(a.to_lowercase()).or_default().push(i);
            }
        }

        World {
            entities,
            companies,
            people,
            locations,
            products,
            alias_index,
        }
    }

    pub fn entity(&self, idx: usize) -> &EntitySpec {
        &self.entities[idx]
    }

    /// Entities whose alias table contains `surface` (case-insensitive).
    pub fn candidates(&self, surface: &str) -> &[usize] {
        self.alias_index
            .get(&surface.to_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Index of the entity with this canonical name.
    pub fn by_name(&self, name: &str) -> Option<usize> {
        self.candidates(name)
            .iter()
            .copied()
            .find(|&i| self.entities[i].name == name)
    }

    /// Number of alias surfaces shared by more than one entity.
    pub fn ambiguous_alias_count(&self) -> usize {
        self.alias_index.values().filter(|v| v.len() > 1).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(&WorldConfig::default());
        let b = World::generate(&WorldConfig::default());
        let names = |w: &World| {
            w.entities
                .iter()
                .map(|e| e.name.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&a), names(&b));
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(&WorldConfig::default());
        let b = World::generate(&WorldConfig {
            seed: 99,
            ..Default::default()
        });
        let names = |w: &World| {
            w.entities
                .iter()
                .map(|e| e.name.clone())
                .collect::<Vec<_>>()
        };
        assert_ne!(names(&a), names(&b));
    }

    #[test]
    fn counts_match_config() {
        let cfg = WorldConfig {
            companies: 30,
            people: 20,
            products: 25,
            ..Default::default()
        };
        let w = World::generate(&cfg);
        assert_eq!(w.companies.len(), 30);
        assert_eq!(w.people.len(), 20);
        assert_eq!(w.products.len(), 25);
        assert_eq!(w.locations.len(), vocab::CITIES.len());
        assert_eq!(w.entities.len(), 30 + 20 + 25 + vocab::CITIES.len());
    }

    #[test]
    fn canonical_names_are_unique() {
        let w = World::generate(&WorldConfig::default());
        let set: HashSet<_> = w.entities.iter().map(|e| &e.name).collect();
        assert_eq!(set.len(), w.entities.len());
    }

    #[test]
    fn ambiguity_creates_shared_aliases() {
        let ambiguous = World::generate(&WorldConfig {
            ambiguity: 0.8,
            companies: 60,
            ..Default::default()
        });
        assert!(ambiguous.ambiguous_alias_count() > 0);
        // candidates() surfaces all sharers.
        let (alias, sharers) = ambiguous
            .alias_index
            .iter()
            .find(|(_, v)| v.len() > 1)
            .expect("some ambiguity at 0.8");
        assert_eq!(ambiguous.candidates(alias).len(), sharers.len());
    }

    #[test]
    fn zero_ambiguity_companies_can_still_collide_via_people() {
        // With ambiguity 0.0, company heads are sampled independently so
        // two companies may still share a head by chance; the *forced*
        // reuse is off. We only check generation succeeds.
        let w = World::generate(&WorldConfig {
            ambiguity: 0.0,
            ..Default::default()
        });
        assert_eq!(w.companies.len(), WorldConfig::default().companies);
    }

    #[test]
    fn by_name_and_candidates() {
        let w = World::generate(&WorldConfig::default());
        let first_company = &w.entities[w.companies[0]];
        assert_eq!(w.by_name(&first_company.name), Some(w.companies[0]));
        assert!(!w.candidates(&first_company.aliases[1]).is_empty());
        assert!(w.candidates("No Such Entity Anywhere").is_empty());
    }

    #[test]
    fn descriptions_contain_topic_words() {
        let w = World::generate(&WorldConfig::default());
        for &c in &w.companies {
            let e = &w.entities[c];
            let found = e.topic.words().iter().any(|tw| e.description.contains(tw));
            assert!(found, "description of {} lacks topic words", e.name);
        }
    }
}
