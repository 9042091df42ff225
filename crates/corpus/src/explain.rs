//! Planted ground truth for explanatory ("why") question answering.
//!
//! §3.6 ranks paths between a source and target entity by *topical
//! coherence*. To evaluate that, the generator plants, for each question:
//!
//! - an **expected path** `A → B → C` whose entities all share one topic
//!   (the coherent explanation), and
//! - a **decoy path** `A → H → C` of the *same length* through a
//!   high-degree hub `H` from a different topic.
//!
//! A plain shortest-path or degree-following random walk cannot separate
//! the two (equal hop count; the hub attracts walks); the coherence metric
//! can. The planted triples are appended to the curated KB.

use crate::curated::{CuratedKb, CuratedTriple};
use crate::ontology::OntologyPredicate;
use crate::world::World;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One planted why-question with its ground truth.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Source entity canonical name.
    pub source: String,
    /// Target entity canonical name.
    pub target: String,
    /// The coherent path (canonical names, inclusive of endpoints).
    pub expected_path: Vec<String>,
    /// The incoherent same-length decoy path.
    pub decoy_path: Vec<String>,
}

/// Plant `n` explanation instances into `kb`, returning their ground truth.
///
/// Requires a world with at least ~4 companies per topic; instances whose
/// topic lacks enough members are skipped, so fewer than `n` may return.
pub fn plant_explanations(
    world: &World,
    kb: &mut CuratedKb,
    n: usize,
    seed: u64,
) -> Vec<Explanation> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d);
    let mut out = Vec::new();

    // Group companies by topic.
    let mut by_topic: std::collections::HashMap<_, Vec<usize>> = Default::default();
    for &c in &world.companies {
        by_topic.entry(world.entity(c).topic).or_default().push(c);
    }
    let mut topics: Vec<_> = by_topic.keys().copied().collect();
    topics.sort_by_key(|t| t.name()); // HashMap order is nondeterministic
    if topics.len() < 2 {
        return out;
    }

    let mut used: std::collections::HashSet<usize> = Default::default();
    let mut attempts = 0;
    while out.len() < n && attempts < n * 20 {
        attempts += 1;
        let topic = *topics.choose(&mut rng).expect("non-empty");
        let members: Vec<usize> = by_topic[&topic]
            .iter()
            .copied()
            .filter(|c| !used.contains(c))
            .collect();
        if members.len() < 3 {
            continue;
        }
        let mut picks = members.clone();
        picks.shuffle(&mut rng);
        let (a, b, c) = (picks[0], picks[1], picks[2]);

        // Hub from a different topic.
        let other_topic = *topics
            .iter()
            .filter(|t| **t != topic)
            .collect::<Vec<_>>()
            .choose(&mut rng)
            .expect("≥2 topics");
        let hub_members = &by_topic[other_topic];
        let Some(&hub) = hub_members.choose(&mut rng) else {
            continue;
        };
        if hub == a || hub == c {
            continue;
        }

        // Coherent path: A -partneredWith-> B -investedIn-> C.
        kb.triples.push(CuratedTriple {
            subject: a,
            predicate: OntologyPredicate::PartneredWith,
            object: b,
        });
        kb.triples.push(CuratedTriple {
            subject: b,
            predicate: OntologyPredicate::InvestedIn,
            object: c,
        });
        // Decoy: A -competesWith-> H -partneredWith-> C, same length.
        kb.triples.push(CuratedTriple {
            subject: a,
            predicate: OntologyPredicate::CompetesWith,
            object: hub,
        });
        kb.triples.push(CuratedTriple {
            subject: hub,
            predicate: OntologyPredicate::PartneredWith,
            object: c,
        });
        // Fatten the hub so degree-driven baselines get pulled toward it.
        for _ in 0..4 {
            if let Some(&x) = world.companies.choose(&mut rng) {
                if x != hub {
                    kb.triples.push(CuratedTriple {
                        subject: hub,
                        predicate: OntologyPredicate::PartneredWith,
                        object: x,
                    });
                }
            }
        }

        for x in [a, b, c] {
            used.insert(x);
        }
        let name = |i: usize| world.entity(i).name.clone();
        out.push(Explanation {
            source: name(a),
            target: name(c),
            expected_path: vec![name(a), name(b), name(c)],
            decoy_path: vec![name(a), name(hub), name(c)],
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn setup(n: usize) -> (World, CuratedKb, Vec<Explanation>) {
        let world = World::generate(&WorldConfig {
            companies: 60,
            ..Default::default()
        });
        let mut kb = CuratedKb::generate(&world, 7);
        let ex = plant_explanations(&world, &mut kb, n, 13);
        (world, kb, ex)
    }

    #[test]
    fn plants_requested_instances() {
        let (_, _, ex) = setup(5);
        assert_eq!(ex.len(), 5);
    }

    #[test]
    fn expected_path_is_topically_coherent() {
        let (world, _, ex) = setup(5);
        for e in &ex {
            let topics: Vec<_> = e
                .expected_path
                .iter()
                .map(|n| world.entity(world.by_name(n).unwrap()).topic)
                .collect();
            assert!(
                topics.windows(2).all(|w| w[0] == w[1]),
                "incoherent expected path"
            );
            // Decoy hub breaks the topic.
            let hub = &e.decoy_path[1];
            let hub_topic = world.entity(world.by_name(hub).unwrap()).topic;
            assert_ne!(hub_topic, topics[0], "decoy hub shares the topic");
        }
    }

    #[test]
    fn planted_edges_exist_in_kb() {
        let (world, kb, ex) = setup(3);
        for e in &ex {
            for hop in e.expected_path.windows(2) {
                let s = world.by_name(&hop[0]).unwrap();
                let o = world.by_name(&hop[1]).unwrap();
                assert!(
                    kb.triples.iter().any(|t| t.subject == s && t.object == o),
                    "missing planted edge {} -> {}",
                    hop[0],
                    hop[1]
                );
            }
        }
    }

    #[test]
    fn decoy_has_same_length_as_expected() {
        let (_, _, ex) = setup(5);
        for e in &ex {
            assert_eq!(e.expected_path.len(), e.decoy_path.len());
            assert_eq!(e.expected_path.first(), e.decoy_path.first());
            assert_eq!(e.expected_path.last(), e.decoy_path.last());
            assert_ne!(e.expected_path[1], e.decoy_path[1]);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let world = World::generate(&WorldConfig::default());
        let mut kb1 = CuratedKb::generate(&world, 7);
        let mut kb2 = CuratedKb::generate(&world, 7);
        let a = plant_explanations(&world, &mut kb1, 4, 99);
        let b = plant_explanations(&world, &mut kb2, 4, 99);
        assert_eq!(
            a.iter().map(|e| &e.expected_path).collect::<Vec<_>>(),
            b.iter().map(|e| &e.expected_path).collect::<Vec<_>>()
        );
    }
}
