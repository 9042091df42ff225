//! Citation-analytics generator (the paper's third domain).
//!
//! §3.1: "Algorithms in NOUS are being used for developing custom
//! knowledge graphs for diverse domains: … 3) citation analytics from
//! bibliography databases." Bibliography records are structured, so — like
//! the insider-threat domain — they enter the dynamic KG through a direct
//! adapter: `authoredBy`, `publishedIn` and `cites` facts dated by
//! publication year.
//!
//! The generator plants a **seminal-paper burst**: one paper becomes a
//! field-defining reference, and in the following years a wave of new
//! papers cites it *and each other* — the citation-cluster motif the
//! streaming miner should surface as an emerging research topic, and the
//! hub structure the coherence-based path search has to see past when
//! explaining how two papers relate.

use crate::vocab::Topic;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Relation types of the bibliography ontology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CitePredicate {
    AuthoredBy,
    PublishedIn,
    Cites,
}

impl CitePredicate {
    pub fn name(self) -> &'static str {
        match self {
            CitePredicate::AuthoredBy => "authoredBy",
            CitePredicate::PublishedIn => "publishedIn",
            CitePredicate::Cites => "cites",
        }
    }
}

/// Entity labels.
pub const PAPER_LABEL: &str = "Paper";
pub const AUTHOR_LABEL: &str = "Author";
pub const VENUE_LABEL: &str = "Venue";

/// One bibliography entity.
#[derive(Debug, Clone)]
pub struct BibEntity {
    pub name: String,
    pub label: &'static str,
    pub topic: Topic,
}

/// One dated bibliography fact (day = days since the 2010 epoch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BibFact {
    pub day: u64,
    pub subject: String,
    pub predicate: CitePredicate,
    pub object: String,
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct CitationConfig {
    pub seed: u64,
    pub authors: usize,
    pub venues: usize,
    /// Papers per year before the burst.
    pub papers_per_year: usize,
    pub years: u64,
    /// Year offset (0-based) at which the seminal paper appears.
    pub burst_year: u64,
    /// Extra burst papers per post-burst year.
    pub burst_papers_per_year: usize,
}

impl Default for CitationConfig {
    fn default() -> Self {
        Self {
            seed: 47,
            authors: 40,
            venues: 5,
            papers_per_year: 18,
            years: 6,
            burst_year: 3,
            burst_papers_per_year: 14,
        }
    }
}

/// The generated bibliography.
#[derive(Debug, Clone)]
pub struct CitationScenario {
    pub entities: Vec<BibEntity>,
    /// Facts sorted by day.
    pub facts: Vec<BibFact>,
    /// The field-defining paper's name.
    pub seminal: String,
    /// Names of the burst papers (the emerging-topic cluster).
    pub burst_papers: Vec<String>,
}

/// Generate the scenario (deterministic in the seed).
pub fn generate(cfg: &CitationConfig) -> CitationScenario {
    assert!(
        cfg.burst_year < cfg.years,
        "burst must happen inside the horizon"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5be0_cd19_137e_2179);

    let authors: Vec<String> = (0..cfg.authors).map(|i| format!("Author {i:02}")).collect();
    let venues: Vec<String> = (0..cfg.venues)
        .map(|i| format!("Conf-{}", ["KDD", "ICDE", "VLDB", "WWW", "CIKM"][i % 5]))
        .collect();

    let mut entities: Vec<BibEntity> = Vec::new();
    for a in &authors {
        entities.push(BibEntity {
            name: a.clone(),
            label: AUTHOR_LABEL,
            topic: *Topic::ALL.choose(&mut rng).expect("non-empty"),
        });
    }
    for v in &venues {
        entities.push(BibEntity {
            name: v.clone(),
            label: VENUE_LABEL,
            topic: Topic::Finance,
        });
    }

    let mut facts: Vec<BibFact> = Vec::new();
    let mut papers: Vec<(String, Topic, u64)> = Vec::new(); // (name, topic, day)
    let mut seminal = String::new();
    let mut burst_papers = Vec::new();
    let mut paper_no = 0usize;

    let publish = |rng: &mut StdRng,
                   facts: &mut Vec<BibFact>,
                   entities: &mut Vec<BibEntity>,
                   papers: &mut Vec<(String, Topic, u64)>,
                   paper_no: &mut usize,
                   day: u64,
                   topic: Topic,
                   cite_pool: &[String]| {
        let name = format!("Paper {:03}", *paper_no);
        *paper_no += 1;
        entities.push(BibEntity {
            name: name.clone(),
            label: PAPER_LABEL,
            topic,
        });
        // Authors and venue.
        let n_authors = rng.gen_range(1..=3);
        for a in authors.choose_multiple(rng, n_authors) {
            facts.push(BibFact {
                day,
                subject: name.clone(),
                predicate: CitePredicate::AuthoredBy,
                object: a.clone(),
            });
        }
        facts.push(BibFact {
            day,
            subject: name.clone(),
            predicate: CitePredicate::PublishedIn,
            object: venues.choose(rng).expect("non-empty").clone(),
        });
        // Background citations to papers already published by `day`
        // (the fact loop interleaves background and burst papers, so
        // the pool can contain same-year papers with later dates).
        let eligible: Vec<&String> = papers.iter().filter(|p| p.2 <= day).map(|p| &p.0).collect();
        let n_cites = rng.gen_range(0..=3.min(eligible.len()));
        let older_picks: Vec<String> = eligible
            .choose_multiple(rng, n_cites)
            .map(|p| (*p).clone())
            .collect();
        for older in older_picks {
            facts.push(BibFact {
                day,
                subject: name.clone(),
                predicate: CitePredicate::Cites,
                object: older,
            });
        }
        for extra in cite_pool.choose_multiple(rng, cite_pool.len().min(2)) {
            if *extra != name {
                facts.push(BibFact {
                    day,
                    subject: name.clone(),
                    predicate: CitePredicate::Cites,
                    object: extra.clone(),
                });
            }
        }
        papers.push((name.clone(), topic, day));
        name
    };

    for year in 0..cfg.years {
        let day0 = year * 365;
        // Background publications spread over the year.
        for i in 0..cfg.papers_per_year {
            let day = day0 + (i as u64 * 365) / cfg.papers_per_year as u64;
            let topic = *Topic::ALL.choose(&mut rng).expect("non-empty");
            let name = publish(
                &mut rng,
                &mut facts,
                &mut entities,
                &mut papers,
                &mut paper_no,
                day,
                topic,
                &[],
            );
            if year == cfg.burst_year && i == 0 {
                seminal = name;
            }
        }
        // Post-burst: the emerging-topic cluster cites the seminal paper
        // and its recent siblings.
        if year > cfg.burst_year {
            for i in 0..cfg.burst_papers_per_year {
                let day = day0 + 30 + (i as u64 * 300) / cfg.burst_papers_per_year as u64;
                let mut pool = vec![seminal.clone()];
                pool.extend(burst_papers.iter().rev().take(3).cloned());
                let name = publish(
                    &mut rng,
                    &mut facts,
                    &mut entities,
                    &mut papers,
                    &mut paper_no,
                    day,
                    Topic::ConsumerDrones, // the hot topic
                    &pool,
                );
                burst_papers.push(name);
            }
        }
    }

    facts.sort_by(|a, b| a.day.cmp(&b.day).then_with(|| a.subject.cmp(&b.subject)));
    CitationScenario {
        entities,
        facts,
        seminal,
        burst_papers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_day_sorted() {
        let a = generate(&CitationConfig::default());
        let b = generate(&CitationConfig::default());
        assert_eq!(a.facts, b.facts);
        assert!(a.facts.windows(2).all(|w| w[0].day <= w[1].day));
        assert!(!a.seminal.is_empty());
        assert!(!a.burst_papers.is_empty());
    }

    #[test]
    fn citations_point_backward_in_time() {
        let s = generate(&CitationConfig::default());
        let day_of: std::collections::HashMap<&str, u64> = s
            .facts
            .iter()
            .filter(|f| f.predicate == CitePredicate::PublishedIn)
            .map(|f| (f.subject.as_str(), f.day))
            .collect();
        for f in &s.facts {
            if f.predicate == CitePredicate::Cites {
                let citing = day_of[f.subject.as_str()];
                let cited = day_of[f.object.as_str()];
                assert!(
                    cited <= citing,
                    "{} cites the future {}",
                    f.subject,
                    f.object
                );
            }
        }
    }

    #[test]
    fn burst_cluster_cites_the_seminal_paper() {
        let s = generate(&CitationConfig::default());
        let citing_seminal: std::collections::HashSet<&str> = s
            .facts
            .iter()
            .filter(|f| f.predicate == CitePredicate::Cites && f.object == s.seminal)
            .map(|f| f.subject.as_str())
            .collect();
        let burst_hits = s
            .burst_papers
            .iter()
            .filter(|p| citing_seminal.contains(p.as_str()))
            .count();
        assert!(
            burst_hits * 2 >= s.burst_papers.len(),
            "most burst papers cite the seminal one ({burst_hits}/{})",
            s.burst_papers.len()
        );
    }

    #[test]
    fn every_paper_has_author_and_venue() {
        let s = generate(&CitationConfig::default());
        for e in s.entities.iter().filter(|e| e.label == PAPER_LABEL) {
            assert!(s
                .facts
                .iter()
                .any(|f| f.predicate == CitePredicate::AuthoredBy && f.subject == e.name));
            assert!(s
                .facts
                .iter()
                .any(|f| f.predicate == CitePredicate::PublishedIn && f.subject == e.name));
        }
    }

    #[test]
    fn entities_cover_fact_endpoints() {
        let s = generate(&CitationConfig::default());
        let names: std::collections::HashSet<&str> =
            s.entities.iter().map(|e| e.name.as_str()).collect();
        for f in &s.facts {
            assert!(names.contains(f.subject.as_str()));
            assert!(names.contains(f.object.as_str()));
        }
    }
}
