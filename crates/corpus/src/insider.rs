//! Insider-threat log-stream generator (the paper's second domain).
//!
//! §3.1: "Algorithms in NOUS are being used for developing custom
//! knowledge graphs for diverse domains: … 2) insider threat detection
//! using various log data sources from enterprises". Log data arrives as
//! structured events, not prose, so this domain skips the NLP stage and
//! feeds the dynamic KG directly — which is exactly what makes it a good
//! demonstration that the framework is domain-agnostic (§1.1: "custom
//! knowledge graph driven analytics for arbitrary application domains").
//!
//! The generator produces a benign background (users logging into their
//! assigned hosts and touching ordinary files) and plants, late in the
//! period, an **exfiltration motif** per malicious user:
//!
//! ```text
//! (User)-[loggedInto]->(Host)          ← off-profile host
//! (User)-[accessed]->(SensitiveFile)
//! (User)-[copiedTo]->(ExternalHost)
//! ```
//!
//! The motif is type-distinct (sensitive files and external hosts carry
//! their own labels), so the §3.5 streaming miner surfaces it as a closed
//! frequent pattern only while the attack is under way.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Relation types of the insider-threat ontology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsiderPredicate {
    LoggedInto,
    Accessed,
    CopiedTo,
    EmailedTo,
}

impl InsiderPredicate {
    pub fn name(self) -> &'static str {
        match self {
            InsiderPredicate::LoggedInto => "loggedInto",
            InsiderPredicate::Accessed => "accessed",
            InsiderPredicate::CopiedTo => "copiedTo",
            InsiderPredicate::EmailedTo => "emailedTo",
        }
    }
}

/// Entity labels of the domain.
pub const USER_LABEL: &str = "User";
pub const HOST_LABEL: &str = "Host";
pub const FILE_LABEL: &str = "File";
pub const SENSITIVE_FILE_LABEL: &str = "SensitiveFile";
pub const EXTERNAL_HOST_LABEL: &str = "ExternalHost";

/// One structured log event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEvent {
    pub day: u64,
    pub subject: String,
    pub predicate: InsiderPredicate,
    pub object: String,
}

/// A generated entity of the log domain.
#[derive(Debug, Clone)]
pub struct LogEntity {
    pub name: String,
    pub label: &'static str,
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct InsiderConfig {
    pub seed: u64,
    pub users: usize,
    pub hosts: usize,
    pub files: usize,
    pub sensitive_files: usize,
    pub external_hosts: usize,
    /// Benign events per day.
    pub events_per_day: usize,
    pub days: u64,
    /// Users who turn malicious.
    pub exfiltrators: usize,
    /// Attack window (inclusive).
    pub attack_start: u64,
    pub attack_end: u64,
}

impl Default for InsiderConfig {
    fn default() -> Self {
        Self {
            seed: 31,
            users: 30,
            hosts: 12,
            files: 40,
            sensitive_files: 6,
            external_hosts: 3,
            events_per_day: 12,
            days: 120,
            exfiltrators: 3,
            attack_start: 80,
            attack_end: 110,
        }
    }
}

/// The generated log world + event stream.
#[derive(Debug, Clone)]
pub struct InsiderScenario {
    pub entities: Vec<LogEntity>,
    /// Events sorted by day.
    pub events: Vec<LogEvent>,
    /// Ground truth: the malicious user names.
    pub exfiltrators: Vec<String>,
}

/// Generate the scenario (deterministic in the seed).
pub fn generate(cfg: &InsiderConfig) -> InsiderScenario {
    assert!(cfg.users > cfg.exfiltrators, "need benign users too");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1f83_d9ab_fb41_bd6b);

    let users: Vec<String> = (0..cfg.users).map(|i| format!("user{i:02}")).collect();
    let hosts: Vec<String> = (0..cfg.hosts).map(|i| format!("host-{i:02}")).collect();
    let files: Vec<String> = (0..cfg.files).map(|i| format!("doc-{i:03}.txt")).collect();
    let sensitive: Vec<String> = (0..cfg.sensitive_files)
        .map(|i| format!("secret-{i:02}.dat"))
        .collect();
    let external: Vec<String> = (0..cfg.external_hosts)
        .map(|i| format!("ext-drive-{i}"))
        .collect();

    let mut entities = Vec::new();
    for u in &users {
        entities.push(LogEntity {
            name: u.clone(),
            label: USER_LABEL,
        });
    }
    for h in &hosts {
        entities.push(LogEntity {
            name: h.clone(),
            label: HOST_LABEL,
        });
    }
    for f in &files {
        entities.push(LogEntity {
            name: f.clone(),
            label: FILE_LABEL,
        });
    }
    for f in &sensitive {
        entities.push(LogEntity {
            name: f.clone(),
            label: SENSITIVE_FILE_LABEL,
        });
    }
    for h in &external {
        entities.push(LogEntity {
            name: h.clone(),
            label: EXTERNAL_HOST_LABEL,
        });
    }

    // Each user has a home host (their benign login target).
    let home: Vec<usize> = (0..cfg.users)
        .map(|_| rng.gen_range(0..cfg.hosts))
        .collect();
    let mut exfiltrators: Vec<String> = users
        .choose_multiple(&mut rng, cfg.exfiltrators)
        .cloned()
        .collect();
    exfiltrators.sort();

    let mut events = Vec::new();
    for day in 0..cfg.days {
        // Benign background.
        for _ in 0..cfg.events_per_day {
            let u = rng.gen_range(0..cfg.users);
            let user = users[u].clone();
            match rng.gen_range(0..3) {
                0 => events.push(LogEvent {
                    day,
                    subject: user,
                    predicate: InsiderPredicate::LoggedInto,
                    object: hosts[home[u]].clone(),
                }),
                1 => events.push(LogEvent {
                    day,
                    subject: user,
                    predicate: InsiderPredicate::Accessed,
                    object: files.choose(&mut rng).expect("non-empty").clone(),
                }),
                _ => {
                    let other = users.choose(&mut rng).expect("non-empty").clone();
                    if other != user {
                        events.push(LogEvent {
                            day,
                            subject: user,
                            predicate: InsiderPredicate::EmailedTo,
                            object: other,
                        });
                    }
                }
            }
        }
        // The attack: each exfiltrator runs the motif most attack days.
        if (cfg.attack_start..=cfg.attack_end).contains(&day) {
            for bad in &exfiltrators {
                if rng.gen_bool(0.7) {
                    let off_host = hosts.choose(&mut rng).expect("non-empty").clone();
                    events.push(LogEvent {
                        day,
                        subject: bad.clone(),
                        predicate: InsiderPredicate::LoggedInto,
                        object: off_host,
                    });
                    events.push(LogEvent {
                        day,
                        subject: bad.clone(),
                        predicate: InsiderPredicate::Accessed,
                        object: sensitive.choose(&mut rng).expect("non-empty").clone(),
                    });
                    events.push(LogEvent {
                        day,
                        subject: bad.clone(),
                        predicate: InsiderPredicate::CopiedTo,
                        object: external.choose(&mut rng).expect("non-empty").clone(),
                    });
                }
            }
        }
    }

    InsiderScenario {
        entities,
        events,
        exfiltrators,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sorted() {
        let a = generate(&InsiderConfig::default());
        let b = generate(&InsiderConfig::default());
        assert_eq!(a.events, b.events);
        assert_eq!(a.exfiltrators, b.exfiltrators);
        assert!(a.events.windows(2).all(|w| w[0].day <= w[1].day));
    }

    #[test]
    fn attack_events_only_in_window() {
        let cfg = InsiderConfig::default();
        let s = generate(&cfg);
        for e in &s.events {
            if e.predicate == InsiderPredicate::CopiedTo {
                assert!((cfg.attack_start..=cfg.attack_end).contains(&e.day));
                assert!(
                    s.exfiltrators.contains(&e.subject),
                    "only exfiltrators copy out"
                );
            }
        }
    }

    #[test]
    fn sensitive_access_is_malicious_only() {
        let s = generate(&InsiderConfig::default());
        for e in &s.events {
            if e.predicate == InsiderPredicate::Accessed && e.object.starts_with("secret-") {
                assert!(s.exfiltrators.contains(&e.subject));
            }
        }
    }

    #[test]
    fn entities_cover_all_event_endpoints() {
        let s = generate(&InsiderConfig::default());
        let names: std::collections::HashSet<&str> =
            s.entities.iter().map(|e| e.name.as_str()).collect();
        for e in &s.events {
            assert!(
                names.contains(e.subject.as_str()),
                "unknown subject {}",
                e.subject
            );
            assert!(
                names.contains(e.object.as_str()),
                "unknown object {}",
                e.object
            );
        }
    }

    #[test]
    fn exfiltrator_count_matches_config() {
        let cfg = InsiderConfig {
            exfiltrators: 5,
            ..Default::default()
        };
        let s = generate(&cfg);
        assert_eq!(s.exfiltrators.len(), 5);
    }
}
