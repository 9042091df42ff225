//! Distant-supervision predicate mapping.
//!
//! OpenIE "produce\[s\] too many relations" (§3.3): raw relation phrases like
//! `buy`, `purchase`, `base_in` must be collapsed onto the target ontology
//! (`acquired`, `isLocatedIn`, …). Following Freedman et al.'s Extreme
//! Extraction recipe as the paper describes, each ontology predicate's
//! rule model is bootstrapped from a handful of seed rules, then expanded
//! semi-supervisedly: a raw predicate joins an ontology predicate's model
//! when the entity pairs it connects in the raw-triple corpus are already
//! connected by that ontology predicate in the (growing) knowledge graph —
//! distant supervision against the KG itself.
//!
//! Expansion runs continuously beside ingestion, so it is kept as a
//! *delta* computation: [`MapperExpansion`] holds the vote tally of every
//! unmapped raw predicate and updates it when a raw triple is stashed or a
//! KG edge appears or dies; deciding whether anything can be learned then
//! reads the tallies, never the graph. [`PredicateMapper::expand_to_fixpoint`]
//! — the same votes recounted from all triples and all edges — is what the
//! tallies are tested against.

use crate::names::Names;
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};

/// One mapping rule: raw predicate → ontology predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingRule {
    pub ontology: String,
    /// Swap subject/object when applying ("P founded O" ⇒ (O, foundedBy, P)).
    pub inverted: bool,
    /// Estimated precision of the rule (1.0 for seeds).
    pub confidence: f64,
    /// True if this rule was a seed rather than learned.
    pub seed: bool,
}

/// A raw extracted triple with already-resolved entity identities.
pub type RawTripleIds = (u32, String, u32);

/// Known KG pairs per ontology predicate: `(subject, object) -> predicates`.
pub type KnownPairs = HashMap<(u32, u32), Vec<String>>;

/// The per-ontology-predicate rule models.
#[derive(Debug, Clone, Default)]
pub struct PredicateMapper {
    rules: HashMap<String, MappingRule>,
    /// Expansion thresholds.
    min_support: usize,
    min_precision: f64,
}

impl PredicateMapper {
    /// Bootstrap with seed rules: `(raw predicate, ontology predicate,
    /// inverted)`. The paper uses "5-10 seed examples" per predicate; here a
    /// seed is a raw surface form known to express the relation.
    pub fn bootstrap(seeds: &[(&str, &str, bool)]) -> Self {
        let mut rules = HashMap::new();
        for (raw, onto, inv) in seeds {
            rules.insert(
                (*raw).to_owned(),
                MappingRule {
                    ontology: (*onto).to_owned(),
                    inverted: *inv,
                    confidence: 1.0,
                    seed: true,
                },
            );
        }
        Self {
            rules,
            min_support: 3,
            min_precision: 0.5,
        }
    }

    /// Override expansion thresholds (defaults: support 3, precision 0.5).
    pub fn with_thresholds(mut self, min_support: usize, min_precision: f64) -> Self {
        self.min_support = min_support;
        self.min_precision = min_precision;
        self
    }

    /// Map a raw predicate. Returns the rule if one exists.
    pub fn map(&self, raw: &str) -> Option<&MappingRule> {
        self.rules.get(raw)
    }

    /// Install (or replace) a rule verbatim — the checkpoint decode hook
    /// for rebuilding a mapper from checkpointed state, including the
    /// non-seed rules `expand` learned.
    pub fn insert_rule(&mut self, raw: &str, rule: MappingRule) {
        self.rules.insert(raw.to_owned(), rule);
    }

    /// The `(min_support, min_precision)` expansion thresholds.
    pub fn thresholds(&self) -> (usize, f64) {
        (self.min_support, self.min_precision)
    }

    /// All rules, sorted by raw predicate (stable output for reports).
    pub fn rules(&self) -> Vec<(&str, &MappingRule)> {
        let mut v: Vec<(&str, &MappingRule)> =
            self.rules.iter().map(|(k, r)| (k.as_str(), r)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    pub fn len(&self) -> usize {
        self.rules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rule a raw predicate earns from its votes, if any: the
    /// stronger of its best direct and best inverted ontology predicate
    /// (direct on a tie), provided it clears the support and precision
    /// thresholds. `confidence = precision = votes / total`. The one
    /// decision both batch and incremental expansion apply.
    fn decide(
        &self,
        total: usize,
        direct: Option<(&str, usize)>,
        inverted: Option<(&str, usize)>,
    ) -> Option<MappingRule> {
        let (ontology, votes, inverted) = match (direct, inverted) {
            (Some((dp, dn)), Some((_, inn))) if dn >= inn => (dp, dn, false),
            (_, Some((ip, inn))) => (ip, inn, true),
            (Some((dp, dn)), None) => (dp, dn, false),
            (None, None) => return None,
        };
        let precision = votes as f64 / total as f64;
        (votes >= self.min_support && precision >= self.min_precision).then(|| MappingRule {
            ontology: ontology.to_owned(),
            inverted,
            confidence: precision,
            seed: false,
        })
    }

    /// One semi-supervised expansion pass, recounting every vote — the
    /// reference [`MapperExpansion`] is tested against.
    ///
    /// `raw_triples` are extraction outputs whose entities are already
    /// linked to KG ids; `known` is the KG's current pair→predicates index.
    /// For every unmapped raw predicate, votes are collected over its
    /// occurrences: a pair `(s, o)` already linked by ontology predicate
    /// `p` votes for a direct rule, a pair `(o, s)` for an inverted one.
    /// Rules passing the support and precision thresholds are added with
    /// `confidence = precision`. Returns how many rules were added.
    pub fn expand(&mut self, raw_triples: &[RawTripleIds], known: &KnownPairs) -> usize {
        // raw predicate -> (direct votes per onto, inverted votes per onto, total occurrences)
        struct Tally {
            direct: HashMap<String, usize>,
            inverted: HashMap<String, usize>,
            total: usize,
        }
        let mut tallies: HashMap<&str, Tally> = HashMap::new();
        for (s, raw, o) in raw_triples {
            if self.rules.contains_key(raw) {
                continue;
            }
            let t = tallies.entry(raw.as_str()).or_insert_with(|| Tally {
                direct: HashMap::new(),
                inverted: HashMap::new(),
                total: 0,
            });
            t.total += 1;
            if let Some(preds) = known.get(&(*s, *o)) {
                for p in preds {
                    *t.direct.entry(p.clone()).or_default() += 1;
                }
            }
            if let Some(preds) = known.get(&(*o, *s)) {
                for p in preds {
                    *t.inverted.entry(p.clone()).or_default() += 1;
                }
            }
        }

        let mut added = 0;
        let mut raws: Vec<&str> = tallies.keys().copied().collect();
        raws.sort_unstable(); // deterministic rule admission order
        for raw in raws {
            let t = &tallies[raw];
            fn by_name(votes: &HashMap<String, usize>) -> Option<(&str, usize)> {
                strongest(votes.iter().map(|(p, n)| (p.as_str(), *n)))
            }
            let rule = self.decide(t.total, by_name(&t.direct), by_name(&t.inverted));
            if let Some(rule) = rule {
                self.rules.insert(raw.to_owned(), rule);
                added += 1;
            }
        }
        added
    }

    /// Run `expand` until a fixpoint (or `max_iters`), re-deriving `known`
    /// from the mapped triples each round — newly learned rules admit new
    /// pairs which support further rules. Returns total rules added.
    /// Like [`PredicateMapper::expand`], the batch reference: ingestion
    /// goes through [`MapperExpansion::expand`].
    pub fn expand_to_fixpoint(
        &mut self,
        raw_triples: &[RawTripleIds],
        seed_known: &KnownPairs,
        max_iters: usize,
    ) -> usize {
        let mut known = seed_known.clone();
        let mut total_added = 0;
        for _ in 0..max_iters {
            let added = self.expand(raw_triples, &known);
            total_added += added;
            if added == 0 {
                break;
            }
            // Fold newly mapped triples into the known pairs.
            for (s, raw, o) in raw_triples {
                if let Some(rule) = self.rules.get(raw) {
                    let pair = if rule.inverted { (*o, *s) } else { (*s, *o) };
                    let entry = known.entry(pair).or_default();
                    if !entry.contains(&rule.ontology) {
                        entry.push(rule.ontology.clone());
                    }
                }
            }
        }
        total_added
    }
}

/// The strongest of a set of votes: most votes, ties to the
/// lexicographically smallest predicate name.
fn strongest<'a>(votes: impl Iterator<Item = (&'a str, usize)>) -> Option<(&'a str, usize)> {
    votes.max_by_key(|(p, n)| (*n, Reverse(*p)))
}

/// An ordered entity pair `(subject, object)`.
type Pair = (u32, u32);

/// A small multiset: `(interned name, count)` entries, none with count 0.
type Counts = Vec<(u32, u32)>;

fn add_count(counts: &mut Counts, id: u32, by: u32) {
    match counts.iter_mut().find(|(x, _)| *x == id) {
        Some((_, n)) => *n += by,
        None => counts.push((id, by)),
    }
}

fn sub_count(counts: &mut Counts, id: u32, by: u32) {
    let at = counts.iter().position(|(x, _)| *x == id);
    let at = at.expect("a vote is only withdrawn after it was cast");
    counts[at].1 -= by;
    if counts[at].1 == 0 {
        counts.swap_remove(at);
    }
}

/// The votes one raw predicate has collected.
#[derive(Debug, Clone, Default)]
struct Tally {
    /// Stashed occurrences of the raw predicate.
    total: u32,
    /// Occurrences whose `(s, o)` a live `p` edge connects, per `p`.
    direct: Counts,
    /// Occurrences whose `(o, s)` a live `p` edge connects, per `p`.
    inverted: Counts,
}

/// Semi-supervised mapper expansion as a delta computation.
///
/// Holds the stashed raw triples (by entity pair, occurrences counted, raw
/// predicates interned), the live KG edges per entity pair, and — the
/// product of the two — each raw predicate's vote `Tally`. Every tally
/// is the exact count [`PredicateMapper::expand`] would recount from all
/// triples and all edges, maintained at the only moments it can change:
/// [`MapperExpansion::stash`] (a raw triple arrives) and
/// [`MapperExpansion::observe_edge`] (a KG edge appears or is tombstoned).
/// Each costs the handful of predicates on one entity pair.
/// [`MapperExpansion::expand`] then learns exactly the rules, with exactly
/// the confidences, that [`PredicateMapper::expand_to_fixpoint`] would.
#[derive(Debug, Clone, Default)]
pub struct MapperExpansion {
    ontos: Names,
    raws: Names,
    /// Live KG edges per ordered pair: `(ontology predicate, multiplicity)`.
    known: HashMap<Pair, Counts>,
    /// Stashed raw triples per ordered pair: `(raw predicate, occurrences)`.
    pending: HashMap<Pair, Counts>,
    /// The distinct pairs each raw predicate was stashed on.
    pairs_of_raw: Vec<Vec<Pair>>,
    /// Indexed by raw predicate id.
    tallies: Vec<Tally>,
    stashed: usize,
    visited: u64,
}

impl MapperExpansion {
    /// Raw triples stashed so far, occurrences counted.
    pub fn stashed(&self) -> usize {
        self.stashed
    }

    /// Tallies, stashed triples and edges [`MapperExpansion::expand`] and
    /// [`MapperExpansion::observe_edge`] have looked at so far — the work
    /// expansion does, as a count. Stays proportional to what arrived,
    /// not to what has accumulated.
    pub fn visited(&self) -> u64 {
        self.visited
    }

    /// Retain a raw triple whose predicate is unmapped but whose entities
    /// resolved: it votes for every ontology predicate linking its pair.
    pub fn stash(&mut self, s: u32, raw: &str, o: u32) {
        let r = self.raws.intern(raw);
        self.stash_occurrences(s, r, o, 1);
    }

    fn stash_occurrences(&mut self, s: u32, r: u32, o: u32, n: u32) {
        if r as usize >= self.tallies.len() {
            self.tallies.resize_with(r as usize + 1, Tally::default);
            self.pairs_of_raw.resize_with(r as usize + 1, Vec::new);
        }
        let on_pair = self.pending.entry((s, o)).or_default();
        if !on_pair.iter().any(|(x, _)| *x == r) {
            self.pairs_of_raw[r as usize].push((s, o));
        }
        add_count(on_pair, r, n);
        let t = &mut self.tallies[r as usize];
        t.total += n;
        for &(p, edges) in self.known.get(&(s, o)).into_iter().flatten() {
            add_count(&mut t.direct, p, edges * n);
        }
        for &(p, edges) in self.known.get(&(o, s)).into_iter().flatten() {
            add_count(&mut t.inverted, p, edges * n);
        }
        self.stashed += n as usize;
    }

    /// A live KG edge `(s, ontology, o)` appeared (`live`) or was
    /// tombstoned (`!live`): every stashed triple on that pair, in either
    /// orientation, gains or loses its vote for `ontology`.
    pub fn observe_edge(&mut self, s: u32, ontology: &str, o: u32, live: bool) {
        self.visited += 1;
        let p = self.ontos.intern(ontology);
        let update = if live { add_count } else { sub_count };
        let on_pair = self.known.entry((s, o)).or_default();
        update(on_pair, p, 1);
        if on_pair.is_empty() {
            self.known.remove(&(s, o));
        }
        for &(r, n) in self.pending.get(&(s, o)).into_iter().flatten() {
            update(&mut self.tallies[r as usize].direct, p, n);
        }
        for &(r, n) in self.pending.get(&(o, s)).into_iter().flatten() {
            update(&mut self.tallies[r as usize].inverted, p, n);
        }
    }

    /// Drop every observed edge and the votes they cast (stashed triples
    /// stay), ahead of re-observing a graph whose history was rewritten.
    pub fn forget_edges(&mut self) {
        self.known.clear();
        for t in &mut self.tallies {
            t.direct.clear();
            t.inverted.clear();
        }
    }

    /// Learn what the tallies support, to a fixpoint of at most
    /// `max_rounds` rounds. The first round reads the maintained tallies
    /// and nothing else; only when it learns a rule do later rounds run,
    /// adding the votes of the triples that rules now map (each mapped
    /// stashed triple stands in for the edge it would have become, once
    /// per pair and predicate, where no live edge already says the same).
    /// Returns the number of rules added.
    pub fn expand(&mut self, mapper: &mut PredicateMapper, max_rounds: usize) -> usize {
        let mut added = 0;
        for round in 0..max_rounds {
            let implied = if round == 0 {
                HashMap::new()
            } else {
                self.implied_votes(mapper)
            };
            let mut learned = Vec::new();
            for (r, t) in self.tallies.iter().enumerate() {
                self.visited += 1;
                let (mut direct, mut inverted) = (&t.direct, &t.inverted);
                let with_implied;
                if let Some((more_direct, more_inverted)) = implied.get(&(r as u32)) {
                    let sum = |own: &Counts, more: &Counts| {
                        let mut votes = own.clone();
                        for &(p, n) in more {
                            add_count(&mut votes, p, n);
                        }
                        votes
                    };
                    with_implied = (sum(direct, more_direct), sum(inverted, more_inverted));
                    (direct, inverted) = (&with_implied.0, &with_implied.1);
                }
                let by_name = |votes: &'_ Counts| {
                    strongest(votes.iter().map(|&(p, n)| (self.ontos.name(p), n as usize)))
                };
                let rule = mapper.decide(t.total as usize, by_name(direct), by_name(inverted));
                let raw = self.raws.name(r as u32);
                if let Some(rule) = rule.filter(|_| mapper.map(raw).is_none()) {
                    learned.push((raw.to_owned(), rule));
                }
            }
            if learned.is_empty() {
                break;
            }
            added += learned.len();
            mapper.rules.extend(learned);
        }
        added
    }

    /// `(direct, inverted)` votes per raw predicate cast by the stashed
    /// triples `mapper` now maps, standing in for edges.
    fn implied_votes(&mut self, mapper: &PredicateMapper) -> HashMap<u32, (Counts, Counts)> {
        let mut votes: HashMap<u32, (Counts, Counts)> = HashMap::new();
        let mut implied: HashSet<(Pair, u32)> = HashSet::new();
        for (r, pairs) in self.pairs_of_raw.iter().enumerate() {
            let Some(rule) = mapper.map(self.raws.name(r as u32)) else {
                continue;
            };
            let p = self.ontos.intern(&rule.ontology);
            for &(s, o) in pairs {
                self.visited += 1;
                let (s, o) = if rule.inverted { (o, s) } else { (s, o) };
                let said_by_an_edge = self
                    .known
                    .get(&(s, o))
                    .is_some_and(|edges| edges.iter().any(|(x, _)| *x == p));
                if said_by_an_edge || !implied.insert(((s, o), p)) {
                    continue;
                }
                for &(r2, n) in self.pending.get(&(s, o)).into_iter().flatten() {
                    add_count(&mut votes.entry(r2).or_default().0, p, n);
                }
                for &(r2, n) in self.pending.get(&(o, s)).into_iter().flatten() {
                    add_count(&mut votes.entry(r2).or_default().1, p, n);
                }
            }
        }
        votes
    }

    /// The raw predicates seen so far, indexed by the ids
    /// [`MapperExpansion::entries`] refers to.
    pub fn raw_predicates(&self) -> &[String] {
        self.raws.table()
    }

    /// The stashed triples as `(subject, raw predicate id, object,
    /// occurrences)`, sorted — a deterministic persistent form.
    pub fn entries(&self) -> Vec<(u32, u32, u32, u32)> {
        let mut out: Vec<_> = self
            .pending
            .iter()
            .flat_map(|(&(s, o), raws)| raws.iter().map(move |&(r, n)| (s, r, o, n)))
            .collect();
        out.sort_unstable();
        out
    }

    /// Rebuild from [`MapperExpansion::raw_predicates`] and
    /// [`MapperExpansion::entries`]. Edges are not part of the persistent
    /// form: the caller re-observes the graph. `None` if an entry names a
    /// raw predicate the table does not hold.
    pub fn restore(raw_predicates: &[String], entries: &[(u32, u32, u32, u32)]) -> Option<Self> {
        let mut state = Self::default();
        for raw in raw_predicates {
            state.raws.intern(raw);
        }
        for &(s, r, o, n) in entries {
            if r as usize >= state.raws.table().len() {
                return None;
            }
            state.stash_occurrences(s, r, o, n);
        }
        Some(state)
    }

    /// The stashed triples spelled out, one per occurrence — the input
    /// [`PredicateMapper::expand_to_fixpoint`] takes.
    pub fn triples(&self) -> Vec<RawTripleIds> {
        self.entries()
            .into_iter()
            .flat_map(|(s, r, o, n)| {
                std::iter::repeat_n((s, self.raws.name(r).to_owned(), o), n as usize)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn known(pairs: &[((u32, u32), &str)]) -> KnownPairs {
        let mut k = KnownPairs::new();
        for ((s, o), p) in pairs {
            k.entry((*s, *o)).or_default().push((*p).to_owned());
        }
        k
    }

    fn raws(list: &[(u32, &str, u32)]) -> Vec<RawTripleIds> {
        list.iter()
            .map(|(s, r, o)| (*s, (*r).to_owned(), *o))
            .collect()
    }

    #[test]
    fn seeds_map_immediately() {
        let m = PredicateMapper::bootstrap(&[("acquire", "acquired", false)]);
        let r = m.map("acquire").unwrap();
        assert_eq!(r.ontology, "acquired");
        assert!(!r.inverted);
        assert!(r.seed);
        assert!(m.map("buy").is_none());
    }

    #[test]
    fn expansion_learns_synonym_from_distant_supervision() {
        let mut m = PredicateMapper::bootstrap(&[("acquire", "acquired", false)]);
        // KG already knows 1-acquired-2 etc. (e.g. via the seed's output).
        let kb = known(&[
            ((1, 2), "acquired"),
            ((3, 4), "acquired"),
            ((5, 6), "acquired"),
        ]);
        // "buy" connects the same pairs in the raw corpus.
        let rt = raws(&[(1, "buy", 2), (3, "buy", 4), (5, "buy", 6), (7, "buy", 8)]);
        let added = m.expand(&rt, &kb);
        assert_eq!(added, 1);
        let r = m.map("buy").unwrap();
        assert_eq!(r.ontology, "acquired");
        assert!(!r.seed);
        assert!(
            (r.confidence - 0.75).abs() < 1e-9,
            "3 of 4 occurrences supervised"
        );
    }

    #[test]
    fn inverted_rules_are_learned() {
        let mut m = PredicateMapper::bootstrap(&[]);
        m = m.with_thresholds(2, 0.5);
        // KG: company 10 foundedBy person 20 — raw text says "20 founded 10".
        let kb = known(&[((10, 20), "foundedBy"), ((11, 21), "foundedBy")]);
        let rt = raws(&[(20, "found", 10), (21, "found", 11)]);
        assert_eq!(m.expand(&rt, &kb), 1);
        let r = m.map("found").unwrap();
        assert_eq!(r.ontology, "foundedBy");
        assert!(r.inverted);
    }

    #[test]
    fn low_support_is_rejected() {
        let mut m = PredicateMapper::bootstrap(&[]);
        let kb = known(&[((1, 2), "acquired")]);
        let rt = raws(&[(1, "buy", 2)]); // support 1 < 3
        assert_eq!(m.expand(&rt, &kb), 0);
        assert!(m.map("buy").is_none());
    }

    #[test]
    fn low_precision_is_rejected() {
        let mut m = PredicateMapper::bootstrap(&[]).with_thresholds(3, 0.6);
        let kb = known(&[
            ((1, 2), "acquired"),
            ((3, 4), "acquired"),
            ((5, 6), "acquired"),
        ]);
        // 3 supervised out of 10 → precision 0.3 < 0.6.
        let mut list = vec![(1, "say", 2), (3, "say", 4), (5, "say", 6)];
        for i in 0..7u32 {
            list.push((100 + i, "say", 200 + i));
        }
        let rt = raws(
            &list
                .iter()
                .map(|(a, b, c)| (*a, *b, *c))
                .collect::<Vec<_>>(),
        );
        assert_eq!(m.expand(&rt, &kb), 0);
    }

    #[test]
    fn fixpoint_expansion_chains_rules() {
        // Seed maps "acquire"; "buy" co-occurs with acquire pairs; then
        // "purchase" co-occurs with pairs only covered once "buy" is mapped.
        let mut m = PredicateMapper::bootstrap(&[("acquire", "acquired", false)]);
        let kb = known(&[
            ((1, 2), "acquired"),
            ((3, 4), "acquired"),
            ((5, 6), "acquired"),
        ]);
        let rt = raws(&[
            // buy over KB-known pairs
            (1, "buy", 2),
            (3, "buy", 4),
            (5, "buy", 6),
            // buy over new pairs (become known after buy is mapped)
            (7, "buy", 8),
            (9, "buy", 10),
            (11, "buy", 12),
            // purchase only over the new pairs
            (7, "purchase", 8),
            (9, "purchase", 10),
            (11, "purchase", 12),
        ]);
        let added = m.expand_to_fixpoint(&rt, &kb, 10);
        assert_eq!(added, 2, "buy then purchase");
        assert_eq!(m.map("purchase").unwrap().ontology, "acquired");
    }

    #[test]
    fn incremental_expansion_chains_rules_like_the_batch_fixpoint() {
        let mut m = PredicateMapper::bootstrap(&[("acquire", "acquired", false)]);
        let mut x = MapperExpansion::default();
        // Votes arrive in both orders: triple before edge, edge before triple.
        x.stash(1, "buy", 2);
        for (s, o) in [(1, 2), (3, 4), (5, 6)] {
            x.observe_edge(s, "acquired", o, true);
        }
        for (s, raw, o) in [
            (3, "buy", 4),
            (5, "buy", 6),
            (7, "buy", 8),
            (9, "buy", 10),
            (11, "buy", 12),
            (7, "purchase", 8),
            (9, "purchase", 10),
            (11, "purchase", 12),
        ] {
            x.stash(s, raw, o);
        }
        assert_eq!(x.stashed(), 9);
        assert_eq!(
            x.expand(&mut m, 10),
            2,
            "buy, then purchase on what buy implies"
        );
        assert_eq!(m.map("buy").unwrap().confidence, 0.5);
        assert_eq!(m.map("purchase").unwrap().ontology, "acquired");
        assert_eq!(m.map("purchase").unwrap().confidence, 1.0);
        assert_eq!(x.expand(&mut m, 10), 0, "nothing left to learn");
    }

    #[test]
    fn tombstoned_edge_withdraws_its_votes() {
        let mut m = PredicateMapper::bootstrap(&[]);
        let mut x = MapperExpansion::default();
        for (s, o) in [(1, 2), (3, 4), (5, 6)] {
            x.observe_edge(s, "isLocatedIn", o, true);
            x.stash(s, "base_in", o);
        }
        // A superseded home leaves the known pairs before expansion runs.
        x.observe_edge(5, "isLocatedIn", 6, false);
        assert_eq!(x.expand(&mut m, 5), 0, "2 votes < support 3");
        x.observe_edge(5, "isLocatedIn", 7, true);
        x.stash(5, "base_in", 7);
        assert_eq!(x.expand(&mut m, 5), 1);
        assert_eq!(m.map("base_in").unwrap().confidence, 0.75);
    }

    #[test]
    fn restored_expansion_holds_the_same_tallies() {
        let mut x = MapperExpansion::default();
        x.observe_edge(10, "foundedBy", 20, true);
        x.observe_edge(11, "foundedBy", 21, true);
        x.stash(20, "found", 10);
        x.stash(21, "found", 11);
        x.stash(21, "found", 11);
        let mut back = MapperExpansion::restore(x.raw_predicates(), &x.entries()).unwrap();
        assert_eq!(back.stashed(), 3);
        assert_eq!(back.entries(), x.entries());
        assert_eq!(back.triples(), x.triples());
        // Edges are re-observed by the caller, in any order relative to
        // the stashed triples.
        back.observe_edge(11, "foundedBy", 21, true);
        back.observe_edge(10, "foundedBy", 20, true);
        let (mut m1, mut m2) = (
            PredicateMapper::bootstrap(&[]),
            PredicateMapper::bootstrap(&[]),
        );
        assert_eq!(x.expand(&mut m1, 5), 1);
        assert_eq!(back.expand(&mut m2, 5), 1);
        assert_eq!(m1.rules(), m2.rules());
        assert!(m1.map("found").unwrap().inverted);
        assert!(MapperExpansion::restore(&[], &[(1, 0, 2, 1)]).is_none());
    }

    /// Random interleavings of stashes, edge appearances, tombstones and
    /// expansions: after every expansion the incremental state has learned
    /// exactly what the batch fixpoint learns from scratch.
    #[test]
    fn incremental_expansion_matches_batch_on_random_histories() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const ONTOS: [&str; 3] = ["acquired", "foundedBy", "isLocatedIn"];
        const RAWS: [&str; 6] = ["buy", "purchase", "found", "base_in", "say", "acquire"];
        let mut learned = 0;
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let thresholds = (
                rng.gen_range(1..4usize),
                [0.3, 0.5, 0.8][rng.gen_range(0..3usize)],
            );
            let seeds = [("acquire", "acquired", false)];
            let mut oracle =
                PredicateMapper::bootstrap(&seeds).with_thresholds(thresholds.0, thresholds.1);
            let mut mapper = oracle.clone();
            let mut x = MapperExpansion::default();
            let mut triples: Vec<RawTripleIds> = Vec::new();
            let mut edges: Vec<(u32, &str, u32)> = Vec::new();
            for step in 0..400 {
                let (s, o) = (rng.gen_range(0..6u32), rng.gen_range(0..6u32));
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let raw = RAWS[rng.gen_range(0..RAWS.len())];
                        x.stash(s, raw, o);
                        triples.push((s, raw.to_owned(), o));
                    }
                    5..=7 => {
                        let p = ONTOS[rng.gen_range(0..ONTOS.len())];
                        x.observe_edge(s, p, o, true);
                        edges.push((s, p, o));
                    }
                    _ if !edges.is_empty() => {
                        let (s, p, o) = edges.swap_remove(rng.gen_range(0..edges.len()));
                        x.observe_edge(s, p, o, false);
                    }
                    _ => {}
                }
                if step % 25 == 24 {
                    let mut kb = KnownPairs::new();
                    for (s, p, o) in &edges {
                        kb.entry((*s, *o)).or_default().push((*p).to_owned());
                    }
                    let want = oracle.expand_to_fixpoint(&triples, &kb, 5);
                    assert_eq!(x.expand(&mut mapper, 5), want, "seed {seed} step {step}");
                    assert_eq!(mapper.rules(), oracle.rules(), "seed {seed} step {step}");
                    learned += want;
                }
            }
        }
        assert!(
            learned > 40,
            "the histories must exercise learning: {learned}"
        );
    }

    #[test]
    fn seeds_are_never_overwritten() {
        let mut m = PredicateMapper::bootstrap(&[("buy", "acquired", false)]);
        let kb = known(&[
            ((1, 2), "investedIn"),
            ((3, 4), "investedIn"),
            ((5, 6), "investedIn"),
        ]);
        let rt = raws(&[(1, "buy", 2), (3, "buy", 4), (5, "buy", 6)]);
        m.expand(&rt, &kb);
        assert_eq!(m.map("buy").unwrap().ontology, "acquired", "seed survives");
    }

    #[test]
    fn rules_listing_is_sorted() {
        let m = PredicateMapper::bootstrap(&[("zeta", "p", false), ("alpha", "p", false)]);
        let names: Vec<&str> = m.rules().iter().map(|(k, _)| *k).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
