//! AIDA-adapted entity disambiguation.
//!
//! AIDA (Hoffart et al. 2011) scores candidate entities for a mention by
//! combining a popularity prior with context similarity; the original
//! context is the entity's Wikipedia article. NOUS adapts this to the
//! dynamic-KG setting (§3.3): "As new entities from online articles are
//! added to the knowledge graph, we use only the entity neighborhood in the
//! knowledge graph to calculate contextual similarity." [`EntityRecord`]
//! carries exactly that: a bag-of-words accumulated from the entity's
//! description and the names/text of its graph neighbours, updatable as the
//! graph grows.
//!
//! Two types split that state by who reads it. [`AliasResolver`] is what
//! *serving* reads — alias table, canonical names, popularity — and is
//! what gets cloned to publish the linker to lock-free readers. A clone
//! shares the identity and alias tables (they change only when an entity
//! is minted, and are copied on write then) and copies the popularity
//! values, which every admitted fact moves.
//! [`Disambiguator`] is the live engine ingestion writes: an
//! `AliasResolver` plus the one context bag per entity that only mention
//! resolution *with* a context ever reads, and that is never cloned.

use crate::context::ContextStore;
use crate::normalize::alias_key;
use nous_text::bow::BagOfWords;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::Arc;

/// One linkable entity with its disambiguation context — the form entities
/// are registered and persisted in.
#[derive(Debug, Clone)]
pub struct EntityRecord {
    /// Caller-side identifier (e.g. a graph `VertexId` payload).
    pub id: u32,
    pub name: String,
    pub aliases: Vec<String>,
    /// KG-neighbourhood bag-of-words (description + neighbour names).
    pub context: BagOfWords,
    /// Popularity prior source — typically the vertex degree.
    pub popularity: f64,
}

/// Scoring mode: the full AIDA-style combination or one of the E10
/// baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkMode {
    /// prior + context similarity (the paper's approach).
    Full,
    /// Popularity prior only (ignores context).
    PopularityOnly,
    /// Resolve only unambiguous aliases; ambiguous mentions return `None`.
    ExactOnly,
}

/// Result of resolving one mention.
#[derive(Debug, Clone)]
pub struct Resolution {
    /// Winning entity id.
    pub id: u32,
    /// Winning entity canonical name.
    pub name: String,
    /// Combined score of the winner.
    pub score: f64,
    /// Margin over the runner-up (∞-like large value when unique).
    pub margin: f64,
    /// Number of candidates considered.
    pub candidates: usize,
}

/// The never-changing part of a registered entity.
#[derive(Debug, Clone)]
struct Identity {
    id: u32,
    name: String,
    aliases: Vec<String>,
}

/// What a mint changes: the registered identities and the alias table.
#[derive(Debug, Clone, Default)]
struct Tables {
    identities: Vec<Identity>,
    /// Lower-cased alias → record indexes (ascending).
    alias_index: HashMap<String, Vec<usize>>,
}

/// Alias resolution without a mention context: everything the query path
/// reads of the linker. A clone copies the popularity values and shares
/// the identity and alias tables, which the live engine copies before it
/// next mints into them — so a clone keeps answering from the epoch it
/// was taken at. No context bag is ever part of it.
#[derive(Debug, Clone)]
pub struct AliasResolver {
    tables: Arc<Tables>,
    /// Popularity prior source per record — typically the vertex degree.
    popularity: Vec<f64>,
    /// Weight of the context-similarity term (prior gets `1 - w`).
    context_weight: f64,
    /// Monotone counter of mutations to anything above. Equal versions on
    /// clones of one resolver mean identical state, which lets snapshot
    /// publication reuse the previously published clone.
    version: u64,
}

impl AliasResolver {
    /// Monotone counter bumped by every mutation a reader could observe
    /// (a new entity, a popularity change).
    pub fn version(&self) -> u64 {
        self.version
    }

    pub fn len(&self) -> usize {
        self.tables.identities.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.identities.is_empty()
    }

    /// Elements copied to publish this resolver when `prev` was the one
    /// published before: every popularity value (the clone copies them),
    /// plus every record and alias-table key if a mint since `prev` had
    /// to copy the tables away from it.
    pub fn copied_since(&self, prev: &AliasResolver) -> usize {
        let tables = if Arc::ptr_eq(&self.tables, &prev.tables) {
            0
        } else {
            self.tables.identities.len() + self.tables.alias_index.len()
        };
        self.popularity.len() + tables
    }

    /// Caller-side identifier of record `idx`.
    pub fn id(&self, idx: usize) -> u32 {
        self.tables.identities[idx].id
    }

    /// Canonical name of record `idx`.
    pub fn name(&self, idx: usize) -> &str {
        &self.tables.identities[idx].name
    }

    /// Aliases record `idx` was registered under.
    pub fn aliases(&self, idx: usize) -> &[String] {
        &self.tables.identities[idx].aliases
    }

    pub fn popularity(&self, idx: usize) -> f64 {
        self.popularity[idx]
    }

    /// Candidate record indexes for a (normalised) mention surface.
    pub fn candidates(&self, surface: &str) -> &[usize] {
        self.tables
            .alias_index
            .get(&alias_key(surface))
            .map_or(&[], Vec::as_slice)
    }

    /// Resolve `surface` with no mention context: a unique alias resolves
    /// directly, an ambiguous one by the popularity prior. Exactly
    /// [`Disambiguator::resolve`] under [`LinkMode::Full`] with an empty
    /// context — both run `AliasResolver::resolve_scored`.
    pub fn resolve(&self, surface: &str) -> Option<Resolution> {
        self.resolve_scored(surface, LinkMode::Full, |_| 0.0)
    }

    /// The AIDA-style decision: `similarity(idx)` is the context term of
    /// candidate record `idx`, asked for only when `mode` uses it.
    fn resolve_scored(
        &self,
        surface: &str,
        mode: LinkMode,
        similarity: impl Fn(usize) -> f64,
    ) -> Option<Resolution> {
        let cands = self.candidates(surface);
        if cands.is_empty() {
            return None;
        }
        if cands.len() == 1 {
            let r = &self.tables.identities[cands[0]];
            return Some(Resolution {
                id: r.id,
                name: r.name.clone(),
                score: 1.0,
                margin: 1.0,
                candidates: 1,
            });
        }
        if mode == LinkMode::ExactOnly {
            return None;
        }

        let max_pop = cands
            .iter()
            .map(|&i| self.popularity(i))
            .fold(0.0f64, f64::max)
            .max(1.0);
        let mut scored: Vec<(usize, f64)> = cands
            .iter()
            .map(|&i| {
                let prior = (1.0 + self.popularity(i)).ln() / (1.0 + max_pop).ln();
                let (w, sim) = match mode {
                    LinkMode::PopularityOnly => (0.0, 0.0),
                    _ => (self.context_weight, similarity(i)),
                };
                (i, (1.0 - w) * prior + w * sim)
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
        let (best, best_score) = scored[0];
        let margin = best_score - scored.get(1).map(|x| x.1).unwrap_or(0.0);
        let r = &self.tables.identities[best];
        Some(Resolution {
            id: r.id,
            name: r.name.clone(),
            score: best_score,
            margin,
            candidates: cands.len(),
        })
    }
}

/// The disambiguation engine: the [`AliasResolver`] ingestion keeps
/// current, plus the single context bag per entity.
#[derive(Debug)]
pub struct Disambiguator {
    served: AliasResolver,
    /// KG-neighbourhood bag-of-words per record, parallel to the
    /// resolver's records. The only copy: never published, never cloned.
    contexts: ContextStore,
    /// entity id → index of its (first) record, for O(1) dynamic updates.
    id_index: HashMap<u32, usize>,
}

impl Disambiguator {
    pub fn new(records: Vec<EntityRecord>) -> Self {
        let mut d = Self::over(ContextStore::default());
        for r in records {
            d.insert(r);
        }
        d
    }

    /// An engine with no records yet, keeping its contexts in `contexts`.
    fn over(contexts: ContextStore) -> Self {
        Self {
            served: AliasResolver {
                tables: Arc::default(),
                popularity: Vec::new(),
                context_weight: 0.7,
                version: 0,
            },
            contexts,
            id_index: HashMap::new(),
        }
    }

    /// Rebuild an engine from its compact persistent form: the context
    /// term table ([`Disambiguator::context_terms`]) and, per record, its
    /// registration form (`context` left empty) with its
    /// [`Disambiguator::context_entries`]. `None` if the entries do not
    /// fit the table (ids out of range or not ascending, a repeated term).
    pub fn restore(
        context_weight: f64,
        context_terms: Vec<String>,
        records: Vec<(EntityRecord, Vec<(u32, u32)>)>,
    ) -> Option<Self> {
        let mut d = Self::over(ContextStore::with_terms(context_terms)?);
        for (record, entries) in records {
            d.contexts.push_entries(entries)?;
            d.register(record);
        }
        Some(d.with_context_weight(context_weight))
    }

    /// Adjust the context/prior blend (default 0.7 context).
    pub fn with_context_weight(mut self, w: f64) -> Self {
        self.served.context_weight = w.clamp(0.0, 1.0);
        self
    }

    /// The current context/prior blend (for state serialization).
    pub fn context_weight(&self) -> f64 {
        self.served.context_weight
    }

    /// What serving reads of this engine. Clone it to publish.
    pub fn served(&self) -> &AliasResolver {
        &self.served
    }

    pub fn len(&self) -> usize {
        self.served.len()
    }

    pub fn is_empty(&self) -> bool {
        self.served.is_empty()
    }

    /// The context bag of record `idx`, spelled out (a copy: the engine
    /// keeps contexts over an interned term table).
    pub fn context(&self, idx: usize) -> BagOfWords {
        self.contexts.bag(idx)
    }

    /// The context bag of entity `id` (its first record's), if registered.
    pub fn context_of(&self, id: u32) -> Option<BagOfWords> {
        self.id_index.get(&id).map(|&idx| self.context(idx))
    }

    /// The interned terms of all contexts, indexed by the ids
    /// [`Disambiguator::context_entries`] uses — with them, the compact
    /// persistent form of the contexts.
    pub fn context_terms(&self) -> &[String] {
        self.contexts.terms()
    }

    /// Record `idx`'s context as `(term id, count)`, ascending by id.
    pub fn context_entries(&self, idx: usize) -> &[(u32, u32)] {
        self.contexts.entries(idx)
    }

    /// Entity `id`'s context (its first record's) as `(term id, count)`,
    /// ascending by id, if registered: [`Disambiguator::context_of`]
    /// without spelling the terms out.
    pub fn context_entries_of(&self, id: u32) -> Option<&[(u32, u32)]> {
        self.id_index.get(&id).map(|&idx| self.context_entries(idx))
    }

    /// Fold additional context into an entity's bag (dynamic updates as
    /// the KG gains neighbours) and bump its popularity. O(1) in the
    /// number of records — this runs four times per admitted fact.
    /// Returns whether `id` is registered (nothing changes if not).
    pub fn update_context(&mut self, id: u32, extra: &BagOfWords, popularity_delta: f64) -> bool {
        let Some(&idx) = self.id_index.get(&id) else {
            return false;
        };
        self.contexts.merge(idx, extra);
        if popularity_delta != 0.0 {
            self.served.popularity[idx] += popularity_delta;
            self.served.version += 1;
        }
        true
    }

    /// Record that entities `a` and `b` became neighbours through one
    /// fact: each registered endpoint gains the other's name terms and
    /// one unit of popularity. Exactly
    /// `update_context(a.0, &BagOfWords::from_text(b.1), 1.0)` followed by
    /// `update_context(b.0, &BagOfWords::from_text(a.1), 1.0)` — the same
    /// term table, bags, popularity and version — as long as a registered
    /// endpoint comes with the name its record was registered under. That
    /// name is tokenized and interned once, by the first fold that needs
    /// it; the name of an endpoint with no record is folded as given.
    pub fn link_neighbours(&mut self, a: (u32, &str), b: (u32, &str)) {
        let ia = self.id_index.get(&a.0).copied();
        let ib = self.id_index.get(&b.0).copied();
        // The receiver is checked first, so a name is interned only when
        // some record receives it, and `b`'s name before `a`'s.
        if let Some(i) = ia {
            self.fold_neighbour(i, ib, b.1);
        }
        if let Some(j) = ib {
            self.fold_neighbour(j, ia, a.1);
        }
    }

    /// Fold a neighbour's name into record `idx`'s context — by record
    /// (`from`) when it has one, else from `name` — and bump popularity.
    fn fold_neighbour(&mut self, idx: usize, from: Option<usize>, name: &str) {
        match from {
            Some(f) => {
                let name = &self.served.tables.identities[f].name;
                self.contexts.merge_name(idx, f, name);
            }
            None => self.contexts.merge(idx, &BagOfWords::from_text(name)),
        }
        self.served.popularity[idx] += 1.0;
        self.served.version += 1;
    }

    /// Register a brand-new entity discovered at ingestion time.
    pub fn insert(&mut self, record: EntityRecord) {
        self.contexts.push(&record.context);
        self.register(record);
    }

    /// Everything of `insert` but the context, which the caller has pushed.
    /// Copies the identity and alias tables first if a published clone
    /// still shares them.
    fn register(&mut self, record: EntityRecord) {
        let idx = self.served.len();
        let tables = Arc::make_mut(&mut self.served.tables);
        for a in &record.aliases {
            // Indexes arrive in ascending order, so a repeat of the key
            // within one record is always the last push.
            let idxs = tables.alias_index.entry(a.to_lowercase()).or_default();
            if idxs.last() != Some(&idx) {
                idxs.push(idx);
            }
        }
        self.id_index.entry(record.id).or_insert(idx);
        self.served.popularity.push(record.popularity);
        tables.identities.push(Identity {
            id: record.id,
            name: record.name,
            aliases: record.aliases,
        });
        self.served.version += 1;
    }

    /// Candidate record indexes for a (normalised) mention surface.
    pub fn candidates(&self, surface: &str) -> &[usize] {
        self.served.candidates(surface)
    }

    /// Resolve `surface` against `context` (the mention's sentence/document
    /// bag-of-words). Returns `None` when no alias matches, or in
    /// `ExactOnly` mode when the alias is ambiguous.
    pub fn resolve(
        &self,
        surface: &str,
        context: &BagOfWords,
        mode: LinkMode,
    ) -> Option<Resolution> {
        // The mention's terms are looked up in the term table once, and
        // only if the alias turns out ambiguous.
        let mention = OnceCell::new();
        self.served.resolve_scored(surface, mode, |i| {
            let mention = mention.get_or_init(|| self.contexts.known_terms(context));
            self.contexts.cosine(mention, i)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bow(words: &[(&str, u32)]) -> BagOfWords {
        let mut b = BagOfWords::new();
        for (w, n) in words {
            b.add(w, *n);
        }
        b
    }

    /// Two "Apex" companies: Robotics (agriculture, popular) and Aviation
    /// (logistics, obscure).
    fn apex_world() -> Disambiguator {
        Disambiguator::new(vec![
            EntityRecord {
                id: 0,
                name: "Apex Robotics".into(),
                aliases: vec!["Apex Robotics".into(), "Apex".into()],
                context: bow(&[("crop", 5), ("farm", 4), ("spraying", 3), ("drone", 2)]),
                popularity: 20.0,
            },
            EntityRecord {
                id: 1,
                name: "Apex Aviation".into(),
                aliases: vec!["Apex Aviation".into(), "Apex".into()],
                context: bow(&[
                    ("delivery", 5),
                    ("parcel", 4),
                    ("warehouse", 3),
                    ("drone", 2),
                ]),
                popularity: 3.0,
            },
            EntityRecord {
                id: 2,
                name: "Shenzhen".into(),
                aliases: vec!["Shenzhen".into()],
                context: bow(&[("city", 3)]),
                popularity: 50.0,
            },
        ])
    }

    #[test]
    fn unambiguous_alias_resolves_directly() {
        let d = apex_world();
        let r = d
            .resolve("Shenzhen", &BagOfWords::new(), LinkMode::Full)
            .unwrap();
        assert_eq!(r.name, "Shenzhen");
        assert_eq!(r.candidates, 1);
    }

    #[test]
    fn context_separates_ambiguous_alias() {
        let d = apex_world();
        let farm_ctx = bow(&[("farm", 2), ("crop", 1), ("harvest", 1)]);
        let r = d.resolve("Apex", &farm_ctx, LinkMode::Full).unwrap();
        assert_eq!(r.name, "Apex Robotics");
        let delivery_ctx = bow(&[("parcel", 2), ("delivery", 2)]);
        let r2 = d.resolve("Apex", &delivery_ctx, LinkMode::Full).unwrap();
        assert_eq!(r2.name, "Apex Aviation", "context must beat popularity");
    }

    #[test]
    fn popularity_only_always_picks_popular() {
        let d = apex_world();
        let delivery_ctx = bow(&[("parcel", 2), ("delivery", 2)]);
        let r = d
            .resolve("Apex", &delivery_ctx, LinkMode::PopularityOnly)
            .unwrap();
        assert_eq!(r.name, "Apex Robotics", "prior ignores the context");
    }

    #[test]
    fn exact_only_refuses_ambiguity() {
        let d = apex_world();
        assert!(d
            .resolve("Apex", &BagOfWords::new(), LinkMode::ExactOnly)
            .is_none());
        assert!(d
            .resolve("Shenzhen", &BagOfWords::new(), LinkMode::ExactOnly)
            .is_some());
    }

    #[test]
    fn unknown_surface_returns_none() {
        let d = apex_world();
        assert!(d
            .resolve("Nonexistent Corp", &BagOfWords::new(), LinkMode::Full)
            .is_none());
    }

    #[test]
    fn mention_normalisation_applies() {
        let d = apex_world();
        let r = d.resolve("the Apex Robotics'", &BagOfWords::new(), LinkMode::Full);
        assert!(r.is_some(), "determiner/possessive must not block lookup");
    }

    #[test]
    fn dynamic_context_update_changes_outcome() {
        let mut d = apex_world();
        let ctx = bow(&[("airspace", 3), ("waiver", 2)]);
        // Initially neither candidate matches this context; popularity wins.
        let before = d.resolve("Apex", &ctx, LinkMode::Full).unwrap();
        assert_eq!(before.name, "Apex Robotics");
        // Aviation's neighbourhood grows regulation-flavoured text.
        d.update_context(1, &bow(&[("airspace", 6), ("waiver", 4)]), 1.0);
        let after = d.resolve("Apex", &ctx, LinkMode::Full).unwrap();
        assert_eq!(after.name, "Apex Aviation");
    }

    #[test]
    fn insert_registers_new_aliases() {
        let mut d = apex_world();
        d.insert(EntityRecord {
            id: 9,
            name: "Nimbus Labs".into(),
            aliases: vec!["Nimbus Labs".into(), "Nimbus".into()],
            context: BagOfWords::new(),
            popularity: 0.0,
        });
        let r = d
            .resolve("Nimbus", &BagOfWords::new(), LinkMode::Full)
            .unwrap();
        assert_eq!(r.id, 9);
    }

    #[test]
    fn duplicate_aliases_register_once() {
        let mut d = Disambiguator::new(vec![EntityRecord {
            id: 3,
            name: "Vertex Dynamics".into(),
            aliases: vec!["Vertex".into(), "vertex".into(), "VERTEX".into()],
            context: BagOfWords::new(),
            popularity: 1.0,
        }]);
        assert_eq!(
            d.candidates("Vertex"),
            &[0],
            "case-folded duplicates collapse"
        );
        d.insert(EntityRecord {
            id: 4,
            name: "Vertex Labs".into(),
            aliases: vec!["Vertex".into(), "Vertex".into()],
            context: BagOfWords::new(),
            popularity: 0.0,
        });
        assert_eq!(
            d.candidates("Vertex"),
            &[0, 1],
            "insert dedupes within the record too"
        );
    }

    #[test]
    fn update_context_targets_first_record_for_duplicate_ids() {
        // Two records sharing an id (as `create_entity` can produce when a
        // vertex name recurs): dynamic updates must land on the first, the
        // same record the old linear scan found.
        let mut d = Disambiguator::new(vec![
            EntityRecord {
                id: 5,
                name: "First".into(),
                aliases: vec!["First".into()],
                context: BagOfWords::new(),
                popularity: 0.0,
            },
            EntityRecord {
                id: 5,
                name: "Second".into(),
                aliases: vec!["Second".into()],
                context: BagOfWords::new(),
                popularity: 0.0,
            },
        ]);
        assert!(d.update_context(5, &bow(&[("drone", 2)]), 3.0));
        assert_eq!(d.served().popularity(0), 3.0);
        assert_eq!(d.context(0).count("drone"), 2);
        assert_eq!(d.served().popularity(1), 0.0);
        assert!(
            !d.update_context(6, &bow(&[("drone", 2)]), 3.0),
            "unknown id"
        );
    }

    fn numbered(i: u32) -> EntityRecord {
        EntityRecord {
            id: i,
            name: format!("Entity {i}"),
            aliases: vec![format!("Entity {i}"), format!("E{}", i % 7)],
            context: BagOfWords::new(),
            popularity: 0.0,
        }
    }

    /// Every alias and name of `live`, resolved without context.
    fn resolutions(r: &AliasResolver) -> Vec<Option<(u32, String, u64, usize)>> {
        let mut out = Vec::new();
        for i in 0..r.len() {
            for surface in r.aliases(i).iter().map(String::as_str).chain([r.name(i)]) {
                out.push(
                    r.resolve(surface)
                        .map(|x| (x.id, x.name, x.score.to_bits(), x.candidates)),
                );
            }
        }
        out
    }

    #[test]
    fn published_clone_keeps_its_epoch() {
        let mut d = Disambiguator::new((0..100).map(numbered).collect());
        let published = d.served().clone();
        let before = resolutions(&published);

        d.update_context(50, &bow(&[("drone", 1)]), 1.0);
        // Context-only updates touch nothing that is published.
        let v = d.served().version();
        d.update_context(3, &bow(&[("drone", 1)]), 0.0);
        assert_eq!(d.served().version(), v);
        d.insert(numbered(100));
        assert!(d.served().version() > v);

        // The clone answers as it did; the live engine has moved on.
        assert_eq!(resolutions(&published), before);
        assert_eq!(published.len(), 100);
        assert!(published.candidates("Entity 100").is_empty());
        assert_eq!(d.candidates("Entity 100"), &[100]);
        assert_eq!(published.popularity(50), 0.0);
        assert_eq!(d.served().popularity(50), 1.0);
    }

    #[test]
    fn clones_share_tables_until_a_mint() {
        let mut d = Disambiguator::new((0..10).map(numbered).collect());
        let published = d.served().clone();
        // Popularity moves copy nothing but the popularity values.
        d.update_context(3, &bow(&[("drone", 1)]), 2.0);
        assert_eq!(d.served().copied_since(&published), 10);
        let again = d.served().clone();
        // The first mint copies the tables away from both clones; a
        // publish now also counts that copy: 11 records, 11 + 7 alias keys
        // (each name plus the shared `E{i % 7}`), 11 popularity values.
        d.insert(numbered(10));
        assert_eq!(d.served().copied_since(&again), 11 + 11 + 7 + 11);
        // The second mint writes the now unshared tables in place; the
        // one copy since `again` is still the publish's to count.
        d.insert(numbered(11));
        assert_eq!(d.served().copied_since(&again), 12 + 12 + 7 + 12);
        assert!(again.candidates("Entity 10").is_empty());
        assert_eq!(published.popularity(3), 0.0);
    }

    #[test]
    fn contextless_resolution_is_full_resolution_with_an_empty_context() {
        let mut d = apex_world();
        d.update_context(1, &bow(&[("parcel", 3)]), 40.0);
        for surface in ["Apex", "Apex Aviation", "the Shenzhen.", "Nobody"] {
            let full = d.resolve(surface, &BagOfWords::new(), LinkMode::Full);
            let served = d.served().resolve(surface);
            assert_eq!(
                full.map(|r| (r.id, r.score.to_bits(), r.margin.to_bits())),
                served.map(|r| (r.id, r.score.to_bits(), r.margin.to_bits())),
                "{surface}"
            );
        }
    }

    /// `d`'s records in the form [`Disambiguator::restore`] takes.
    fn stored(d: &Disambiguator) -> Vec<(EntityRecord, Vec<(u32, u32)>)> {
        let served = d.served();
        (0..d.len())
            .map(|i| {
                let r = EntityRecord {
                    id: served.id(i),
                    name: served.name(i).to_owned(),
                    aliases: served.aliases(i).to_vec(),
                    context: BagOfWords::new(),
                    popularity: served.popularity(i),
                };
                (r, d.context_entries(i).to_vec())
            })
            .collect()
    }

    #[test]
    fn restored_engine_resolves_and_persists_identically() {
        let mut d = apex_world();
        d.update_context(1, &bow(&[("airspace", 6), ("drone", 1)]), 2.0);
        let back =
            Disambiguator::restore(d.context_weight(), d.context_terms().to_vec(), stored(&d))
                .unwrap();
        assert_eq!(back.context_terms(), d.context_terms());
        for i in 0..d.len() {
            assert_eq!(back.context_entries(i), d.context_entries(i));
            assert_eq!(back.context(i), d.context(i));
        }
        let ctx = bow(&[("airspace", 2), ("parcel", 1)]);
        let (a, b) = (
            d.resolve("Apex", &ctx, LinkMode::Full).unwrap(),
            back.resolve("Apex", &ctx, LinkMode::Full).unwrap(),
        );
        assert_eq!((a.id, a.score.to_bits()), (b.id, b.score.to_bits()));
        // Entries that do not fit the term table are refused.
        let mut bad = stored(&d);
        bad[0].1 = vec![(10_000, 1)];
        assert!(Disambiguator::restore(0.7, d.context_terms().to_vec(), bad).is_none());
    }

    /// A name of one to three words: mixed case, stopwords, numbers,
    /// possessives and words no earlier name used.
    fn random_name(rng: &mut rand::rngs::StdRng, fresh: &mut u32) -> String {
        use rand::Rng;
        const WORDS: [&str; 12] = [
            "Apex", "Robotics", "the", "Drone", "drone", "Labs", "of", "Shenzhen", "2015",
            "Nimbus's", "X", "AERIAL",
        ];
        let words: Vec<String> = (0..rng.gen_range(1..4))
            .map(|_| {
                if rng.gen_range(0..4) == 0 {
                    *fresh += 1;
                    format!("Fresh{fresh}")
                } else {
                    WORDS[rng.gen_range(0..WORDS.len())].to_owned()
                }
            })
            .collect();
        words.join(" ")
    }

    #[test]
    fn neighbour_folds_match_string_folds() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // `cached` folds neighbour names through `link_neighbours`; `plain`
        // re-tokenizes each name per fact through `update_context`.
        let mut rng = StdRng::seed_from_u64(39);
        let mut fresh = 0;
        let mut names: Vec<String> = (0..6).map(|_| random_name(&mut rng, &mut fresh)).collect();
        let record = |id: u32, name: &str, context: BagOfWords| EntityRecord {
            id,
            name: name.to_owned(),
            aliases: vec![name.to_owned()],
            context,
            popularity: 0.0,
        };
        let initial: Vec<EntityRecord> = names
            .iter()
            .zip(0..)
            .map(|(n, id)| record(id, n, BagOfWords::from_text("curated drone description")))
            .collect();
        let mut cached = Disambiguator::new(initial.clone());
        let mut plain = Disambiguator::new(initial);
        for step in 0..600u32 {
            match rng.gen_range(0..20) {
                0..=2 => {
                    // A minted entity, sometimes a second record for an id.
                    let (id, name) = if rng.gen_range(0..4) == 0 {
                        let id = rng.gen_range(0..names.len() as u32);
                        (id, names[id as usize].clone())
                    } else {
                        let name = random_name(&mut rng, &mut fresh);
                        names.push(name.clone());
                        (names.len() as u32 - 1, name)
                    };
                    cached.insert(record(id, &name, BagOfWords::new()));
                    plain.insert(record(id, &name, BagOfWords::new()));
                }
                3 | 4 => {
                    // Document text, interning terms between name folds.
                    let id = rng.gen_range(0..names.len() as u32);
                    let text = BagOfWords::from_text(&random_name(&mut rng, &mut fresh));
                    assert!(cached.update_context(id, &text, 0.0));
                    assert!(plain.update_context(id, &text, 0.0));
                }
                5 if step % 7 == 0 => {
                    // A restore starts with no name terms computed (and
                    // restarts the version count, so both sides restore).
                    let restore = |d: &Disambiguator| {
                        Disambiguator::restore(0.7, d.context_terms().to_vec(), stored(d)).unwrap()
                    };
                    cached = restore(&cached);
                    plain = restore(&plain);
                }
                _ => {
                    // The two newest records (the likeliest pair to both
                    // have name terms new to the table, where the order
                    // they are interned in shows), or each endpoint one
                    // with no record (under a name not seen before) or any
                    // record.
                    let named = |id: u32| (id, names[id as usize].clone());
                    let newest = names.len() as u32 - 1;
                    let mut pick = |rng: &mut StdRng| match rng.gen_range(0..6) {
                        0 => (10_000 + step, random_name(rng, &mut fresh)),
                        _ => named(rng.gen_range(0..=newest)),
                    };
                    let ((a, a_name), (b, b_name)) = if rng.gen_range(0..4) == 0 {
                        (named(newest), named(newest - 1))
                    } else {
                        (pick(&mut rng), pick(&mut rng))
                    };
                    cached.link_neighbours((a, &a_name), (b, &b_name));
                    plain.update_context(a, &BagOfWords::from_text(&b_name), 1.0);
                    plain.update_context(b, &BagOfWords::from_text(&a_name), 1.0);
                }
            }
            assert_eq!(cached.context_terms(), plain.context_terms(), "step {step}");
        }
        assert_eq!(cached.len(), plain.len());
        for i in 0..plain.len() {
            assert_eq!(
                cached.context_entries(i),
                plain.context_entries(i),
                "record {i}"
            );
            assert_eq!(
                cached.served().popularity(i).to_bits(),
                plain.served().popularity(i).to_bits()
            );
        }
        assert_eq!(cached.served().version(), plain.served().version());
        assert!(
            plain.context_terms().len() > 40 && plain.len() > 40,
            "the walk grows both tables"
        );
    }

    #[test]
    fn margin_reflects_confidence() {
        let d = apex_world();
        let strong = bow(&[("crop", 4), ("farm", 4), ("spraying", 2)]);
        let weak = bow(&[("drone", 1)]);
        let rs = d.resolve("Apex", &strong, LinkMode::Full).unwrap();
        let rw = d.resolve("Apex", &weak, LinkMode::Full).unwrap();
        assert!(
            rs.margin > rw.margin,
            "decisive context should give larger margin ({} vs {})",
            rs.margin,
            rw.margin
        );
    }
}
