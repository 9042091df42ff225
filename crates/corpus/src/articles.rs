//! The WSJ-style article stream generator.
//!
//! Each article narrates a small set of *ground-truth facts* (sampled from
//! the world under the target ontology) through sentence templates the
//! `nous-text` pipeline can parse — active, passive, pronoun-coreference
//! and appositive variants — interleaved with topical distractor prose.
//! The generator records the facts it expressed, so every downstream stage
//! (extraction, predicate mapping, entity linking, mining) can be scored
//! against known truth, which the real WSJ corpus could never provide.
//!
//! Temporal structure comes from [`TrendWave`]s: inside a wave window the
//! wave's predicate is sampled more often and, when `motif` is set, facts
//! arrive as correlated 3-entity motifs — the recurring subgraphs the
//! streaming miner (§3.5, Figure 7) is supposed to surface.

use crate::curated::CuratedKb;
use crate::ontology::OntologyPredicate;
use crate::world::World;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A fact the generator expressed in an article (canonical entity names).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroundFact {
    pub subject: String,
    pub predicate: OntologyPredicate,
    pub object: String,
    pub day: u64,
}

/// One generated article.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Article {
    pub id: u64,
    /// Days since the corpus epoch (2010-01-01 in the paper's timeline).
    pub day: u64,
    pub headline: String,
    pub body: String,
    /// Ground truth: the facts this article's text expresses. Wire
    /// clients (`nous-serve` `/ingest`) may omit it — extraction works
    /// from the text alone; the ledger is only for evaluation.
    #[serde(default)]
    pub facts: Vec<GroundFact>,
}

/// A period during which one predicate trends.
#[derive(Debug, Clone)]
pub struct TrendWave {
    pub predicate: OntologyPredicate,
    pub start_day: u64,
    pub end_day: u64,
    /// Sampling weight multiplier inside the window.
    pub boost: f64,
    /// Emit correlated 3-entity motifs (A-p-B, A-invests-C, B-partners-C)
    /// so the streaming miner has recurring subgraphs to find.
    pub motif: bool,
}

/// Parameters of stream generation.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    pub seed: u64,
    pub articles: usize,
    /// Stream horizon in days; article days are spread uniformly over it.
    pub days: u64,
    pub waves: Vec<TrendWave>,
    /// Probability a mention uses the entity's short alias instead of its
    /// canonical name (drives disambiguation difficulty).
    pub alias_usage: f64,
    /// Probability a fact is rendered through the two-sentence pronoun
    /// coreference template.
    pub coref_rate: f64,
    /// Probability of the appositive template (harder for extraction).
    pub appositive_rate: f64,
    /// Distractor sentences appended per article.
    pub distractors: usize,
    /// Probability an article re-reports an existing *curated* fact
    /// (corroboration across sources).
    pub curated_echo_rate: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            seed: 11,
            articles: 400,
            days: 2190, // six years, matching WSJ 2010-2015
            waves: vec![TrendWave {
                predicate: OntologyPredicate::Acquired,
                start_day: 1100,
                end_day: 1500,
                boost: 4.0,
                motif: true,
            }],
            alias_usage: 0.3,
            coref_rate: 0.2,
            appositive_rate: 0.1,
            distractors: 2,
            curated_echo_rate: 0.15,
        }
    }
}

const MONTHS: [&str; 12] = [
    "January",
    "February",
    "March",
    "April",
    "May",
    "June",
    "July",
    "August",
    "September",
    "October",
    "November",
    "December",
];

/// Render a corpus day as "March 2013"-style text.
pub fn render_date(day: u64) -> String {
    let year = 2010 + day / 365;
    let month = MONTHS[((day % 365) / 31).min(11) as usize];
    format!("{month} {year}")
}

/// The article stream generator.
pub struct ArticleStream;

struct Ctx<'a> {
    world: &'a World,
    kb: &'a CuratedKb,
    cfg: &'a StreamConfig,
}

impl ArticleStream {
    /// Generate the full stream sorted by day (deterministic in the seed).
    pub fn generate(world: &World, kb: &CuratedKb, cfg: &StreamConfig) -> Vec<Article> {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5851_f42d_4c95_7f2d);
        let ctx = Ctx { world, kb, cfg };
        let mut articles = Vec::with_capacity(cfg.articles);
        for id in 0..cfg.articles {
            let day = if cfg.articles <= 1 {
                0
            } else {
                (id as u64 * cfg.days) / (cfg.articles as u64 - 1).max(1)
            };
            articles.push(ctx.article(&mut rng, id as u64, day));
        }
        articles
    }
}

impl<'a> Ctx<'a> {
    fn article(&self, rng: &mut StdRng, id: u64, day: u64) -> Article {
        let mut sentences: Vec<String> = Vec::new();
        let mut facts: Vec<GroundFact> = Vec::new();

        // How many facts this article narrates.
        let n_facts = rng.gen_range(1..=3usize);

        // Motif burst: inside a motif wave, sometimes emit a correlated
        // triangle instead of independent facts.
        let motif_wave = self
            .cfg
            .waves
            .iter()
            .find(|w| w.motif && (w.start_day..=w.end_day).contains(&day));
        if let Some(wave) = motif_wave {
            if rng.gen_bool(0.5) {
                self.emit_motif(rng, day, wave.predicate, &mut sentences, &mut facts);
            }
        }

        while facts.len() < n_facts {
            if rng.gen_bool(self.cfg.curated_echo_rate) {
                self.emit_curated_echo(rng, day, &mut sentences, &mut facts);
            } else {
                let pred = self.sample_predicate(rng, day);
                self.emit_fact(rng, day, pred, None, &mut sentences, &mut facts);
            }
        }

        // Distractors drawn from the topic of the first fact's subject.
        let topic = facts
            .first()
            .and_then(|f| self.world.by_name(&f.subject))
            .map(|i| self.world.entity(i).topic)
            .unwrap_or(crate::vocab::Topic::Finance);
        for _ in 0..self.cfg.distractors {
            let tmpl = crate::vocab::DISTRACTORS.choose(rng).expect("non-empty");
            let w = topic.words().choose(rng).expect("non-empty");
            sentences.push(tmpl.replace("{W}", w));
        }

        let headline = facts
            .first()
            .map(|f| format!("{} {} {}", f.subject, f.predicate.name(), f.object))
            .unwrap_or_else(|| "Market roundup".to_owned());

        Article {
            id,
            day,
            headline,
            body: sentences.join(" "),
            facts,
        }
    }

    /// Weighted predicate sampling with trend-wave boosts.
    fn sample_predicate(&self, rng: &mut StdRng, day: u64) -> OntologyPredicate {
        let evented: Vec<OntologyPredicate> = crate::ontology::ONTOLOGY
            .iter()
            .copied()
            .filter(|p| p.is_eventful())
            .collect();
        let weights: Vec<f64> = evented
            .iter()
            .map(|p| {
                let mut w = 1.0;
                for wave in &self.cfg.waves {
                    if wave.predicate == *p && (wave.start_day..=wave.end_day).contains(&day) {
                        w *= wave.boost;
                    }
                }
                w
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut x = rng.gen_range(0.0..total);
        for (p, w) in evented.iter().zip(&weights) {
            if x < *w {
                return *p;
            }
            x -= w;
        }
        *evented.last().expect("non-empty")
    }

    /// Sample arguments matching the predicate's type signature.
    fn sample_args(&self, rng: &mut StdRng, pred: OntologyPredicate) -> Option<(usize, usize)> {
        let s = *self.world.companies.choose(rng)?;
        let o = match pred {
            OntologyPredicate::IsLocatedIn => *self.world.locations.choose(rng)?,
            OntologyPredicate::FoundedBy => *self.world.people.choose(rng)?,
            OntologyPredicate::Manufactures | OntologyPredicate::Deploys => {
                *self.world.products.choose(rng)?
            }
            _ => {
                let mut o = *self.world.companies.choose(rng)?;
                let mut guard = 0;
                while o == s && guard < 8 {
                    o = *self.world.companies.choose(rng)?;
                    guard += 1;
                }
                if o == s {
                    return None;
                }
                o
            }
        };
        Some((s, o))
    }

    fn emit_fact(
        &self,
        rng: &mut StdRng,
        day: u64,
        pred: OntologyPredicate,
        args: Option<(usize, usize)>,
        sentences: &mut Vec<String>,
        facts: &mut Vec<GroundFact>,
    ) {
        let Some((s, o)) = args.or_else(|| self.sample_args(rng, pred)) else {
            return;
        };
        let s_surface = self.surface(rng, s);
        let o_surface = self.surface(rng, o);
        let rendered = self.render(rng, pred, s, o, &s_surface, &o_surface, day);
        sentences.extend(rendered);
        // Topical colour for the fact's subject: news prose surrounds a
        // company with its sector vocabulary, which is exactly the context
        // signal AIDA-style disambiguation exploits. Without it, ambiguous
        // short aliases would be unresolvable even in principle.
        if rng.gen_bool(0.8) {
            let topic = self.world.entity(s).topic;
            for _ in 0..2 {
                let tmpl = crate::vocab::DISTRACTORS.choose(rng).expect("non-empty");
                let w = topic.words().choose(rng).expect("non-empty");
                sentences.push(tmpl.replace("{W}", w));
            }
        }
        facts.push(GroundFact {
            subject: self.world.entity(s).name.clone(),
            predicate: pred,
            object: self.world.entity(o).name.clone(),
            day,
        });
    }

    /// Re-report a random curated fact (cross-source corroboration).
    fn emit_curated_echo(
        &self,
        rng: &mut StdRng,
        day: u64,
        sentences: &mut Vec<String>,
        facts: &mut Vec<GroundFact>,
    ) {
        if let Some(t) = self.kb.triples.choose(rng) {
            self.emit_fact(
                rng,
                day,
                t.predicate,
                Some((t.subject, t.object)),
                sentences,
                facts,
            );
        }
    }

    /// Correlated motif: A-pred-B, A-investedIn-C, B-partneredWith-C.
    fn emit_motif(
        &self,
        rng: &mut StdRng,
        day: u64,
        pred: OntologyPredicate,
        sentences: &mut Vec<String>,
        facts: &mut Vec<GroundFact>,
    ) {
        let n = self.world.companies.len();
        if n < 3 {
            return;
        }
        // Draw the motif cast from a small hub pool so the same subgraph
        // shape recurs with overlapping labels.
        let pool = &self.world.companies[..n.min(8)];
        let mut picks = pool.to_vec();
        picks.shuffle(rng);
        let (a, b, c) = (picks[0], picks[1], picks[2]);
        self.emit_fact(rng, day, pred, Some((a, b)), sentences, facts);
        self.emit_fact(
            rng,
            day,
            OntologyPredicate::InvestedIn,
            Some((a, c)),
            sentences,
            facts,
        );
        self.emit_fact(
            rng,
            day,
            OntologyPredicate::PartneredWith,
            Some((b, c)),
            sentences,
            facts,
        );
    }

    /// Choose a surface form for an entity mention.
    fn surface(&self, rng: &mut StdRng, idx: usize) -> String {
        let e = self.world.entity(idx);
        if e.aliases.len() > 1 && rng.gen_bool(self.cfg.alias_usage) {
            e.aliases[1].clone()
        } else {
            e.name.clone()
        }
    }

    /// Past-tense form of a verb lemma from the shared lexicon.
    fn past(lemma: &str) -> &'static str {
        nous_text::lexicon::VERB_TABLE
            .iter()
            .find(|(base, ..)| *base == lemma)
            .map(|&(_, _, past, _, _)| past)
            .unwrap_or("made")
    }

    /// Third-person present form of a verb lemma.
    fn present(lemma: &str) -> &'static str {
        nous_text::lexicon::VERB_TABLE
            .iter()
            .find(|(base, ..)| *base == lemma)
            .map(|&(_, third, _, _, _)| third)
            .unwrap_or("makes")
    }

    /// Render one fact into one or two sentences.
    #[allow(clippy::too_many_arguments)]
    fn render(
        &self,
        rng: &mut StdRng,
        pred: OntologyPredicate,
        s_idx: usize,
        _o_idx: usize,
        s: &str,
        o: &str,
        day: u64,
    ) -> Vec<String> {
        use OntologyPredicate as P;
        let date = render_date(day);
        match pred {
            P::IsLocatedIn => {
                let t = rng.gen_range(0..4);
                vec![match t {
                    0 => format!("{s} is based in {o}."),
                    1 => format!("{s} is headquartered in {o}."),
                    2 => format!("{s} operates in {o}."),
                    _ => format!("{s} is located in {o}."),
                }]
            }
            P::FoundedBy => {
                // Inverted surface: person founded company.
                let verb = if rng.gen_bool(0.7) {
                    "founded"
                } else {
                    "created"
                };
                vec![format!("{o} {verb} {s}.")]
            }
            P::Manufactures => {
                let lemma = *["manufacture", "make", "produce", "build", "ship"]
                    .choose(rng)
                    .expect("non-empty");
                vec![format!("{s} {} the {o}.", Self::present(lemma))]
            }
            P::Acquired => {
                let lemma = *["acquire", "buy", "purchase"]
                    .choose(rng)
                    .expect("non-empty");
                let past = Self::past(lemma);
                if rng.gen_bool(self.cfg.coref_rate) {
                    vec![
                        format!("{s} announced a deal in {date}."),
                        format!("It {past} {o}."),
                    ]
                } else if rng.gen_bool(self.cfg.appositive_rate) {
                    let w = self.world.entity(s_idx).topic.name();
                    vec![format!("{s}, a {w} firm, {past} {o}.")]
                } else if rng.gen_bool(0.3) {
                    vec![format!("{o} was {} by {s}.", Self::past(lemma))]
                } else {
                    vec![format!("{s} {past} {o} in {date}.")]
                }
            }
            P::InvestedIn => {
                if rng.gen_bool(0.5) {
                    vec![format!("{s} invested in {o}.")]
                } else {
                    vec![format!("{s} funded {o} in {date}.")]
                }
            }
            P::CompetesWith => vec![format!("{s} competes with {o}.")],
            P::PartneredWith => {
                let t = rng.gen_range(0..3);
                vec![match t {
                    0 => format!("{s} partnered with {o}."),
                    1 => format!("{s} joined with {o} in {date}."),
                    _ => format!("{s} signed with {o}."),
                }]
            }
            P::SuppliesTo => {
                let t = rng.gen_range(0..3);
                vec![match t {
                    0 => format!("{s} supplies to {o}."),
                    1 => format!("{s} sells to {o}."),
                    _ => format!("{s} delivers to {o}."),
                }]
            }
            P::Deploys => {
                let lemma = *["deploy", "use", "fly"].choose(rng).expect("non-empty");
                vec![format!("{s} {} the {o}.", Self::past(lemma))]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn small_stream(cfg: StreamConfig) -> (World, Vec<Article>) {
        let world = World::generate(&WorldConfig::default());
        let kb = CuratedKb::generate(&world, 7);
        let arts = ArticleStream::generate(&world, &kb, &cfg);
        (world, arts)
    }

    #[test]
    fn deterministic_and_sorted_by_day() {
        let cfg = StreamConfig {
            articles: 50,
            ..Default::default()
        };
        let (_, a) = small_stream(cfg.clone());
        let (_, b) = small_stream(cfg);
        assert_eq!(a.len(), 50);
        let bodies = |v: &[Article]| v.iter().map(|x| x.body.clone()).collect::<Vec<_>>();
        assert_eq!(bodies(&a), bodies(&b));
        assert!(a.windows(2).all(|w| w[0].day <= w[1].day));
    }

    #[test]
    fn every_article_carries_facts_and_text() {
        let (_, arts) = small_stream(StreamConfig {
            articles: 30,
            ..Default::default()
        });
        for art in &arts {
            assert!(!art.facts.is_empty());
            assert!(!art.body.is_empty());
            for f in &art.facts {
                assert_eq!(f.day, art.day);
            }
        }
    }

    #[test]
    fn fact_names_are_canonical() {
        let (world, arts) = small_stream(StreamConfig {
            articles: 40,
            ..Default::default()
        });
        for art in &arts {
            for f in &art.facts {
                assert!(
                    world.by_name(&f.subject).is_some(),
                    "unknown subject {}",
                    f.subject
                );
                assert!(
                    world.by_name(&f.object).is_some(),
                    "unknown object {}",
                    f.object
                );
            }
        }
    }

    #[test]
    fn trend_wave_boosts_predicate_frequency() {
        let cfg = StreamConfig {
            articles: 400,
            waves: vec![TrendWave {
                predicate: OntologyPredicate::Acquired,
                start_day: 1100,
                end_day: 1500,
                boost: 8.0,
                motif: false,
            }],
            curated_echo_rate: 0.0,
            ..Default::default()
        };
        let (_, arts) = small_stream(cfg);
        let rate = |lo: u64, hi: u64| {
            let (mut acq, mut tot) = (0usize, 0usize);
            for a in &arts {
                if (lo..hi).contains(&a.day) {
                    for f in &a.facts {
                        tot += 1;
                        if f.predicate == OntologyPredicate::Acquired {
                            acq += 1;
                        }
                    }
                }
            }
            acq as f64 / tot.max(1) as f64
        };
        let inside = rate(1100, 1500);
        let outside = rate(0, 1000);
        assert!(
            inside > outside * 1.5,
            "wave should lift acquisition rate: inside={inside:.3} outside={outside:.3}"
        );
    }

    #[test]
    fn motif_waves_emit_triangles() {
        let cfg = StreamConfig {
            articles: 200,
            waves: vec![TrendWave {
                predicate: OntologyPredicate::Acquired,
                start_day: 0,
                end_day: 2190,
                boost: 2.0,
                motif: true,
            }],
            ..Default::default()
        };
        let (_, arts) = small_stream(cfg);
        let has_motif = arts.iter().any(|a| {
            let preds: Vec<_> = a.facts.iter().map(|f| f.predicate).collect();
            preds.contains(&OntologyPredicate::InvestedIn)
                && preds.contains(&OntologyPredicate::PartneredWith)
        });
        assert!(has_motif);
    }

    #[test]
    fn alias_usage_appears_in_text() {
        let (world, arts) = small_stream(StreamConfig {
            articles: 120,
            alias_usage: 0.9,
            ..Default::default()
        });
        // With 0.9 alias usage some article must mention a company by its
        // short alias while the ground truth uses the canonical name.
        let found = arts.iter().any(|a| {
            a.facts.iter().any(|f| {
                let idx = world.by_name(&f.subject).unwrap();
                let e = world.entity(idx);
                e.aliases.len() > 1 && !a.body.contains(&e.name) && a.body.contains(&e.aliases[1])
            })
        });
        assert!(found);
    }

    #[test]
    fn date_rendering() {
        assert_eq!(render_date(0), "January 2010");
        assert_eq!(render_date(365), "January 2011");
        assert!(render_date(364).contains("2010"));
        assert!(render_date(2189).ends_with("2015"));
    }

    #[test]
    fn rendered_sentences_are_extractable() {
        // The heart of the corpus/pipeline contract: for every ontology
        // predicate, at least 60% of rendered articles must yield a raw
        // triple whose predicate is one of that ontology relation's surface
        // forms (some templates — appositive, alias mismatch — lose a few).
        use crate::world::Kind;
        use nous_text::ner::Gazetteer;
        use nous_text::openie::ExtractorConfig;
        let (world, arts) = small_stream(StreamConfig {
            articles: 150,
            alias_usage: 0.0,
            distractors: 0,
            ..Default::default()
        });
        let mut gaz = Gazetteer::new();
        for e in &world.entities {
            let ty = match e.kind {
                Kind::Company => nous_text::ner::EntityType::Organization,
                Kind::Person => nous_text::ner::EntityType::Person,
                Kind::Location => nous_text::ner::EntityType::Location,
                Kind::Product => nous_text::ner::EntityType::Product,
            };
            for a in &e.aliases {
                gaz.insert(a, ty);
            }
        }
        let mut hits = 0usize;
        let mut total = 0usize;
        for art in &arts {
            let doc = nous_text::analyze(&art.body, &gaz, &ExtractorConfig::default());
            let raw_preds: Vec<String> = doc
                .sentences
                .iter()
                .flat_map(|s| s.triples.iter().map(|t| t.predicate.clone()))
                .collect();
            for f in &art.facts {
                total += 1;
                let forms = f.predicate.surface_forms();
                if raw_preds
                    .iter()
                    .any(|rp| forms.iter().any(|(s, _)| s == rp))
                {
                    hits += 1;
                }
            }
        }
        let recall = hits as f64 / total as f64;
        assert!(
            recall > 0.6,
            "surface-form recall too low: {recall:.2} ({hits}/{total})"
        );
    }
}
