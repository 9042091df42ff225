//! Embedded lexicons used by the POS tagger and extraction heuristics.
//!
//! This is the closed-class vocabulary of English (determiners, prepositions,
//! pronouns, conjunctions, modals, auxiliaries) plus an open-class seed list
//! of the verbs, nouns and adjectives that dominate business-news prose —
//! the register NOUS's WSJ corpus (§4) is written in. Open-class words not
//! listed here fall through to the tagger's suffix heuristics.

use crate::pos::Tag;
use nous_graph::FxHashMap;
use std::sync::OnceLock;

/// Determiners / articles.
pub const DETERMINERS: &[&str] = &[
    "a", "an", "the", "this", "that", "these", "those", "its", "their", "his", "her", "our",
    "your", "my", "some", "any", "no", "every", "each", "both", "all", "several", "many", "few",
    "most", "another", "such",
];

/// Prepositions and subordinating conjunctions (IN).
pub const PREPOSITIONS: &[&str] = &[
    "in",
    "on",
    "at",
    "by",
    "for",
    "with",
    "about",
    "against",
    "between",
    "into",
    "through",
    "during",
    "before",
    "after",
    "above",
    "below",
    "from",
    "up",
    "down",
    "of",
    "off",
    "over",
    "under",
    "near",
    "since",
    "until",
    "amid",
    "among",
    "across",
    "toward",
    "towards",
    "despite",
    "because",
    "although",
    "while",
    "whether",
    "if",
    "than",
    "as",
    "per",
    "via",
    "within",
    "without",
    "around",
    "behind",
    "beyond",
    "throughout",
];

/// Personal and demonstrative pronouns (PRP).
pub const PRONOUNS: &[&str] = &[
    "i",
    "you",
    "he",
    "she",
    "it",
    "we",
    "they",
    "him",
    "them",
    "me",
    "us",
    "himself",
    "herself",
    "itself",
    "themselves",
    "who",
    "whom",
    "which",
    "whose",
];

/// Coordinating conjunctions (CC).
pub const CONJUNCTIONS: &[&str] = &["and", "or", "but", "nor", "yet", "so", "plus"];

/// Modal verbs (MD).
pub const MODALS: &[&str] = &[
    "can", "could", "may", "might", "must", "shall", "should", "will", "would",
];

/// Forms of *be*, *have*, *do* (auxiliaries; tagged as verbs with the right
/// inflection).
pub const AUX_BE: &[&str] = &["be", "is", "are", "was", "were", "been", "being", "am"];
pub const AUX_HAVE: &[&str] = &["have", "has", "had", "having"];
pub const AUX_DO: &[&str] = &["do", "does", "did", "doing", "done"];

/// Negation and frequent adverbs (RB).
pub const ADVERBS: &[&str] = &[
    "not",
    "n't",
    "never",
    "always",
    "often",
    "already",
    "still",
    "also",
    "now",
    "then",
    "here",
    "there",
    "recently",
    "quickly",
    "sharply",
    "steadily",
    "reportedly",
    "increasingly",
    "soon",
    "currently",
    "officially",
    "publicly",
    "again",
    "abroad",
    "together",
    "however",
    "meanwhile",
    "once",
    "twice",
    "later",
    "earlier",
    "today",
    "yesterday",
    "tomorrow",
    "very",
    "too",
    "quite",
    "rather",
    "significantly",
    "roughly",
    "nearly",
    "almost",
    "heavily",
];

/// Verb lemma table: `(base, third-singular, past, gerund, past-participle)`.
/// These are the relation-bearing verbs of business/technology news; the
/// OpenIE stage keys its relation phrases off this table, and the synthetic
/// corpus generator (nous-corpus) draws from the same inventory so the two
/// sides of the reproduction share a vocabulary the way the real system and
/// real corpus share English.
pub const VERB_TABLE: &[(&str, &str, &str, &str, &str)] = &[
    ("acquire", "acquires", "acquired", "acquiring", "acquired"),
    (
        "announce",
        "announces",
        "announced",
        "announcing",
        "announced",
    ),
    ("approve", "approves", "approved", "approving", "approved"),
    ("ban", "bans", "banned", "banning", "banned"),
    ("base", "bases", "based", "basing", "based"),
    ("become", "becomes", "became", "becoming", "become"),
    ("begin", "begins", "began", "beginning", "begun"),
    ("build", "builds", "built", "building", "built"),
    ("buy", "buys", "bought", "buying", "bought"),
    ("call", "calls", "called", "calling", "called"),
    ("compete", "competes", "competed", "competing", "competed"),
    (
        "confirm",
        "confirms",
        "confirmed",
        "confirming",
        "confirmed",
    ),
    ("cost", "costs", "cost", "costing", "cost"),
    ("create", "creates", "created", "creating", "created"),
    (
        "deliver",
        "delivers",
        "delivered",
        "delivering",
        "delivered",
    ),
    (
        "demonstrate",
        "demonstrates",
        "demonstrated",
        "demonstrating",
        "demonstrated",
    ),
    ("deploy", "deploys", "deployed", "deploying", "deployed"),
    (
        "develop",
        "develops",
        "developed",
        "developing",
        "developed",
    ),
    ("employ", "employs", "employed", "employing", "employed"),
    ("expand", "expands", "expanded", "expanding", "expanded"),
    ("face", "faces", "faced", "facing", "faced"),
    ("fall", "falls", "fell", "falling", "fallen"),
    ("file", "files", "filed", "filing", "filed"),
    ("fly", "flies", "flew", "flying", "flown"),
    ("found", "founds", "founded", "founding", "founded"),
    ("fund", "funds", "funded", "funding", "funded"),
    ("grow", "grows", "grew", "growing", "grown"),
    (
        "headquarter",
        "headquarters",
        "headquartered",
        "headquartering",
        "headquartered",
    ),
    ("hire", "hires", "hired", "hiring", "hired"),
    ("hold", "holds", "held", "holding", "held"),
    (
        "introduce",
        "introduces",
        "introduced",
        "introducing",
        "introduced",
    ),
    ("invest", "invests", "invested", "investing", "invested"),
    (
        "investigate",
        "investigates",
        "investigated",
        "investigating",
        "investigated",
    ),
    ("join", "joins", "joined", "joining", "joined"),
    ("launch", "launches", "launched", "launching", "launched"),
    ("lead", "leads", "led", "leading", "led"),
    ("list", "lists", "listed", "listing", "listed"),
    ("locate", "locates", "located", "locating", "located"),
    ("make", "makes", "made", "making", "made"),
    (
        "manufacture",
        "manufactures",
        "manufactured",
        "manufacturing",
        "manufactured",
    ),
    ("merge", "merges", "merged", "merging", "merged"),
    ("move", "moves", "moved", "moving", "moved"),
    ("open", "opens", "opened", "opening", "opened"),
    ("operate", "operates", "operated", "operating", "operated"),
    ("own", "owns", "owned", "owning", "owned"),
    (
        "partner",
        "partners",
        "partnered",
        "partnering",
        "partnered",
    ),
    ("plan", "plans", "planned", "planning", "planned"),
    ("produce", "produces", "produced", "producing", "produced"),
    (
        "purchase",
        "purchases",
        "purchased",
        "purchasing",
        "purchased",
    ),
    ("raise", "raises", "raised", "raising", "raised"),
    ("reach", "reaches", "reached", "reaching", "reached"),
    ("receive", "receives", "received", "receiving", "received"),
    (
        "regulate",
        "regulates",
        "regulated",
        "regulating",
        "regulated",
    ),
    ("release", "releases", "released", "releasing", "released"),
    ("report", "reports", "reported", "reporting", "reported"),
    ("rise", "rises", "rose", "rising", "risen"),
    ("run", "runs", "ran", "running", "run"),
    ("say", "says", "said", "saying", "said"),
    ("sell", "sells", "sold", "selling", "sold"),
    ("serve", "serves", "served", "serving", "served"),
    ("ship", "ships", "shipped", "shipping", "shipped"),
    ("sign", "signs", "signed", "signing", "signed"),
    ("start", "starts", "started", "starting", "started"),
    ("supply", "supplies", "supplied", "supplying", "supplied"),
    ("target", "targets", "targeted", "targeting", "targeted"),
    ("test", "tests", "tested", "testing", "tested"),
    ("track", "tracks", "tracked", "tracking", "tracked"),
    ("unveil", "unveils", "unveiled", "unveiling", "unveiled"),
    ("use", "uses", "used", "using", "used"),
    ("win", "wins", "won", "winning", "won"),
    ("work", "works", "worked", "working", "worked"),
];

/// Frequent common nouns of the register (NN); plural forms are derived by
/// the tagger's suffix rules.
pub const COMMON_NOUNS: &[&str] = &[
    "drone",
    "company",
    "startup",
    "firm",
    "market",
    "technology",
    "product",
    "device",
    "aircraft",
    "regulator",
    "agency",
    "deal",
    "merger",
    "acquisition",
    "revenue",
    "profit",
    "loss",
    "share",
    "stock",
    "investor",
    "analyst",
    "report",
    "article",
    "quarter",
    "year",
    "month",
    "week",
    "camera",
    "sensor",
    "battery",
    "software",
    "hardware",
    "platform",
    "service",
    "customer",
    "partner",
    "rival",
    "competitor",
    "industry",
    "sector",
    "safety",
    "issue",
    "concern",
    "application",
    "operation",
    "pilot",
    "flight",
    "delivery",
    "package",
    "farm",
    "field",
    "inspection",
    "surveillance",
    "police",
    "military",
    "headquarters",
    "factory",
    "office",
    "city",
    "country",
    "region",
    "price",
    "sale",
    "growth",
    "decline",
    "executive",
    "founder",
    "chief",
    "president",
    "spokesman",
    "spokeswoman",
    "employee",
    "worker",
    "engineer",
    "researcher",
    "university",
    "lab",
    "patent",
    "license",
    "rule",
    "regulation",
    "law",
    "bill",
    "ban",
    "approval",
    "permit",
    "test",
    "trial",
    "program",
    "project",
    "initiative",
    "fund",
    "funding",
    "investment",
    "round",
    "valuation",
    "unit",
    "division",
    "subsidiary",
    "brand",
    "model",
    "series",
    "version",
    "launch",
    "release",
    "statement",
    "interview",
    "conference",
    "event",
    "demonstration",
    "crash",
    "incident",
    "accident",
    "airspace",
    "airport",
    "propeller",
    "rotor",
    "payload",
    "range",
    "altitude",
];

/// Frequent adjectives (JJ).
pub const ADJECTIVES: &[&str] = &[
    "new",
    "big",
    "large",
    "small",
    "major",
    "minor",
    "global",
    "local",
    "national",
    "international",
    "commercial",
    "civilian",
    "military",
    "public",
    "private",
    "leading",
    "emerging",
    "novel",
    "early",
    "late",
    "recent",
    "next",
    "last",
    "first",
    "second",
    "third",
    "chief",
    "senior",
    "former",
    "current",
    "potential",
    "strategic",
    "financial",
    "technical",
    "autonomous",
    "unmanned",
    "aerial",
    "agricultural",
    "industrial",
    "consumer",
    "profitable",
    "strong",
    "weak",
    "high",
    "low",
    "fast",
    "slow",
    "safe",
    "unsafe",
    "popular",
    "key",
    "top",
    "latest",
    "annual",
    "quarterly",
    "chinese",
    "american",
    "french",
    "japanese",
    "european",
    "federal",
    "regulatory",
    "rapid",
    "steady",
];

/// Temporal nouns that the SRL stage maps to AM-TMP roles.
pub const TEMPORAL_NOUNS: &[&str] = &[
    "monday",
    "tuesday",
    "wednesday",
    "thursday",
    "friday",
    "saturday",
    "sunday",
    "january",
    "february",
    "march",
    "april",
    "may",
    "june",
    "july",
    "august",
    "september",
    "october",
    "november",
    "december",
    "today",
    "yesterday",
    "tomorrow",
    "quarter",
    "year",
    "month",
    "week",
];

/// What the lexicon knows about one lower-cased word: one hash lookup
/// answers what the tagger, the bag of words and SRL ask of the tables.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Entry {
    /// Tag and lemma from the first table listing the bare word, in the
    /// tagger's order (`"to"`, closed classes, *be*/*have*/*do*, verbs,
    /// adverbs, adjectives, nouns), else as a noun's (NNS) or base verb's
    /// (VBZ) plural.
    pub tag: Option<(Tag, Option<&'static str>)>,
    /// [`verb_form`]'s answer.
    pub verb: Option<(&'static str, &'static str)>,
    pub stopword: bool,
    pub temporal: bool,
}

/// The index entry for `lower`; the index is built on first use.
pub(crate) fn lookup(lower: &str) -> Option<&'static Entry> {
    static INDEX: OnceLock<Index> = OnceLock::new();
    INDEX.get_or_init(build_index).get(lower)
}

/// Keyed by FxHash: on keys a few bytes long, SipHash's setup costs more
/// than the hashing.
type Index = FxHashMap<String, Entry>;

fn entry<'a>(index: &'a mut Index, word: &str) -> &'a mut Entry {
    index.entry(word.to_owned()).or_default()
}

fn build_index() -> Index {
    let mut index = Index::default();
    // The first row listing a word wins, and within a row the first form.
    let mut verbs = Vec::new();
    for &(base, third, past, ger, part) in VERB_TABLE {
        let forms = [
            (base, "VB", Tag::VB),
            (third, "VBZ", Tag::VBZ),
            (past, "VBD", Tag::VBD),
            (ger, "VBG", Tag::VBG),
            (part, "VBN", Tag::VBN),
        ];
        for (w, form, tag) in forms {
            let verb = &mut entry(&mut index, w).verb;
            if verb.is_none() {
                *verb = Some((base, form));
                verbs.push((w, tag, base));
            }
        }
    }

    // The tagger's cascade in precedence order; a word keeps its first tag.
    let mut cascade = vec![("to".to_owned(), Tag::TO, None)];
    let closed = [DETERMINERS, PREPOSITIONS, PRONOUNS, CONJUNCTIONS, MODALS];
    for (table, tag) in closed
        .into_iter()
        .zip([Tag::DT, Tag::IN, Tag::PRP, Tag::CC, Tag::MD])
    {
        cascade.extend(table.iter().map(|w| (w.to_string(), tag, None)));
    }
    for (table, lemma) in [(AUX_BE, "be"), (AUX_HAVE, "have"), (AUX_DO, "do")] {
        cascade.extend(
            table
                .iter()
                .map(|w| (w.to_string(), aux_tag(w), Some(lemma))),
        );
    }
    cascade.extend(
        verbs
            .iter()
            .map(|&(w, tag, lemma)| (w.to_owned(), tag, Some(lemma))),
    );
    let open = [ADVERBS, ADJECTIVES, COMMON_NOUNS, TEMPORAL_NOUNS];
    for (table, tag) in open.into_iter().zip([Tag::RB, Tag::JJ, Tag::NN, Tag::NN]) {
        cascade.extend(table.iter().map(|w| (w.to_string(), tag, None)));
    }
    for n in COMMON_NOUNS {
        cascade.extend(plurals_of(n).map(|p| (p, Tag::NNS, None)));
    }
    for &(w, tag, lemma) in &verbs {
        if tag == Tag::VB {
            cascade.extend(plurals_of(w).map(|p| (p, Tag::VBZ, Some(lemma))));
        }
    }
    for (w, tag, lemma) in cascade {
        entry(&mut index, &w).tag.get_or_insert((tag, lemma));
    }

    let fillers: &[&str] = &["to", "s", "t", "will", "one", "two", "also", "said", "says"];
    for w in [&closed[..], &[AUX_BE, AUX_HAVE, AUX_DO, fillers]]
        .concat()
        .concat()
    {
        entry(&mut index, w).stopword = true;
    }
    for w in TEMPORAL_NOUNS {
        entry(&mut index, w).temporal = true;
    }
    index
}

/// Inflection of a *be*, *have* or *do* form.
fn aux_tag(w: &str) -> Tag {
    match w {
        "is" | "are" | "am" | "has" | "does" => Tag::VBZ,
        "was" | "were" | "had" | "did" => Tag::VBD,
        "been" | "done" => Tag::VBN,
        "being" | "having" | "doing" => Tag::VBG,
        _ => Tag::VB,
    }
}

/// The singular the tagger reads a plural-looking word as.
fn singular_of(lower: &str) -> Option<String> {
    if let Some(stem) = lower.strip_suffix("ies") {
        return Some(format!("{stem}y"));
    }
    for suf in ["ses", "xes", "ches", "shes"] {
        if let Some(stem) = lower.strip_suffix(suf) {
            return Some(format!("{stem}{}", &suf[..suf.len() - 2]));
        }
    }
    lower
        .strip_suffix('s')
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
}

/// Every word [`singular_of`] reads as `singular`.
fn plurals_of(singular: &str) -> impl Iterator<Item = String> + '_ {
    let ies = singular.strip_suffix('y').map(|stem| format!("{stem}ies"));
    [
        Some(format!("{singular}s")),
        Some(format!("{singular}es")),
        ies,
    ]
    .into_iter()
    .flatten()
    .filter(move |p| singular_of(p).as_deref() == Some(singular))
}

/// Stopwords for bag-of-words construction (union of the closed classes plus
/// a few high-frequency fillers).
pub fn is_stopword(lower: &str) -> bool {
    lookup(lower).is_some_and(|e| e.stopword)
}

/// Look up a verb form. Returns `(lemma, form)` where `form` is one of
/// `"VB"`, `"VBZ"`, `"VBD"`, `"VBG"`, `"VBN"` (VBD wins the VBD/VBN tie; the
/// tagger's context rules may flip it to VBN after an auxiliary).
pub fn verb_form(lower: &str) -> Option<(&'static str, &'static str)> {
    lookup(lower).and_then(|e| e.verb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_forms_resolve() {
        assert_eq!(verb_form("acquires"), Some(("acquire", "VBZ")));
        assert_eq!(verb_form("acquired"), Some(("acquire", "VBD")));
        assert_eq!(verb_form("flying"), Some(("fly", "VBG")));
        assert_eq!(verb_form("flown"), Some(("fly", "VBN")));
        assert_eq!(verb_form("zzz"), None);
    }

    #[test]
    fn irregulars_distinguish_past_and_participle() {
        assert_eq!(verb_form("rose"), Some(("rise", "VBD")));
        assert_eq!(verb_form("risen"), Some(("rise", "VBN")));
        assert_eq!(verb_form("grew"), Some(("grow", "VBD")));
        assert_eq!(verb_form("grown"), Some(("grow", "VBN")));
    }

    #[test]
    fn stopwords_cover_closed_classes() {
        for w in ["the", "of", "and", "he", "must", "is", "had", "does"] {
            assert!(is_stopword(w), "{w} should be a stopword");
        }
        for w in ["drone", "acquire", "dji"] {
            assert!(!is_stopword(w), "{w} should not be a stopword");
        }
    }

    #[test]
    fn lexicons_are_lowercase() {
        let all = DETERMINERS
            .iter()
            .chain(PREPOSITIONS)
            .chain(PRONOUNS)
            .chain(CONJUNCTIONS)
            .chain(MODALS)
            .chain(ADVERBS)
            .chain(COMMON_NOUNS)
            .chain(ADJECTIVES)
            .chain(TEMPORAL_NOUNS);
        for w in all {
            assert_eq!(
                w.to_lowercase().as_str(),
                *w,
                "lexicon entry not lowercase: {w}"
            );
        }
    }

    #[test]
    fn verb_table_has_no_duplicate_lemmas() {
        let mut seen = std::collections::HashSet::new();
        for (base, ..) in VERB_TABLE {
            assert!(seen.insert(base), "duplicate lemma {base}");
        }
    }
}
