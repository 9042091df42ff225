//! Named-entity recognition: gazetteer plus surface heuristics.
//!
//! NOUS performs "named entity extraction … and used this information to
//! implement heuristics for triple extraction" (§3.2). Candidate mentions
//! are the proper-noun noun phrases from the chunker; each is typed by
//! (1) an application-supplied gazetteer (built from the curated KB's alias
//! tables — this is how the curated KG steers extraction), then
//! (2) surface heuristics: corporate suffixes, honorifics, and
//! location/person context cues.

use crate::chunk::{self, Chunk};
use crate::pos::{Tag, Tagged};
use std::collections::HashMap;

/// Entity types used across the pipeline (a compact subset of the YAGO
/// taxonomy's top level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityType {
    Person,
    Organization,
    Location,
    Product,
    Other,
}

impl EntityType {
    pub fn name(self) -> &'static str {
        match self {
            EntityType::Person => "Person",
            EntityType::Organization => "Organization",
            EntityType::Location => "Location",
            EntityType::Product => "Product",
            EntityType::Other => "Other",
        }
    }
}

/// A typed entity mention.
#[derive(Debug, Clone, PartialEq)]
pub struct Mention {
    /// Canonical mention surface (possessives stripped, honorifics dropped).
    pub text: String,
    pub entity_type: EntityType,
    /// Token index range `[start, end)` in the tagged sentence.
    pub start: usize,
    pub end: usize,
    /// True if the type came from the gazetteer rather than heuristics.
    pub from_gazetteer: bool,
}

/// Case-insensitive gazetteer mapping mention surfaces to entity types.
#[derive(Debug, Clone, Default)]
pub struct Gazetteer {
    entries: HashMap<String, EntityType>,
}

impl Gazetteer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, surface: &str, ty: EntityType) {
        self.entries.insert(surface.to_lowercase(), ty);
    }

    pub fn lookup(&self, surface: &str) -> Option<EntityType> {
        self.entries.get(&surface.to_lowercase()).copied()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All `(lowercased surface, type)` entries, in arbitrary order
    /// (sort before serializing for a deterministic encoding).
    pub fn iter(&self) -> impl Iterator<Item = (&str, EntityType)> {
        self.entries.iter().map(|(s, ty)| (s.as_str(), *ty))
    }
}

const ORG_SUFFIXES: &[&str] = &[
    "inc",
    "inc.",
    "corp",
    "corp.",
    "co",
    "co.",
    "ltd",
    "ltd.",
    "llc",
    "group",
    "technologies",
    "technology",
    "systems",
    "robotics",
    "aviation",
    "aerospace",
    "labs",
    "industries",
    "holdings",
    "partners",
    "capital",
    "ventures",
    "journal",
    "times",
    "agency",
    "administration",
    "commission",
    "university",
    "institute",
];

const HONORIFICS: &[&str] = &[
    "mr", "mr.", "mrs", "mrs.", "ms", "ms.", "dr", "dr.", "prof", "prof.",
];

const LOCATION_CUES: &[&str] = &[
    "city", "county", "province", "state", "valley", "region", "district", "island", "port",
];

/// Heuristic typing of an unknown proper-noun mention.
fn heuristic_type(words: &[&str], prev_lower: Option<&str>) -> EntityType {
    let last = words.last().map(|w| w.to_lowercase()).unwrap_or_default();
    let first = words.first().map(|w| w.to_lowercase()).unwrap_or_default();
    if HONORIFICS.contains(&first.as_str()) {
        return EntityType::Person;
    }
    if ORG_SUFFIXES.contains(&last.as_str()) {
        return EntityType::Organization;
    }
    if LOCATION_CUES.contains(&last.as_str()) {
        return EntityType::Location;
    }
    // "in <X>" strongly suggests a location for a bare proper noun.
    if prev_lower == Some("in") || prev_lower == Some("near") || prev_lower == Some("at") {
        return EntityType::Location;
    }
    // Alphanumeric model-number shapes ("Phantom 4", "Mavic-2") read as
    // products.
    if words.iter().any(|w| w.chars().any(|c| c.is_ascii_digit())) {
        return EntityType::Product;
    }
    EntityType::Other
}

/// Detect typed mentions in a tagged sentence.
///
/// A mention is a noun-phrase chunk whose head (or any token) is a proper
/// noun; its surface is the maximal NNP/CD run inside the chunk (dropping
/// determiners and common-noun modifiers), with honorifics stripped for
/// persons.
pub fn mentions(tagged: &[Tagged], gazetteer: &Gazetteer) -> Vec<Mention> {
    let mut out = Vec::new();
    for np in chunk::noun_phrases(tagged) {
        if let Some(m) = mention_from_np(tagged, &np, gazetteer) {
            out.push(m);
        }
    }
    out
}

#[allow(clippy::needless_range_loop)] // index form reads run bounds too
fn mention_from_np(tagged: &[Tagged], np: &Chunk, gazetteer: &Gazetteer) -> Option<Mention> {
    // Find the NNP run inside the chunk.
    let mut s = None;
    let mut e = np.start;
    for i in np.start..np.end {
        if tagged[i].tag == Tag::NNP || (s.is_some() && tagged[i].tag == Tag::CD) {
            if s.is_none() {
                s = Some(i);
            }
            e = i + 1;
        } else if s.is_some() && tagged[i].tag.is_noun() {
            // Extend across capitalised common nouns ("Journal") only if
            // capitalised in surface.
            if tagged[i].token.is_capitalized() {
                e = i + 1;
            } else {
                break;
            }
        } else if s.is_some() {
            break;
        }
    }
    let start = s?;
    let words: Vec<&str> = tagged[start..e]
        .iter()
        .map(|t| {
            t.token
                .text
                .strip_suffix("'s")
                .or_else(|| t.token.text.strip_suffix("’s"))
                .unwrap_or(&t.token.text)
        })
        .collect();
    if words.is_empty() {
        return None;
    }
    let full = words.join(" ");
    let prev_lower = start.checked_sub(1).map(|i| tagged[i].token.lower());

    let (ty, from_gazetteer) = match gazetteer.lookup(&full) {
        Some(t) => (t, true),
        None => (heuristic_type(&words, prev_lower.as_deref()), false),
    };

    // Strip honorifics from person mentions ("Mr. Wang" -> "Wang").
    let text = if ty == EntityType::Person
        && words.len() > 1
        && HONORIFICS.contains(&words[0].to_lowercase().as_str())
    {
        words[1..].join(" ")
    } else {
        full
    };

    Some(Mention {
        text,
        entity_type: ty,
        start,
        end: e,
        from_gazetteer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pos::tag;
    use crate::token::tokenize;

    fn detect(input: &str, gaz: &Gazetteer) -> Vec<Mention> {
        mentions(&tag(&tokenize(input)), gaz)
    }

    #[test]
    fn gazetteer_lookup_wins() {
        let mut gaz = Gazetteer::new();
        gaz.insert("DJI", EntityType::Organization);
        let m = detect("DJI announced a drone.", &gaz);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].text, "DJI");
        assert_eq!(m[0].entity_type, EntityType::Organization);
        assert!(m[0].from_gazetteer);
    }

    #[test]
    fn gazetteer_is_case_insensitive() {
        let mut gaz = Gazetteer::new();
        gaz.insert("dji", EntityType::Organization);
        let m = detect("DJI grew.", &gaz);
        assert_eq!(m[0].entity_type, EntityType::Organization);
    }

    #[test]
    fn org_suffix_heuristic() {
        let m = detect("Skyward Robotics launched a product.", &Gazetteer::new());
        assert_eq!(m[0].text, "Skyward Robotics");
        assert_eq!(m[0].entity_type, EntityType::Organization);
        assert!(!m[0].from_gazetteer);
    }

    #[test]
    fn honorific_person_heuristic() {
        let m = detect("Analysts praised Mr. Wang yesterday.", &Gazetteer::new());
        let person = m
            .iter()
            .find(|x| x.entity_type == EntityType::Person)
            .unwrap();
        assert_eq!(person.text, "Wang", "honorific stripped");
    }

    #[test]
    fn location_after_preposition() {
        let m = detect("The company operates in Shenzhen.", &Gazetteer::new());
        let loc = m.iter().find(|x| x.text == "Shenzhen").unwrap();
        assert_eq!(loc.entity_type, EntityType::Location);
    }

    #[test]
    fn product_with_model_number() {
        let m = detect("DJI unveiled the Phantom 4 yesterday.", &Gazetteer::new());
        let prod = m.iter().find(|x| x.text.starts_with("Phantom")).unwrap();
        assert_eq!(prod.text, "Phantom 4");
        assert_eq!(prod.entity_type, EntityType::Product);
    }

    #[test]
    fn multiword_proper_sequence() {
        let m = detect(
            "The Wall Street Journal reported the deal.",
            &Gazetteer::new(),
        );
        assert!(
            m.iter().any(|x| x.text == "Wall Street Journal"),
            "got {m:?}"
        );
    }

    #[test]
    fn possessive_mention_is_stripped() {
        let mut gaz = Gazetteer::new();
        gaz.insert("DJI", EntityType::Organization);
        let m = detect("DJI's drone crashed.", &gaz);
        assert_eq!(m[0].text, "DJI");
    }

    #[test]
    fn common_nouns_are_not_mentions() {
        let m = detect("the company sold many drones", &Gazetteer::new());
        assert!(m.is_empty());
    }

    #[test]
    fn unknown_bare_proper_noun_is_other() {
        let m = detect("Investors watched Windermere closely.", &Gazetteer::new());
        let w = m.iter().find(|x| x.text == "Windermere").unwrap();
        assert_eq!(w.entity_type, EntityType::Other);
    }
}
