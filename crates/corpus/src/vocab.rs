//! Name parts and topic word banks for the generated world.
//!
//! Entity names are composed from these parts so the world scales to
//! hundreds of distinct entities while staying pronounceable and — more
//! importantly — *collidable*: first-word aliases ("Apex" for both "Apex
//! Robotics" and "Apex Aviation") are exactly the ambiguity entity
//! disambiguation has to resolve.

/// First words of company names. Reused across suffixes to create alias
/// ambiguity.
pub const COMPANY_HEADS: &[&str] = &[
    "Apex",
    "Skyward",
    "Aerial",
    "Vertex",
    "Falcon",
    "Condor",
    "Horizon",
    "Zenith",
    "Quantum",
    "Stratus",
    "Nimbus",
    "Vector",
    "Pinnacle",
    "Summit",
    "Orbit",
    "Galaxy",
    "Titan",
    "Atlas",
    "Meridian",
    "Polaris",
    "Vanguard",
    "Frontier",
    "Pioneer",
    "Catalyst",
    "Momentum",
    "Velocity",
    "Altitude",
    "Airborne",
    "Cloudline",
    "Thermal",
    "Glide",
    "Soar",
    "Swift",
    "Kestrel",
    "Osprey",
    "Harrier",
    "Raptor",
    "Talon",
    "Wing",
    "Rotor",
];

/// Second words of company names (sector suffixes).
pub const COMPANY_SUFFIXES: &[&str] = &[
    "Robotics",
    "Aviation",
    "Dynamics",
    "Systems",
    "Aerospace",
    "Technologies",
    "Industries",
    "Labs",
    "Analytics",
    "Imaging",
    "Logistics",
    "Agritech",
];

/// Given names for generated people.
pub const GIVEN_NAMES: &[&str] = &[
    "Frank", "Grace", "Henry", "Irene", "James", "Karen", "Louis", "Maria", "Nathan", "Olivia",
    "Peter", "Quinn", "Rachel", "Samuel", "Teresa", "Victor", "Wendy", "Xavier", "Yvonne",
    "Zachary", "Alice", "Brian", "Clara", "David", "Elena",
];

/// Family names for generated people.
pub const FAMILY_NAMES: &[&str] = &[
    "Wang", "Chen", "Martin", "Dubois", "Schmidt", "Rossi", "Tanaka", "Kim", "Novak", "Silva",
    "Johnson", "Williams", "Brown", "Davis", "Miller", "Wilson", "Moore", "Taylor", "Anderson",
    "Thomas", "Jackson", "White", "Harris", "Clark", "Lewis",
];

/// City names used as locations.
pub const CITIES: &[&str] = &[
    "Shenzhen",
    "Palo Alto",
    "Seattle",
    "Austin",
    "Boston",
    "Denver",
    "Toulouse",
    "Munich",
    "Zurich",
    "Singapore",
    "Tokyo",
    "Seoul",
    "Tel Aviv",
    "London",
    "Paris",
    "Dublin",
    "Vancouver",
    "Richland",
    "Portland",
    "Atlanta",
    "Chicago",
    "Phoenix",
    "Dallas",
    "Miami",
];

/// Product line names (combined with a model number).
pub const PRODUCT_LINES: &[&str] = &[
    "Phantom",
    "Mavic",
    "Raven",
    "Hornet",
    "Dragonfly",
    "Sparrow",
    "Eagle",
    "Albatross",
    "Heron",
    "Swallow",
    "Griffin",
    "Pegasus",
    "Comet",
    "Meteor",
    "Aurora",
    "Tempest",
    "Breeze",
    "Cyclone",
    "Monsoon",
    "Zephyr",
];

/// Topical communities entities belong to; descriptions and article prose
/// draw from the matching word bank, giving LDA a recoverable structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topic {
    ConsumerDrones,
    Agriculture,
    Logistics,
    Finance,
    Regulation,
    Security,
}

impl Topic {
    pub const ALL: [Topic; 6] = [
        Topic::ConsumerDrones,
        Topic::Agriculture,
        Topic::Logistics,
        Topic::Finance,
        Topic::Regulation,
        Topic::Security,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Topic::ConsumerDrones => "consumer-drones",
            Topic::Agriculture => "agriculture",
            Topic::Logistics => "logistics",
            Topic::Finance => "finance",
            Topic::Regulation => "regulation",
            Topic::Security => "security",
        }
    }

    /// Content words characteristic of the topic.
    pub fn words(self) -> &'static [&'static str] {
        match self {
            Topic::ConsumerDrones => &[
                "camera",
                "hobbyist",
                "footage",
                "gimbal",
                "selfie",
                "video",
                "photography",
                "consumer",
                "retail",
                "battery",
                "propeller",
                "quadcopter",
                "aerial",
                "pilot",
            ],
            Topic::Agriculture => &[
                "crop",
                "farm",
                "field",
                "spraying",
                "irrigation",
                "harvest",
                "yield",
                "soil",
                "orchard",
                "livestock",
                "pesticide",
                "mapping",
                "farmer",
                "agronomy",
            ],
            Topic::Logistics => &[
                "delivery",
                "package",
                "warehouse",
                "route",
                "fleet",
                "parcel",
                "shipping",
                "courier",
                "depot",
                "payload",
                "corridor",
                "dispatch",
                "cargo",
                "lastmile",
            ],
            Topic::Finance => &[
                "valuation",
                "funding",
                "revenue",
                "investor",
                "shares",
                "portfolio",
                "equity",
                "margin",
                "earnings",
                "capital",
                "dividend",
                "acquisition",
                "merger",
                "ipo",
            ],
            Topic::Regulation => &[
                "airspace",
                "waiver",
                "compliance",
                "certification",
                "rulemaking",
                "permit",
                "registration",
                "exemption",
                "altitude",
                "restriction",
                "license",
                "faa",
                "safety",
                "enforcement",
            ],
            Topic::Security => &[
                "surveillance",
                "perimeter",
                "patrol",
                "intrusion",
                "detection",
                "threat",
                "reconnaissance",
                "counterdrone",
                "jamming",
                "defense",
                "border",
                "incident",
                "military",
                "tracking",
            ],
        }
    }
}

/// Distractor sentence templates (no extractable ground-truth fact, topical
/// filler). `{W}` slots are filled with topic words.
pub const DISTRACTORS: &[&str] = &[
    "Analysts expect steady growth in the {W} segment.",
    "The {W} market grew sharply.",
    "Industry observers report rising demand for {W} services.",
    "Several firms face new {W} concerns.",
    "Investors track the {W} sector closely.",
    "The quarter showed strong {W} momentum.",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_parts_are_unique() {
        for list in [COMPANY_HEADS, COMPANY_SUFFIXES, CITIES, PRODUCT_LINES] {
            let set: std::collections::HashSet<_> = list.iter().collect();
            assert_eq!(set.len(), list.len());
        }
    }

    #[test]
    fn topics_have_disjoint_enough_vocabularies() {
        // Each topic's bank must be mostly unique to it, or LDA cannot
        // recover the structure.
        for (i, a) in Topic::ALL.iter().enumerate() {
            for b in &Topic::ALL[i + 1..] {
                let av: std::collections::HashSet<_> = a.words().iter().collect();
                let shared = b.words().iter().filter(|w| av.contains(*w)).count();
                assert!(
                    shared <= 2,
                    "{} and {} share {shared} words",
                    a.name(),
                    b.name()
                );
            }
        }
    }

    #[test]
    fn topic_words_are_lowercase_single_tokens() {
        for t in Topic::ALL {
            for w in t.words() {
                assert!(!w.contains(' '));
                assert_eq!(&w.to_lowercase(), w);
            }
        }
    }

    #[test]
    fn enough_name_material_for_large_worlds() {
        assert!(COMPANY_HEADS.len() * COMPANY_SUFFIXES.len() >= 400);
        assert!(GIVEN_NAMES.len() * FAMILY_NAMES.len() >= 500);
    }
}
