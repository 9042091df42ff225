//! # nous-link — mapping raw triples into the knowledge graph
//!
//! §3.3 of the paper covers the two mapping problems between noisy OpenIE
//! output and the curated knowledge graph:
//!
//! - **Entity disambiguation** ([`disambiguate`]): "We implement a
//!   variation of the AIDA algorithm … we use only the entity neighborhood
//!   in the knowledge graph to calculate contextual similarity." A mention
//!   surface is matched against an alias dictionary; candidates are scored
//!   by a popularity prior combined with cosine similarity between the
//!   mention's sentence context and the entity's KG-neighbourhood
//!   bag-of-words. Popularity-only and exact-match baselines are included
//!   for the E10 benchmark.
//!
//! - **Predicate mapping** ([`predicate_map`]): "We implement a distant
//!   supervision based approach to learn a rule-based model for each
//!   predicate … we bootstrap each predicate model with 5-10 seed examples
//!   and expand the set of training examples for each predicate in a
//!   semi-supervised fashion" (after Freedman et al.'s Extreme Extraction).

mod context;
pub mod disambiguate;
mod names;
pub mod normalize;
pub mod predicate_map;

pub use disambiguate::{AliasResolver, Disambiguator, EntityRecord, LinkMode, Resolution};
pub use normalize::normalize_mention;
pub use predicate_map::{MapperExpansion, MappingRule, PredicateMapper};
