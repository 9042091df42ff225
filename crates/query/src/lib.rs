//! # nous-query — the five query classes
//!
//! Figure 5 of the paper shows "five classes of natural language like
//! queries that are transparently translated to execute distributed
//! algorithms for subgraph pattern mining, entity-based queries or complex
//! graph queries", served through web and command-line interfaces (demo
//! feature 4). This crate is that translation layer:
//!
//! | Class | Surface syntax | Executes |
//! |---|---|---|
//! | Trending | `TRENDING [LIMIT k]` / "what is trending" | §3.5 streaming miner |
//! | Entity | `ABOUT <name>` / "tell me about X" | entity summary (Fig. 6) |
//! | Explanatory | `WHY <a> -> <b> [VIA <pred>] [LIMIT k]` / "why is A related to B" | §3.6 coherent path search |
//! | Pattern | `MATCH (Type)-[pred]->(Type) [LIMIT k]` | typed-edge pattern matching |
//! | Path | `PATHS <a> TO <b> [MAX h] [LIMIT k]` | budgeted path enumeration |
//!
//! [`parse()`](parse::parse) produces a [`Query`]; [`execute`] runs it against
//! a published [`nous_graph::LayeredSnapshot`] (+ alias resolver, topic
//! index and trend monitor), and [`execute_shared`] against a live
//! [`nous_core::SharedSession`]'s published snapshot.

pub mod ast;
pub mod exec;
pub mod parse;

pub use ast::{Endpoint, Query, QueryResponse, QueryResult};
pub use exec::{execute, execute_shared, execute_shared_with, query_class, QueryOptions};
pub use parse::{parse, ParseError};
