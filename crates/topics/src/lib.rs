//! # nous-topics — Latent Dirichlet Allocation and divergence metrics
//!
//! §3.6 of the paper: "we … assign a topic distribution to every entity by
//! executing the Latent Dirichlet Allocation (LDA) algorithm on the
//! 'document-term' matrix constructed from the text. During the graph walk,
//! we perform a look-ahead search at every hop and select nodes with least
//! topic divergence to the target node."
//!
//! This crate provides the two halves of that sentence:
//!
//! - [`lda`] — a collapsed-Gibbs LDA trainer over
//!   [`nous_text::bow::BagOfWords`] documents, with fold-in inference for
//!   entities that join the graph after training (the dynamic-KG case), and
//! - [`divergence`] — KL and Jensen–Shannon divergence between topic
//!   distributions, the quantity the path search minimises.

pub mod divergence;
pub mod lda;

pub use divergence::{js_divergence, kl_divergence};
pub use lda::{fit_doc_topics, LdaConfig, LdaModel};
