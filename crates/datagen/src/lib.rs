//! Deterministic synthetic workloads for the facade-rs evaluation.
//!
//! The paper evaluates on twitter-2010 (42 M vertices, 1.5 B edges),
//! LiveJournal (plus synthetic supergraphs), and a Yahoo web-graph-derived
//! text corpus. None of those are redistributable here, and laptop-scale
//! runs need smaller inputs anyway, so this crate generates stand-ins that
//! preserve the properties the experiments depend on:
//!
//! - [`graph`] — R-MAT graphs with power-law degree distributions, with
//!   presets scaled down from the paper's datasets and the size series used
//!   by Figure 4(a) and §4.3.
//! - [`text`] — Zipf-distributed word corpora for word count and external
//!   sort, with the 3/5/10/14/19 "GB" size series of Table 3 scaled down.
//!
//! All generators are seeded and deterministic.

#![forbid(unsafe_code)]

pub mod graph;
pub mod rng;
pub mod text;

pub use graph::{Graph, GraphSpec};
pub use rng::SplitMix64;
pub use text::{CorpusSpec, corpus};
