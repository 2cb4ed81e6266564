//! # hbat-analysis — address-trace anatomy
//!
//! The paper's arguments rest on measurable stream properties: reference
//! locality (Figure 6 and the multi-level TLB), same-page simultaneity
//! (piggyback ports), and register-pointer reuse (pretranslation). This
//! crate measures all three for any `hbat-isa` op stream (a capped
//! machine, or a slice of ops). [`page_stream`] extracts the data-page
//! stream in one pass; the page-level passes read that stream, and only
//! the pointer pass reads the ops themselves, in a pass of its own:
//!
//! * [`reuse`] — LRU reuse-distance profiles: every LRU TLB size's miss
//!   rate from one pass (the Figure-6 generalisation);
//! * [`adjacency`] — same-page structure of nearby references: the
//!   combining available to piggyback ports;
//! * [`pointer`](mod@pointer) — base-register reuse and lifetimes: the ceiling on
//!   pretranslation shielding;
//! * [`banks`] — interleaved-TLB bank conflicts, split into fixable
//!   (different-page) and unfixable (same-page) collisions;
//! * [`footprint`] — the page stream, footprint curves and Denning
//!   working sets.
//!
//! ```
//! use hbat_analysis::reuse::ReuseProfile;
//!
//! let profile = ReuseProfile::of_pages(&[1, 2, 3, 1, 2, 3]);
//! assert_eq!(profile.distinct_pages(), 3);
//! assert!(profile.lru_miss_rate(3) < profile.lru_miss_rate(2));
//! ```

pub mod adjacency;
pub mod banks;
pub mod footprint;
pub mod pointer;
pub mod reuse;

pub use adjacency::AdjacencyProfile;
pub use banks::BankConflictProfile;
pub use footprint::{footprint_curve, page_stream, working_set};
pub use pointer::PointerProfile;
pub use reuse::ReuseProfile;
