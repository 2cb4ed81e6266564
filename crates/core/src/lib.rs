//! # hbat-core — high-bandwidth address translation
//!
//! A library of data-TLB mechanisms reproducing Austin & Sohi,
//! *"High-Bandwidth Address Translation for Multiple-Issue Processors"*
//! (ISCA 1996).
//!
//! Multiple-issue processors present several data-memory translation
//! requests per cycle. This crate implements the paper's design space for
//! serving them:
//!
//! * **multi-ported TLBs** ([`designs::ported`]) — brute force, the
//!   baseline everything is normalised to;
//! * **interleaved TLBs** ([`designs::ported`]) — banking with
//!   bit-select or XOR-fold bank selection ([`designs::interleaved`]);
//! * **multi-level TLBs** ([`designs::multilevel`]) — a tiny multi-ported
//!   LRU L1 TLB shields a large single-ported L2;
//! * **piggyback ports** ([`designs::ported`]) — simultaneous requests
//!   to the same page combine at the access port;
//! * **pretranslation** ([`designs::pretranslation`]) — translations ride
//!   on base-register values and are reused across dereferences.
//!
//! Every design implements the cycle-level [`translator::AddressTranslator`]
//! trait, owns a [`pagetable::PageTable`], and accounts its behaviour in
//! [`stats::TranslatorStats`].
//!
//! ## Quick start
//!
//! ```
//! use hbat_core::addr::{PageGeometry, VirtAddr};
//! use hbat_core::cycle::Cycle;
//! use hbat_core::designs::spec::DesignSpec;
//! use hbat_core::request::TranslateRequest;
//!
//! // Build the paper's M8 design: 8-entry L1 TLB over a 128-entry L2.
//! let mut tlb = DesignSpec::parse("M8")?.build(PageGeometry::KB4, 42);
//! tlb.begin_cycle(Cycle(0));
//! let outcome = tlb.translate(&TranslateRequest::load(VirtAddr(0x1234_5678), 0));
//! assert!(outcome.is_translated());
//! # Ok::<(), hbat_core::designs::spec::ParseDesignError>(())
//! ```

pub mod addr;
pub mod bank;
pub mod cycle;
pub mod designs;
pub mod entry;
pub mod hash;
pub mod pagetable;
pub mod replacement;
pub mod request;
pub mod stats;
pub mod translator;

pub use addr::{PageGeometry, PhysAddr, Ppn, VirtAddr, Vpn};
pub use cycle::Cycle;
pub use designs::spec::DesignSpec;
pub use entry::{Protection, TlbEntry};
pub use pagetable::PageTable;
pub use request::{AccessKind, Outcome, TranslateRequest, WritebackKind};
pub use stats::TranslatorStats;
pub use translator::AddressTranslator;
