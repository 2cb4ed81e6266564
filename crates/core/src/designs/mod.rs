//! The address-translation designs analysed in the paper (Table 2).
//!
//! | Family | Module | Table-2 mnemonics |
//! |---|---|---|
//! | Multi-ported TLB | [`ported`] | T4, T2, T1 |
//! | Interleaved TLB | [`ported`], banks chosen by [`interleaved`] | I8, I4, X4 |
//! | Multi-level TLB | [`shielded`], an LRU L1 shield | M16, M8, M4 |
//! | Piggyback ports | [`ported`] | PB2, PB1, I4/PB |
//! | Pretranslation | [`shielded`], a pretranslation-cache shield | P8 |
//! | Unlimited reference | [`unlimited`] | — (testing/golden model) |
//!
//! [`spec`] turns the paper's mnemonics into configured design instances.

pub mod interleaved;
pub mod ported;
pub mod shielded;
pub mod spec;
pub mod unlimited;

use crate::addr::Vpn;
use crate::bank::TlbBank;
use crate::cycle::Cycle;
use crate::entry::TlbEntry;
use crate::pagetable::PageTable;
use crate::request::Outcome;
use crate::stats::TranslatorStats;

/// Size, in entries, of every base TLB mechanism in Table 2.
pub const BASE_TLB_ENTRIES: usize = 128;

/// Services one request against a base TLB bank: probe, update status bits,
/// walk + install on a miss. Shared by every design.
///
/// Returns the outcome (relative to service starting at `start`, with
/// `extra_latency` added to a hit) and the entry evicted to make room, if
/// any (a shielded design keeps its shield coherent with the base TLB's
/// replacements). Victim status bits are written back to the page table.
pub(crate) fn access_base_bank(
    bank: &mut TlbBank,
    pt: &mut PageTable,
    vpn: Vpn,
    is_store: bool,
    start: Cycle,
    extra_latency: u64,
    stats: &mut TranslatorStats,
) -> (Outcome, Option<TlbEntry>) {
    if let Some(e) = bank.lookup(vpn) {
        e.referenced = true;
        if is_store {
            e.dirty = true;
        }
        let ppn = e.ppn;
        stats.base_hits += 1;
        return (Outcome::Hit { ppn, extra_latency }, None);
    }
    // Miss: walk the page table and install.
    let mut entry = pt.walk(vpn);
    entry.referenced = true;
    entry.dirty |= is_store;
    let ppn = entry.ppn;
    let evicted = bank.insert(entry);
    if let Some(ref victim) = evicted {
        write_back_status(pt, victim);
    }
    stats.misses += 1;
    (
        Outcome::Miss {
            ppn,
            ready_at: start + pt.miss_latency(),
        },
        evicted,
    )
}

/// Writes an evicted entry's status bits back to the page table (skipped if
/// the page was unmapped while cached — the OS already discarded it).
pub(crate) fn write_back_status(pt: &mut PageTable, entry: &TlbEntry) {
    if pt.probe(entry.vpn).is_some() {
        pt.update_status(entry.vpn, entry.referenced, entry.dirty);
    }
}
