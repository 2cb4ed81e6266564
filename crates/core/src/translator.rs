//! The [`AddressTranslator`] trait: the cycle-level contract between a
//! processor core and any of the paper's translation mechanisms.

use crate::addr::PageGeometry;
use crate::cycle::Cycle;
use crate::pagetable::PageTable;
use crate::request::{Outcome, TranslateRequest, WritebackKind};
use crate::stats::TranslatorStats;

/// A data-TLB mechanism, driven one cycle at a time.
///
/// Protocol, per simulated cycle:
///
/// 1. the core calls [`begin_cycle`](AddressTranslator::begin_cycle) once;
/// 2. it then presents that cycle's translation requests **in issue order**
///    via [`translate`](AddressTranslator::translate); an [`Outcome::Retry`]
///    means the request got no port and must be re-presented in a later
///    cycle;
/// 3. register writebacks are reported through
///    [`note_writeback`](AddressTranslator::note_writeback) (only the
///    pretranslation design listens).
///
/// Translators own their [`PageTable`]: a miss triggers a walk internally
/// and reports completion time through [`Outcome::Miss`].
pub trait AddressTranslator {
    /// Human-readable design mnemonic (e.g. `"T4"`, `"M8"`, `"I4/PB"`).
    fn name(&self) -> &str;

    /// Opens a new cycle; resets per-cycle port bookkeeping.
    ///
    /// `now` must be monotonically non-decreasing across calls.
    fn begin_cycle(&mut self, now: Cycle);

    /// Presents one translation request for the current cycle.
    fn translate(&mut self, req: &TranslateRequest) -> Outcome;

    /// Reports a register writeback so pretranslations can propagate or be
    /// invalidated. Designs without register-attached state ignore this.
    fn note_writeback(&mut self, _dest: u8, _srcs: &[u8], _kind: WritebackKind) {}

    /// Does this design consume [`note_writeback`](Self::note_writeback)
    /// events? Cores may skip writeback bookkeeping entirely when false
    /// (the default) — most designs have no register-attached state, and
    /// queueing a notification per retired instruction for a no-op
    /// listener is measurable in the simulation hot loop.
    fn uses_writebacks(&self) -> bool {
        false
    }

    /// Invalidates all cached translation state (context switch or
    /// wholesale virtual-memory change).
    fn flush(&mut self);

    /// Invalidates any cached translation of one page (a TLB shootdown,
    /// [BRG+89]): required after `page_table_mut().unmap(..)` or
    /// `protect(..)`. The default conservatively flushes everything.
    fn invalidate_page(&mut self, vpn: crate::addr::Vpn) {
        let _ = vpn;
        self.flush();
    }

    /// Requests currently queued or in service *inside* the translator
    /// (busy internal ports, banks mid-service) at `now` — an occupancy
    /// probe for observability sampling. Purely diagnostic: designs
    /// without internal queueing keep the default of 0.
    fn queue_depth(&self, now: Cycle) -> usize {
        let _ = now;
        0
    }

    /// Installs one page-table entry into the design's TLB state as if a
    /// fill had occurred, without charging ports, latency, or statistics
    /// — the checkpoint-restore path replays a snapshot's warm TLB
    /// contents through this, oldest entry first, so replacement
    /// recency (and any replacement-RNG churn from evictions) is
    /// reproduced identically on every restore. Evicted victims write
    /// their status bits back to the page table exactly like a real
    /// fill's eviction. The default is a no-op: a design with no
    /// TLB-resident state (or none worth warming) simply starts cold.
    fn warm_insert(&mut self, entry: crate::entry::TlbEntry) {
        let _ = entry;
    }

    /// How many warm entries this design can absorb through
    /// [`warm_insert`](Self::warm_insert) without evicting any of them —
    /// its total TLB capacity. Warm-state installers should replay only
    /// the *newest* this-many pages: replaying a longer recency list
    /// through a random-replacement bank evicts survivors
    /// position-by-position, leaving a churned subset that misses far
    /// more than the steady state the warm list approximates (observed
    /// as a 5-10x walk-rate inflation in sampled windows at reference
    /// scale). Truncating to capacity makes the install eviction-free,
    /// so the installed state is exactly the newest-capacity pages — an
    /// LRU proxy for the random-replacement steady state, which is the
    /// standard functional-warming compromise. The default (`usize::MAX`)
    /// means "no limit" and keeps designs without TLB state untouched.
    fn warm_tlb_capacity(&self) -> usize {
        usize::MAX
    }

    /// Event counters accumulated so far.
    fn stats(&self) -> &TranslatorStats;

    /// The page table backing this translator.
    fn page_table(&self) -> &PageTable;

    /// Mutable access to the page table (for test scenarios that remap or
    /// reprotect pages mid-run).
    fn page_table_mut(&mut self) -> &mut PageTable;

    /// Page geometry in force.
    fn geometry(&self) -> PageGeometry {
        self.page_table().geometry()
    }
}

/// Convenience driver used by tests: pushes a batch of same-cycle requests
/// through `t`, retrying rejected requests in subsequent cycles, and
/// returns the outcomes in request order along with the first cycle at
/// which each request was *accepted*.
///
/// This is a miniature stand-in for the load/store queue's retry loop.
pub fn drive_batch(
    t: &mut dyn AddressTranslator,
    start: Cycle,
    reqs: &[TranslateRequest],
) -> Vec<(Outcome, Cycle)> {
    let mut out: Vec<Option<(Outcome, Cycle)>> = vec![None; reqs.len()];
    let mut now = start;
    loop {
        t.begin_cycle(now);
        let mut progressed = false;
        for (req, slot) in reqs.iter().zip(&mut out) {
            if slot.is_some() {
                continue;
            }
            match t.translate(req) {
                Outcome::Retry => {}
                done => {
                    *slot = Some((done, now));
                    progressed = true;
                }
            }
        }
        if out.iter().all(Option::is_some) {
            return out.into_iter().flatten().collect();
        }
        assert!(
            progressed || now - start < 10_000,
            "translator made no progress for 10k cycles"
        );
        now += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VirtAddr;
    use crate::designs::ported::PortedTlb;
    use crate::pagetable::PageTable;

    #[test]
    fn drive_batch_retries_until_all_served() {
        let pt = PageTable::new(PageGeometry::KB4);
        let mut t = PortedTlb::new("T1", 1, 1, 0, 128, pt, 1);
        let reqs: Vec<_> = (0..3)
            .map(|i| TranslateRequest::load(VirtAddr(0x1000 * (i + 1)), i))
            .collect();
        let outcomes = drive_batch(&mut t, Cycle(0), &reqs);
        // One port: accepted on cycles 0, 1, 2.
        assert_eq!(outcomes[0].1, Cycle(0));
        assert_eq!(outcomes[1].1, Cycle(1));
        assert_eq!(outcomes[2].1, Cycle(2));
        assert!(outcomes.iter().all(|(o, _)| o.is_translated()));
    }
}
