//! Property-based tests for the translation designs (DESIGN.md §6).

use proptest::prelude::*;

use hbat_core::addr::{PageGeometry, VirtAddr, Vpn};
use hbat_core::bank::TlbBank;
use hbat_core::cycle::Cycle;
use hbat_core::designs::interleaved::BankSelect;
use hbat_core::designs::multilevel::MultiLevelTlb;
use hbat_core::designs::ported::PortedTlb;
use hbat_core::designs::pretranslation::PretranslationTlb;
use hbat_core::designs::spec::DesignSpec;
use hbat_core::entry::{Protection, TlbEntry};
use hbat_core::pagetable::PageTable;
use hbat_core::replacement::ReplacementPolicy;
use hbat_core::request::{Outcome, TranslateRequest};
use hbat_core::translator::{drive_batch, AddressTranslator};

/// A compact address-stream generator: page indices stay small so reuse,
/// eviction, and conflicts all happen.
fn addr_stream() -> impl Strategy<Value = Vec<(u8, u16)>> {
    // (page 0..40, offset)
    prop::collection::vec((0u8..40, any::<u16>()), 1..300)
}

fn va(page: u8, off: u16) -> VirtAddr {
    VirtAddr(((page as u64) << 12) | (off as u64 & 0xfff))
}

proptest! {
    /// The LRU bank behaves exactly like a reference LRU model.
    #[test]
    fn lru_bank_matches_reference_model(stream in addr_stream()) {
        let capacity = 4;
        let mut bank = TlbBank::new(capacity, ReplacementPolicy::Lru, 0);
        let mut model: Vec<u64> = Vec::new(); // most-recent last
        for (i, &(page, _)) in stream.iter().enumerate() {
            let vpn = Vpn(page as u64);
            let hit = bank.lookup(vpn).is_some();
            let model_hit = model.contains(&vpn.0);
            prop_assert_eq!(hit, model_hit, "step {}", i);
            model.retain(|&p| p != vpn.0);
            model.push(vpn.0);
            if model.len() > capacity {
                model.remove(0);
            }
            if !hit {
                bank.insert(TlbEntry::new(
                    vpn,
                    hbat_core::addr::Ppn(vpn.0 + 1000),
                    Protection::READ_WRITE,
                ));
            }
            // Residency agrees with the model at every step.
            let mut resident = bank.resident_vpns();
            resident.sort_unstable();
            let mut expect: Vec<Vpn> = model.iter().map(|&p| Vpn(p)).collect();
            expect.sort_unstable();
            prop_assert_eq!(resident, expect);
        }
    }

    /// Any bank keeps its capacity bound and index consistency under
    /// arbitrary insert/invalidate/lookup churn.
    #[test]
    fn banks_never_exceed_capacity(
        stream in addr_stream(),
        policy_sel in 0u8..3,
        capacity in 1usize..24,
    ) {
        let policy = match policy_sel {
            0 => ReplacementPolicy::Lru,
            1 => ReplacementPolicy::Random,
            _ => ReplacementPolicy::Fifo,
        };
        let mut bank = TlbBank::new(capacity, policy, 42);
        for (i, &(page, off)) in stream.iter().enumerate() {
            let vpn = Vpn(page as u64);
            match off % 3 {
                0 => {
                    bank.insert(TlbEntry::new(
                        vpn,
                        hbat_core::addr::Ppn(page as u64),
                        Protection::READ_WRITE,
                    ));
                }
                1 => {
                    bank.lookup(vpn);
                }
                _ => {
                    bank.invalidate(vpn);
                }
            }
            prop_assert!(bank.len() <= capacity, "step {}", i);
            prop_assert_eq!(bank.iter().count(), bank.len());
            for v in bank.resident_vpns() {
                prop_assert_eq!(bank.peek(v).unwrap().vpn, v);
            }
        }
    }

    /// Every design translates consistently: all requests to one virtual
    /// page yield one physical page, distinct pages yield distinct frames,
    /// and the result always matches the design's own page table.
    #[test]
    fn translation_is_a_consistent_function(stream in addr_stream(), design_idx in 0usize..13) {
        let spec = DesignSpec::TABLE2[design_idx];
        let mut t = spec.build(PageGeometry::KB4, 7);
        let reqs: Vec<TranslateRequest> = stream
            .iter()
            .enumerate()
            .map(|(i, &(page, off))| {
                let r = TranslateRequest::load(va(page, off), i as u64)
                    .with_base((page % 30) + 1, (off & 0x7fff) as i32);
                if off % 4 == 0 {
                    TranslateRequest {
                        kind: hbat_core::request::AccessKind::Store,
                        ..r
                    }
                } else {
                    r
                }
            })
            .collect();
        let mut seen: std::collections::HashMap<u64, hbat_core::addr::Ppn> =
            std::collections::HashMap::new();
        let mut now = Cycle(0);
        for req in &reqs {
            let out = drive_batch(t.as_mut(), now, std::slice::from_ref(req));
            now = out[0].1 + 40;
            let ppn = out[0].0.ppn().expect("drive_batch always completes");
            let vpn = PageGeometry::KB4.vpn(req.vaddr);
            if let Some(&prev) = seen.get(&vpn.0) {
                prop_assert_eq!(prev, ppn, "vpn {} changed frames", vpn.0);
            }
            // Distinct pages → distinct frames.
            for (&v, &p) in &seen {
                if v != vpn.0 {
                    prop_assert_ne!(p, ppn);
                }
            }
            seen.insert(vpn.0, ppn);
            // Matches the authoritative page table.
            prop_assert_eq!(t.page_table().probe(vpn).expect("walked").ppn, ppn);
        }
        prop_assert!(t.stats().is_consistent());
    }

    /// Multi-level inclusion holds at every step of any request stream.
    #[test]
    fn multilevel_inclusion_invariant(stream in addr_stream(), l1 in 2usize..10) {
        let mut t = MultiLevelTlb::new(
            "prop",
            l1,
            4,
            16, // small L2 to force inclusion invalidations
            1,
            PageTable::new(PageGeometry::KB4),
            3,
        );
        for (i, &(page, off)) in stream.iter().enumerate() {
            t.begin_cycle(Cycle(i as u64 * 50));
            let _ = t.translate(&TranslateRequest::load(va(page, off), i as u64));
            prop_assert!(t.inclusion_holds(), "inclusion broken at step {}", i);
        }
    }

    /// The bank-selection functions are total and deterministic
    /// partitions, and an interleaved TLB never stores a page outside its
    /// home bank.
    #[test]
    fn interleaving_partitions_pages(stream in addr_stream(), xor in any::<bool>()) {
        let select = if xor { BankSelect::XorFold } else { BankSelect::BitSelect };
        let mut t = PortedTlb::new("prop", 4, 1, 0, 32, PageTable::new(PageGeometry::KB4), 9)
            .with_select(select);
        for (i, &(page, off)) in stream.iter().enumerate() {
            let a = va(page, off);
            let home = t.bank_of(a);
            prop_assert!(home < 4);
            prop_assert_eq!(home, t.bank_of(VirtAddr(a.0 ^ 0x5))); // offset-independent
            t.begin_cycle(Cycle(i as u64 * 40));
            let _ = t.translate(&TranslateRequest::load(a, i as u64));
        }
        prop_assert!(t.stats().is_consistent());
    }

    /// Pretranslation never serves a stale mapping: every hit agrees with
    /// the page table's current contents even while pages are unmapped
    /// and base-TLB entries are replaced underneath the cache.
    #[test]
    fn pretranslation_is_never_stale(
        stream in addr_stream(),
        unmap_every in 3usize..17,
    ) {
        let mut t = PretranslationTlb::new(
            "prop",
            4,
            4,
            8, // tiny base TLB: constant replacement-triggered flushes
            PageTable::new(PageGeometry::KB4),
            5,
        );
        for (i, &(page, off)) in stream.iter().enumerate() {
            if i % unmap_every == unmap_every - 1 {
                let vpn = Vpn(page as u64);
                t.page_table_mut().unmap(vpn);
                t.invalidate_page(vpn); // TLB shootdown
            }
            t.begin_cycle(Cycle(i as u64 * 40));
            let req = TranslateRequest::load(va(page, off), i as u64)
                .with_base((page % 8) + 1, 0);
            match t.translate(&req) {
                Outcome::Hit { ppn, .. } | Outcome::Miss { ppn, .. } => {
                    let vpn = PageGeometry::KB4.vpn(req.vaddr);
                    let authoritative = t.page_table().probe(vpn).expect("mapped").ppn;
                    prop_assert_eq!(ppn, authoritative, "stale ppn at step {}", i);
                }
                Outcome::Retry => {}
            }
            // Exercise propagation and invalidation too.
            t.note_writeback(
                (page % 8) + 1,
                &[(page % 7) + 1],
                if off % 2 == 0 {
                    hbat_core::request::WritebackKind::PointerArith
                } else {
                    hbat_core::request::WritebackKind::Opaque
                },
            );
        }
    }

    /// Piggybacked requests receive the same physical page the port-owning
    /// request received — combining changes timing, never results.
    #[test]
    fn piggybacking_preserves_results(pages in prop::collection::vec(0u8..6, 2..5)) {
        let mut pb = DesignSpec::Piggyback { ports: 1, piggyback_ports: 3 }
            .build(PageGeometry::KB4, 11);
        let mut t4 = DesignSpec::MultiPorted { ports: 4 }.build(PageGeometry::KB4, 11);
        let reqs: Vec<TranslateRequest> = pages
            .iter()
            .enumerate()
            .map(|(i, &p)| TranslateRequest::load(va(p, i as u16 * 8), i as u64))
            .collect();
        let a = drive_batch(pb.as_mut(), Cycle(0), &reqs);
        let b = drive_batch(t4.as_mut(), Cycle(0), &reqs);
        for (i, ((oa, _), (ob, _))) in a.iter().zip(&b).enumerate() {
            prop_assert_eq!(oa.ppn(), ob.ppn(), "request {} diverged", i);
        }
    }

    /// Page-table walks allocate unique frames, stable across re-walks.
    #[test]
    fn page_table_frames_unique(pages in prop::collection::vec(0u64..200, 1..100)) {
        let mut pt = PageTable::new(PageGeometry::KB4);
        let mut map = std::collections::HashMap::new();
        for &p in &pages {
            let e = pt.walk(Vpn(p));
            if let Some(&prev) = map.get(&p) {
                prop_assert_eq!(prev, e.ppn);
            }
            for (&q, &f) in &map {
                if q != p {
                    prop_assert_ne!(f, e.ppn);
                }
            }
            map.insert(p, e.ppn);
        }
    }
}
