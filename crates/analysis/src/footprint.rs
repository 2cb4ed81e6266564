//! Footprint and working-set analysis.
//!
//! * The **footprint curve** — distinct pages touched as a function of
//!   references made — distinguishes a streaming workload (linear growth)
//!   from a resident one (quick plateau).
//! * The **working set** (Denning): distinct pages inside a sliding window
//!   of references — what a TLB of a given reach actually has to hold.

use std::collections::BTreeSet;

use hbat_core::addr::{PageGeometry, VirtAddr};
use hbat_isa::executor::OpSource;

/// Extracts the page-number stream of a program's data references, in
/// program order: the input of every page-level analysis. Reads any op
/// stream in one pass, a capped machine or a slice of ops alike.
pub fn page_stream(ops: impl OpSource, geometry: PageGeometry) -> Vec<u64> {
    let mut pages = Vec::new();
    ops.for_each_op(|r| {
        if r.template.is_mem() {
            pages.push(geometry.vpn(VirtAddr(r.vaddr)).0);
        }
    });
    pages
}

/// Distinct pages touched after each of `points` evenly spaced positions
/// in the stream; the last point is the total footprint.
pub fn footprint_curve(pages: &[u64], points: usize) -> Vec<(usize, usize)> {
    assert!(points > 0, "need at least one sample point");
    let mut seen = BTreeSet::new();
    let mut curve = Vec::with_capacity(points);
    if pages.is_empty() {
        return vec![(0, 0); points];
    }
    let step = pages.len().div_ceil(points);
    for (i, &p) in pages.iter().enumerate() {
        seen.insert(p);
        if (i + 1) % step == 0 || i + 1 == pages.len() {
            curve.push((i + 1, seen.len()));
        }
    }
    curve
}

/// Mean and maximum working-set size over sliding windows of `window`
/// references (stride = window, i.e. disjoint windows for tractability).
pub fn working_set(pages: &[u64], window: usize) -> (f64, usize) {
    assert!(window > 0, "window must be positive");
    let mut distinct: BTreeSet<u64> = BTreeSet::new();
    let mut total = 0usize;
    let mut max = 0usize;
    let mut n = 0usize;
    for chunk in pages.chunks(window) {
        distinct.clear();
        distinct.extend(chunk.iter().copied());
        total += distinct.len();
        max = max.max(distinct.len());
        n += 1;
    }
    if n == 0 {
        (0.0, 0)
    } else {
        (total as f64 / n as f64, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbat_isa::inst::{AddrMode, Inst, Width};
    use hbat_isa::{Machine, Program, Reg};

    #[test]
    fn page_stream_keeps_data_references_in_order() {
        let at = |offset| AddrMode::BaseOffset {
            base: Reg::int(1),
            offset,
        };
        let program = Program::new(vec![
            Inst::Li {
                d: Reg::int(1),
                imm: 0x5000,
            },
            Inst::Load {
                d: Reg::int(2),
                addr: at(0x1008),
                width: Width::B8,
            },
            Inst::Store {
                s: Reg::int(2),
                addr: at(0),
                width: Width::B8,
            },
            Inst::Halt,
        ])
        .unwrap();
        let machine = Machine::new(program);
        let uops = machine.clone().run_to_uops(10);
        // A machine and its ops slice give the same stream.
        assert_eq!(
            page_stream(machine.capped(10), PageGeometry::KB4),
            vec![6, 5]
        );
        assert_eq!(page_stream(&*uops, PageGeometry::KB4), vec![6, 5]);
        assert_eq!(page_stream(&*uops, PageGeometry::KB8), vec![3, 2]);
    }

    #[test]
    fn footprint_of_streaming_grows_linearly() {
        let pages: Vec<u64> = (0..100).collect();
        let curve = footprint_curve(&pages, 4);
        assert_eq!(curve.last(), Some(&(100, 100)));
        // Each quarter adds ~25 pages.
        assert_eq!(curve[0], (25, 25));
        assert_eq!(curve[1], (50, 50));
    }

    #[test]
    fn footprint_of_resident_plateaus() {
        let pages: Vec<u64> = (0..100).map(|i| i % 5).collect();
        let curve = footprint_curve(&pages, 4);
        assert_eq!(curve.last(), Some(&(100, 5)));
        assert_eq!(curve[0].1, 5, "plateau reached in the first quarter");
    }

    #[test]
    fn working_set_statistics() {
        // Window 4 over: [0,0,0,0], [1,2,3,4]
        let pages = vec![0, 0, 0, 0, 1, 2, 3, 4];
        let (mean, max) = working_set(&pages, 4);
        assert!((mean - 2.5).abs() < 1e-12);
        assert_eq!(max, 4);
    }

    #[test]
    fn empty_stream_is_safe() {
        assert_eq!(working_set(&[], 8), (0.0, 0));
        assert_eq!(footprint_curve(&[], 3), vec![(0, 0); 3]);
    }
}
