//! The ten benchmark programs (Table 3 analogues).
//!
//! Each module's `build` returns a [`Workload`](crate::suite::Workload)
//! whose memory behaviour mimics the paper's program of the same name:
//! data-set size, reference locality, load/store fraction, and branch
//! predictability. Unit tests in each module pin those properties.

pub mod compress;
pub mod doduc;
pub mod espresso;
pub mod gcc;
pub mod ghostscript;
pub mod mpeg;
pub mod perl;
pub mod tfft;
pub mod tomcatv;
pub mod xlisp;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::suite::Workload;
    use hbat_isa::uop::PredecodedTrace;
    use std::collections::HashSet;

    /// Runs the workload and returns (micro-ops, mem fraction, distinct
    /// 4K pages).
    pub fn profile(w: &Workload) -> (PredecodedTrace, f64, usize) {
        let trace = w.uops();
        let mem = trace.iter().filter(|t| t.is_mem()).count();
        let pages: HashSet<u64> = trace
            .iter()
            .filter(|t| t.is_mem())
            .map(|t| t.vaddr >> 12)
            .collect();
        let frac = mem as f64 / trace.len() as f64;
        (trace, frac, pages.len())
    }
}
