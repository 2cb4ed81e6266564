//! Pointer-register reuse: the statistic pretranslation lives on.
//!
//! Section 3.5 argues that "translations between successive uses of a
//! pointer often yield accesses to the same virtual memory page". This
//! module measures exactly that: for each base register, how often its
//! next dereference stays on the same page, how long register-pointer
//! lifetimes are (dereferences between redefinitions), and how often
//! pointer arithmetic carries an attachment to a new register.

use std::collections::BTreeMap;

use hbat_core::addr::{PageGeometry, VirtAddr};
use hbat_core::request::WritebackKind;
use hbat_isa::executor::OpSource;
use hbat_isa::uop::NO_REG;

/// Register-pointer behaviour of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointerProfile {
    /// Memory references with a base register.
    pub derefs: u64,
    /// Dereferences whose base register's previous dereference (without an
    /// intervening opaque redefinition) was to the same page — the
    /// pretranslation hit upper bound.
    pub same_page_reuses: u64,
    /// Dereferences that found a live attachment but on another page.
    pub page_crossings: u64,
    /// First dereferences after a register was (re)defined opaquely.
    pub fresh_pointers: u64,
    /// Pointer-arithmetic writebacks that copied a live attachment to a
    /// (possibly different) register.
    pub propagations: u64,
    /// Completed pointer lifetimes, and their total dereference count
    /// (mean lifetime = `lifetime_derefs / lifetimes`).
    pub lifetimes: u64,
    /// Total dereferences across completed lifetimes.
    pub lifetime_derefs: u64,
}

impl PointerProfile {
    /// Profiles an op stream (a capped machine or a slice of ops) under
    /// `geometry` in one pass, simulating an ideal (unbounded)
    /// attachment per register with the paper's propagation rule.
    /// Registers are the ops' register codes.
    pub fn of_ops(ops: impl OpSource, geometry: PageGeometry) -> Self {
        let mut p = PointerProfile::default();
        // Per register: (attached page, dereferences in current lifetime).
        let mut attached: BTreeMap<u8, (Option<u64>, u64)> = BTreeMap::new();
        let end_lifetime = |p: &mut PointerProfile, e: Option<(Option<u64>, u64)>| {
            if let Some((Some(_), derefs)) = e {
                p.lifetimes += 1;
                p.lifetime_derefs += derefs;
            }
        };
        ops.for_each_op(|r| {
            let op = r.template;
            if op.is_mem() {
                let page = geometry.vpn(VirtAddr(r.vaddr)).0;
                let entry = attached.entry(op.base_reg).or_insert((None, 0));
                match entry.0 {
                    Some(prev) if prev == page => p.same_page_reuses += 1,
                    Some(_) => p.page_crossings += 1,
                    None => p.fresh_pointers += 1,
                }
                entry.0 = Some(page);
                entry.1 += 1;
                p.derefs += 1;
            }
            let srcs = || op.srcs.into_iter().filter(|&s| s != NO_REG);
            // Writebacks after the use (a load redefines its own dest).
            for d in [op.dest, op.aux_dest].into_iter().filter(|&d| d != NO_REG) {
                let is_aux = op.aux_dest == d && op.dest != d;
                let kind = if is_aux {
                    WritebackKind::PointerArith
                } else {
                    op.dest_kind()
                };
                match kind {
                    WritebackKind::PointerArith => {
                        // Propagate from the first attached source.
                        let src_attach = srcs().find_map(|s| attached.get(&s).and_then(|e| e.0));
                        if let Some(page) = src_attach {
                            if srcs().all(|s| s != d) {
                                p.propagations += 1;
                            }
                            let old = attached.insert(d, (Some(page), 0));
                            if srcs().all(|s| s != d) {
                                end_lifetime(&mut p, old);
                            } else if let Some(old) = old {
                                // In-place pointer bump: lifetime continues.
                                attached.insert(d, (Some(page), old.1));
                            }
                        } else {
                            end_lifetime(&mut p, attached.insert(d, (None, 0)));
                        }
                    }
                    WritebackKind::Opaque => {
                        end_lifetime(&mut p, attached.insert(d, (None, 0)));
                    }
                }
            }
        });
        p
    }

    /// Fraction of dereferences an ideal pretranslation mechanism serves
    /// without the base TLB.
    pub fn reuse_fraction(&self) -> f64 {
        if self.derefs == 0 {
            0.0
        } else {
            self.same_page_reuses as f64 / self.derefs as f64
        }
    }

    /// Mean dereferences per completed pointer lifetime.
    pub fn mean_lifetime(&self) -> f64 {
        if self.lifetimes == 0 {
            0.0
        } else {
            self.lifetime_derefs as f64 / self.lifetimes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbat_isa::inst::Width;
    use hbat_isa::reg::Reg;
    use hbat_isa::uop::MicroOp;
    use hbat_isa::OpClass;

    fn op(serial: u64, class: OpClass, dest: u8) -> MicroOp {
        MicroOp {
            serial,
            vaddr: 0,
            pc: serial as u32,
            target: 0,
            offset: 0,
            class,
            flags: 0,
            srcs: [NO_REG; 3],
            dest: Reg::int(dest).code(),
            aux_dest: NO_REG,
            base_reg: NO_REG,
            index_reg: NO_REG,
            width: Width::B8,
            addr_src_mask: 0,
        }
    }

    fn load(serial: u64, base: u8, addr: u64) -> MicroOp {
        // Loads define an unrelated register.
        MicroOp {
            vaddr: addr,
            flags: MicroOp::F_MEM,
            base_reg: Reg::int(base).code(),
            ..op(serial, OpClass::Load, 20)
        }
    }

    fn arith(serial: u64, dest: u8, src: u8) -> MicroOp {
        MicroOp {
            flags: MicroOp::F_DEST_PTR,
            srcs: [Reg::int(src).code(), NO_REG, NO_REG],
            ..op(serial, OpClass::IntAlu, dest)
        }
    }

    fn opaque(serial: u64, dest: u8) -> MicroOp {
        op(serial, OpClass::IntAlu, dest)
    }

    #[test]
    fn repeated_same_page_derefs_reuse() {
        let trace: Vec<_> = (0..10).map(|i| load(i, 5, 0x4000 + i * 8)).collect();
        let p = PointerProfile::of_ops(&trace[..], PageGeometry::KB4);
        assert_eq!(p.derefs, 10);
        assert_eq!(p.fresh_pointers, 1);
        assert_eq!(p.same_page_reuses, 9);
        assert!((p.reuse_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn page_crossing_detected() {
        let trace = [load(0, 5, 0x4000), load(1, 5, 0x5000)];
        let p = PointerProfile::of_ops(&trace[..], PageGeometry::KB4);
        assert_eq!(p.page_crossings, 1);
        assert_eq!(p.same_page_reuses, 0);
    }

    #[test]
    fn opaque_redefinition_ends_the_lifetime() {
        let trace = [
            load(0, 5, 0x4000),
            load(1, 5, 0x4008),
            opaque(2, 5),
            load(3, 5, 0x4010),
        ];
        let p = PointerProfile::of_ops(&trace[..], PageGeometry::KB4);
        assert_eq!(p.fresh_pointers, 2, "redefinition forces a fresh start");
        assert_eq!(p.lifetimes, 1);
        assert_eq!(p.lifetime_derefs, 2);
        assert!((p.mean_lifetime() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn propagation_carries_the_attachment() {
        let trace = [
            load(0, 5, 0x4000), // attach page 4 to r5
            arith(1, 6, 5),     // r6 = r5 + k
            load(2, 6, 0x4008), // same page through r6: a reuse
        ];
        let p = PointerProfile::of_ops(&trace[..], PageGeometry::KB4);
        assert_eq!(p.propagations, 1);
        assert_eq!(p.same_page_reuses, 1);
        assert_eq!(p.fresh_pointers, 1);
    }

    #[test]
    fn in_place_increment_keeps_the_lifetime() {
        let trace = [load(0, 5, 0x4000), arith(1, 5, 5), load(2, 5, 0x4008)];
        let p = PointerProfile::of_ops(&trace[..], PageGeometry::KB4);
        assert_eq!(p.same_page_reuses, 1);
        assert_eq!(p.lifetimes, 0, "the lifetime is still open");
    }
}
