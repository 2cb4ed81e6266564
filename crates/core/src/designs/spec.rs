//! Named design specifications: Table 2 of the paper as data.
//!
//! [`DesignSpec`] carries the parameters of one analysed design;
//! [`DesignSpec::parse`] accepts the paper's mnemonics (`"T4"`, `"M8"`,
//! `"I4/PB"`, ...) and [`DesignSpec::build`] instantiates a configured
//! translator over a fresh page table.

use std::fmt;
use std::str::FromStr;

use crate::addr::PageGeometry;
use crate::pagetable::PageTable;
use crate::translator::AddressTranslator;

use super::interleaved::BankSelect;
use super::multilevel::MultiLevelTlb;
use super::ported::PortedTlb;
use super::pretranslation::PretranslationTlb;
use super::unlimited::UnlimitedTlb;
use super::BASE_TLB_ENTRIES;

/// Error returned when a design mnemonic is not recognised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDesignError {
    mnemonic: String,
}

impl fmt::Display for ParseDesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown design mnemonic `{}` (expected one of {})",
            self.mnemonic,
            DesignSpec::TABLE2
                .iter()
                .map(|d| d.mnemonic())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

impl std::error::Error for ParseDesignError {}

/// One address-translation design configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignSpec {
    /// Multi-ported TLB with this many ports (T4, T2, T1).
    MultiPorted {
        /// Number of simultaneous access ports.
        ports: usize,
    },
    /// Interleaved TLB (I8, I4, X4).
    Interleaved {
        /// Number of single-ported banks.
        banks: usize,
        /// Bank-selection function.
        select: BankSelect,
        /// Piggyback ports at each bank (I4/PB).
        piggyback: bool,
    },
    /// Multi-level TLB with this many L1 entries (M16, M8, M4).
    MultiLevel {
        /// L1 TLB capacity in entries.
        l1_entries: usize,
    },
    /// Piggybacked multi-ported TLB (PB2, PB1).
    Piggyback {
        /// Real translation ports.
        ports: usize,
        /// Combining-only ports.
        piggyback_ports: usize,
    },
    /// Pretranslation cache over a single-ported base TLB (P8).
    Pretranslation {
        /// Pretranslation-cache capacity in entries.
        ptc_entries: usize,
    },
    /// Unlimited-bandwidth reference (not part of Table 2).
    Unlimited,
}

impl DesignSpec {
    /// The thirteen designs of Table 2, in the paper's presentation order.
    pub const TABLE2: [DesignSpec; 13] = [
        DesignSpec::MultiPorted { ports: 4 },
        DesignSpec::MultiPorted { ports: 2 },
        DesignSpec::MultiPorted { ports: 1 },
        DesignSpec::Interleaved {
            banks: 8,
            select: BankSelect::BitSelect,
            piggyback: false,
        },
        DesignSpec::Interleaved {
            banks: 4,
            select: BankSelect::BitSelect,
            piggyback: false,
        },
        DesignSpec::Interleaved {
            banks: 4,
            select: BankSelect::XorFold,
            piggyback: false,
        },
        DesignSpec::MultiLevel { l1_entries: 16 },
        DesignSpec::MultiLevel { l1_entries: 8 },
        DesignSpec::MultiLevel { l1_entries: 4 },
        DesignSpec::Pretranslation { ptc_entries: 8 },
        DesignSpec::Piggyback {
            ports: 2,
            piggyback_ports: 2,
        },
        DesignSpec::Piggyback {
            ports: 1,
            piggyback_ports: 3,
        },
        DesignSpec::Interleaved {
            banks: 4,
            select: BankSelect::BitSelect,
            piggyback: true,
        },
    ];

    /// The paper's mnemonic for this design.
    pub fn mnemonic(&self) -> &'static str {
        match *self {
            DesignSpec::MultiPorted { ports: 4 } => "T4",
            DesignSpec::MultiPorted { ports: 2 } => "T2",
            DesignSpec::MultiPorted { ports: 1 } => "T1",
            DesignSpec::MultiPorted { .. } => "Tn",
            DesignSpec::Interleaved {
                banks: 8,
                select: BankSelect::BitSelect,
                piggyback: false,
            } => "I8",
            DesignSpec::Interleaved {
                banks: 4,
                select: BankSelect::BitSelect,
                piggyback: false,
            } => "I4",
            DesignSpec::Interleaved {
                banks: 4,
                select: BankSelect::XorFold,
                piggyback: false,
            } => "X4",
            DesignSpec::Interleaved {
                banks: 4,
                select: BankSelect::BitSelect,
                piggyback: true,
            } => "I4/PB",
            DesignSpec::Interleaved { .. } => "In",
            DesignSpec::MultiLevel { l1_entries: 16 } => "M16",
            DesignSpec::MultiLevel { l1_entries: 8 } => "M8",
            DesignSpec::MultiLevel { l1_entries: 4 } => "M4",
            DesignSpec::MultiLevel { .. } => "Mn",
            DesignSpec::Pretranslation { ptc_entries: 8 } => "P8",
            DesignSpec::Pretranslation { .. } => "Pn",
            DesignSpec::Piggyback {
                ports: 2,
                piggyback_ports: 2,
            } => "PB2",
            DesignSpec::Piggyback {
                ports: 1,
                piggyback_ports: 3,
            } => "PB1",
            DesignSpec::Piggyback { .. } => "PBn",
            DesignSpec::Unlimited => "UNLIM",
        }
    }

    /// Table 2's prose description of this design.
    pub fn description(&self) -> String {
        match *self {
            DesignSpec::MultiPorted { ports } => format!(
                "{ports}-ported TLB, 128 entries, fully-associative, random replacement"
            ),
            DesignSpec::Interleaved {
                banks,
                select,
                piggyback,
            } => {
                let sel = match select {
                    BankSelect::BitSelect => "bit-select",
                    BankSelect::XorFold => "XOR-select",
                    BankSelect::Multiplicative => "multiplicative-select",
                };
                let pb = if piggyback { " w/piggybacked banks" } else { "" };
                format!(
                    "{banks}-way {sel} interleaved TLB{pb}, 128 entries ({} entry fully-associative bank), random replacement in bank",
                    128 / banks
                )
            }
            DesignSpec::MultiLevel { l1_entries } => format!(
                "4-ported {l1_entries}-entry L1 TLB w/LRU replacement, 128-entry L2 TLB, fully-associative, random replacement"
            ),
            DesignSpec::Pretranslation { ptc_entries } => format!(
                "4-ported {ptc_entries}-entry pretranslation cache w/LRU replacement, 128-entry L2 TLB, fully-associative, random replacement"
            ),
            DesignSpec::Piggyback {
                ports,
                piggyback_ports,
            } => format!(
                "{ports}-ported TLB w/ {piggyback_ports} piggyback ports, 128 entries, fully-associative, random replacement"
            ),
            DesignSpec::Unlimited => {
                "unlimited-bandwidth, unlimited-capacity reference".to_owned()
            }
        }
    }

    /// Parses a paper mnemonic.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDesignError`] if the mnemonic is not one of Table 2's
    /// (plus `UNLIM`).
    pub fn parse(mnemonic: &str) -> Result<DesignSpec, ParseDesignError> {
        if mnemonic.eq_ignore_ascii_case("UNLIM") {
            return Ok(DesignSpec::Unlimited);
        }
        DesignSpec::TABLE2
            .iter()
            .find(|d| d.mnemonic().eq_ignore_ascii_case(mnemonic))
            .copied()
            .ok_or_else(|| ParseDesignError {
                mnemonic: mnemonic.to_owned(),
            })
    }

    /// Instantiates this design over a fresh page table with geometry
    /// `geom`, seeding random replacement with `seed`.
    pub fn build(&self, geom: PageGeometry, seed: u64) -> Box<dyn AddressTranslator> {
        let pt = PageTable::new(geom);
        let name = self.mnemonic();
        let ported = |banks, ports, piggyback_ports, pt| {
            PortedTlb::new(
                name,
                banks,
                ports,
                piggyback_ports,
                BASE_TLB_ENTRIES,
                pt,
                seed,
            )
        };
        match *self {
            DesignSpec::MultiPorted { ports } => Box::new(ported(1, ports, 0, pt)),
            DesignSpec::Piggyback {
                ports,
                piggyback_ports,
            } => Box::new(ported(1, ports, piggyback_ports, pt)),
            DesignSpec::Interleaved {
                banks,
                select,
                piggyback,
            } => {
                // I4/PB combines every same-page request at a busy bank.
                let piggyback_ports = if piggyback { usize::MAX } else { 0 };
                Box::new(ported(banks, 1, piggyback_ports, pt).with_select(select))
            }
            DesignSpec::MultiLevel { l1_entries } => Box::new(MultiLevelTlb::new(
                name,
                l1_entries,
                4,
                BASE_TLB_ENTRIES,
                1,
                pt,
                seed,
            )),
            DesignSpec::Pretranslation { ptc_entries } => Box::new(PretranslationTlb::new(
                name,
                ptc_entries,
                4,
                BASE_TLB_ENTRIES,
                pt,
                seed,
            )),
            DesignSpec::Unlimited => Box::new(UnlimitedTlb::new(pt)),
        }
    }
}

impl fmt::Display for DesignSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl FromStr for DesignSpec {
    type Err = ParseDesignError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DesignSpec::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_table2_mnemonics_round_trip() {
        let expected = [
            "T4", "T2", "T1", "I8", "I4", "X4", "M16", "M8", "M4", "P8", "PB2", "PB1", "I4/PB",
        ];
        for (spec, name) in DesignSpec::TABLE2.iter().zip(expected) {
            assert_eq!(spec.mnemonic(), name);
            assert_eq!(DesignSpec::parse(name).unwrap(), *spec);
            assert_eq!(name.parse::<DesignSpec>().unwrap(), *spec);
        }
    }

    #[test]
    fn parse_is_case_insensitive_and_rejects_junk() {
        assert_eq!(
            DesignSpec::parse("m8").unwrap(),
            DesignSpec::MultiLevel { l1_entries: 8 }
        );
        assert_eq!(DesignSpec::parse("unlim").unwrap(), DesignSpec::Unlimited);
        let err = DesignSpec::parse("Z9").unwrap_err();
        assert!(err.to_string().contains("Z9"));
        assert!(err.to_string().contains("T4"));
    }

    #[test]
    fn built_translators_carry_their_mnemonic() {
        for spec in DesignSpec::TABLE2 {
            let t = spec.build(PageGeometry::KB4, 1);
            assert_eq!(t.name(), spec.mnemonic());
            assert_eq!(t.geometry(), PageGeometry::KB4);
        }
    }

    #[test]
    fn descriptions_match_table2_phrasing() {
        assert_eq!(
            DesignSpec::parse("T4").unwrap().description(),
            "4-ported TLB, 128 entries, fully-associative, random replacement"
        );
        assert!(DesignSpec::parse("I8")
            .unwrap()
            .description()
            .contains("16 entry fully-associative bank"));
        assert!(DesignSpec::parse("I4/PB")
            .unwrap()
            .description()
            .contains("piggybacked banks"));
        assert!(DesignSpec::parse("P8")
            .unwrap()
            .description()
            .contains("pretranslation cache"));
    }

    #[test]
    fn every_design_translates_something() {
        use crate::addr::VirtAddr;
        use crate::cycle::Cycle;
        use crate::request::TranslateRequest;
        for spec in DesignSpec::TABLE2 {
            let mut t = spec.build(PageGeometry::KB4, 1);
            t.begin_cycle(Cycle(0));
            let o = t.translate(&TranslateRequest::load(VirtAddr(0x1000), 0).with_base(1, 0));
            assert!(o.is_translated(), "{} rejected a lone request", spec);
        }
    }
}
