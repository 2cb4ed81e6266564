//! Stored traces as tapes: a program's [`MicroOp`] templates plus
//! 12 bytes per retired op.
//!
//! Of a retired op's 40-byte [`MicroOp`], only the serial number, the
//! effective address and the branch direction differ from its static
//! instruction's template — the split the executor already hands its
//! sinks as a [`Retired`] view. A [`Tape`] stores exactly that view:
//! per op a `u32` template index whose top bit is the taken bit, and a
//! `u64` effective address; the serial is the tape's first serial plus
//! the op's position. [`Tape::retired`] hands the view back and
//! [`Tape::op`] rebuilds the full micro-op; the timing engine rebuilds
//! each op it fetches into its re-order buffer.
//!
//! A tape is built by feeding it as a [`RetireSink`]: straight from
//! `Machine::execute` ([`Machine::run_to_tape`](crate::Machine::run_to_tape),
//! whose templates are the program's, indexed by pc), or from any op
//! sequence with contiguous serials through [`Tape::from_ops`]. Either
//! way it is lossless: an op whose static fields differ from the
//! template at its pc gets a template of its own. A [`TapeReader`] plays
//! a tape back as an [`OpSource`].

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::executor::{OpSource, RetireSink, Retired};
use crate::uop::MicroOp;

/// Template-index bit carrying the op's [`MicroOp::F_BR_TAKEN`].
const TAKEN: u32 = 1 << 31;

/// Templates of static pcs below this sit at their own pc's index;
/// others, and a second static form at an occupied pc, are appended.
const PC_SLOTS: u32 = 1 << 16;

/// A free pc slot in the template table (no op's static part is ever
/// compared against it: its pc is outside the slotted range).
const HOLE: MicroOp = MicroOp {
    serial: 0,
    vaddr: 0,
    pc: u32::MAX,
    target: 0,
    offset: 0,
    class: crate::trace::OpClass::IntAlu,
    flags: 0,
    srcs: [0; 3],
    dest: 0,
    aux_dest: 0,
    base_reg: 0,
    index_reg: 0,
    width: crate::inst::Width::B1,
    addr_src_mask: 0,
};

/// Why [`Tape::from_ops`] refused an op sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TapeError {
    /// Op `at` has serial `found` where contiguous serials give
    /// `expected` (`None` past `u64::MAX`).
    SerialGap {
        /// Position of the op in the sequence.
        at: usize,
        /// The serial a contiguous sequence has there.
        expected: Option<u64>,
        /// The op's serial.
        found: u64,
    },
}

impl fmt::Display for TapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TapeError::SerialGap {
                at,
                expected: Some(e),
                found,
            } => write!(f, "op {at} has serial {found}, expected {e}"),
            TapeError::SerialGap { at, found, .. } => {
                write!(f, "op {at} has serial {found}, past the last serial")
            }
        }
    }
}

impl std::error::Error for TapeError {}

/// One op on a tape: 12 bytes, unaligned, so the ops stay one array.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed)]
struct Entry {
    /// Template index, `| TAKEN` if the branch was taken.
    index: u32,
    /// Effective address (the template's 0 for non-memory ops).
    vaddr: u64,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 12);

/// A stored trace: the static templates plus, per op, a template index
/// (top bit: taken) and an effective address. See the module docs.
///
/// Cloning shares the templates. Two tapes are equal when they hold the
/// same ops, however their templates are laid out.
#[derive(Debug, Clone, Default)]
pub struct Tape {
    /// Static parts ([`MicroOp::static_part`]); free pc slots are
    /// [`HOLE`]s. Shared with the machine that built the tape and with
    /// tapes cut from it.
    templates: Arc<Vec<MicroOp>>,
    /// Templates appended past their pc slot, by static part.
    appended: HashMap<MicroOp, u32>,
    /// Serial of op 0.
    first_serial: u64,
    /// The ops, in order.
    ops: Vec<Entry>,
}

impl PartialEq for Tape {
    fn eq(&self, other: &Tape) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Tape {
    /// An empty tape whose template table starts as `templates` (static
    /// parts indexed by pc), so ops retired from that program need no
    /// lookup beyond their pc.
    pub(crate) fn with_templates(templates: Arc<Vec<MicroOp>>) -> Tape {
        Tape {
            templates,
            ..Tape::default()
        }
    }

    /// Stores `ops` losslessly: `op(i) == ops[i]` for every `i`.
    ///
    /// # Errors
    ///
    /// [`TapeError::SerialGap`] unless the serials are contiguous.
    ///
    /// # Panics
    ///
    /// If the ops need `2^31` templates or more.
    pub fn from_ops(ops: &[MicroOp]) -> Result<Tape, TapeError> {
        let first = ops.first().map_or(0, |op| op.serial);
        for (at, op) in ops.iter().enumerate() {
            let expected = first.checked_add(at as u64);
            if expected != Some(op.serial) {
                return Err(TapeError::SerialGap {
                    at,
                    expected,
                    found: op.serial,
                });
            }
        }
        let mut tape = Tape::default();
        tape.reserve(ops.len());
        let mut src = ops;
        src.feed(ops.len() as u64, &mut tape);
        Ok(tape)
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the tape holds no op.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Room for `additional` more ops without reallocating.
    pub fn reserve(&mut self, additional: usize) {
        self.ops.reserve_exact(additional);
    }

    /// Drops spare capacity, leaving 12 heap bytes per op.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.ops.shrink_to_fit();
    }

    /// Heap bytes held: the op array at its capacity, the
    /// template table (shared ones counted in full) and the index of
    /// appended templates.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ops.capacity() * size_of::<Entry>()
            + self.templates.capacity() * size_of::<MicroOp>()
            + self.appended.capacity() * (size_of::<MicroOp>() + size_of::<u32>())
    }

    // hbat-lint: hot — the engine reads every fetched op through here
    /// The [`Retired`] view of op `i`.
    ///
    /// # Panics
    ///
    /// If `i >= self.len()`.
    #[inline(always)]
    pub fn retired(&self, i: usize) -> Retired<'_> {
        let Entry { index, vaddr } = self.ops[i];
        Retired {
            template: &self.templates[(index & !TAKEN) as usize],
            serial: self.first_serial + i as u64,
            vaddr,
            taken: index & TAKEN != 0,
        }
    }

    /// Op `i`, rebuilt from its template.
    ///
    /// # Panics
    ///
    /// If `i >= self.len()`.
    #[inline(always)]
    pub fn op(&self, i: usize) -> MicroOp {
        self.retired(i).uop()
    }
    // hbat-lint: cold

    /// Every op, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = MicroOp> + '_ {
        (0..self.len()).map(|i| self.op(i))
    }

    /// Every op, materialised (the `&[MicroOp]` boundary).
    pub fn to_ops(&self) -> Vec<MicroOp> {
        self.iter().collect()
    }

    /// Plays the tape back from its first op.
    pub fn reader(&self) -> TapeReader<'_> {
        TapeReader { tape: self, pos: 0 }
    }

    /// The template index of an op whose template is `t`: its pc's
    /// slot when that holds `t`'s static part, else one found or added
    /// by [`Tape::add_template`].
    #[inline]
    fn template_index(&mut self, t: &MicroOp) -> u32 {
        match self.templates.get(t.pc as usize) {
            Some(slot) if *slot == t.static_part() => t.pc,
            _ => self.add_template(t.static_part()),
        }
    }

    /// The index of template `key`: its pc's slot if that is free, else
    /// appended (or found among the appended ones).
    ///
    /// # Panics
    ///
    /// If the table would reach `2^31` templates, which the taken bit
    /// leaves no index for.
    #[cold]
    fn add_template(&mut self, key: MicroOp) -> u32 {
        if let Some(&i) = self.appended.get(&key) {
            return i;
        }
        let templates = Arc::make_mut(&mut self.templates);
        let pc = key.pc as usize;
        if key.pc < PC_SLOTS {
            if pc >= templates.len() {
                templates.resize(pc + 1, HOLE);
            }
            if templates[pc] == HOLE {
                templates[pc] = key;
                return key.pc;
            }
        }
        templates.push(key);
        let i = u32::try_from(templates.len() - 1)
            .ok()
            .filter(|&i| i < TAKEN)
            .expect("a tape holds fewer than 2^31 templates");
        self.appended.insert(key, i);
        i
    }
}

/// The tape sink: keeps each retired op as its template index, taken
/// bit and effective address.
///
/// # Panics
///
/// If an op's serial does not follow the previous op's.
impl RetireSink for Tape {
    #[inline]
    fn retire(&mut self, r: Retired<'_>) {
        if self.ops.is_empty() {
            self.first_serial = r.serial;
        }
        assert_eq!(
            r.serial,
            self.first_serial + self.ops.len() as u64,
            "a tape's serials are contiguous"
        );
        let taken = if r.flags() & MicroOp::F_BR_TAKEN != 0 {
            TAKEN
        } else {
            0
        };
        let index = self.template_index(r.template) | taken;
        self.ops.push(Entry {
            index,
            vaddr: r.vaddr,
        });
    }
}

/// A [`Tape`] played back as an [`OpSource`], from a position that
/// advances past what it feeds.
#[derive(Debug, Clone)]
pub struct TapeReader<'a> {
    tape: &'a Tape,
    pos: usize,
}

impl TapeReader<'_> {
    /// Ops fed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }
}

impl OpSource for TapeReader<'_> {
    fn feed<S: RetireSink>(&mut self, max: u64, sink: &mut S) -> u64 {
        let want = usize::try_from(max).unwrap_or(usize::MAX);
        let end = self.tape.len().min(self.pos.saturating_add(want));
        for i in self.pos..end {
            sink.retire(self.tape.retired(i));
        }
        let fed = end - self.pos;
        self.pos = end;
        fed as u64
    }

    fn tape(&self) -> Tape {
        Tape::with_templates(self.tape.templates.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::OpClass;

    fn op(serial: u64, pc: u32, class: OpClass, flags: u8, vaddr: u64) -> MicroOp {
        MicroOp {
            serial,
            vaddr,
            pc,
            class,
            flags,
            ..HOLE
        }
    }

    #[test]
    fn ops_at_one_pc_with_different_static_fields_keep_their_own_templates() {
        let ops = vec![
            op(7, 3, OpClass::Load, MicroOp::F_MEM, 0x40),
            op(
                8,
                3,
                OpClass::Store,
                MicroOp::F_MEM | MicroOp::F_STORE,
                0x48,
            ),
            op(9, 3, OpClass::Load, MicroOp::F_MEM, 0x50),
            op(10, u32::MAX, OpClass::IntAlu, 0, 0),
        ];
        let tape = Tape::from_ops(&ops).unwrap();
        assert_eq!(tape.to_ops(), ops);
    }

    #[test]
    fn the_taken_bit_rides_on_the_index() {
        let br = MicroOp::F_BRANCH | MicroOp::F_BR_COND;
        let ops = vec![
            op(0, 1, OpClass::Branch, br | MicroOp::F_BR_TAKEN, 0),
            op(1, 1, OpClass::Branch, br, 0),
        ];
        let tape = Tape::from_ops(&ops).unwrap();
        assert_eq!(tape.to_ops(), ops);
        assert!(tape.retired(0).taken && !tape.retired(1).taken);
        assert_eq!(
            tape.retired(0).template.flags,
            br,
            "templates hold no direction"
        );
    }

    #[test]
    fn skipped_serials_are_refused() {
        let ops = vec![
            op(0, 0, OpClass::IntAlu, 0, 0),
            op(2, 1, OpClass::IntAlu, 0, 0),
        ];
        assert_eq!(
            Tape::from_ops(&ops),
            Err(TapeError::SerialGap {
                at: 1,
                expected: Some(1),
                found: 2
            })
        );
        let wrap = vec![
            op(u64::MAX, 0, OpClass::IntAlu, 0, 0),
            op(0, 0, OpClass::IntAlu, 0, 0),
        ];
        assert!(Tape::from_ops(&wrap).is_err());
        assert_eq!(Tape::from_ops(&[]).map(|t| t.len()), Ok(0));
    }
}
