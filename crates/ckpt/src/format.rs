//! The snapshot wire format: versioned, length-prefixed, checksummed.
//!
//! ```text
//! offset 0   magic      "HBATCKP1"
//! offset 8   version    u32 LE (currently 2)
//! offset 12  total_len  u64 LE — whole file, checksum included
//! offset 20  body       identity + tagged sections (below)
//! len-8      checksum   u64 LE — FNV-1a-64 over bytes[0 .. len-8]
//! ```
//!
//! The body is the snapshot identity (benchmark name, configuration
//! fingerprint, instruction index) followed by a section count and the
//! sections themselves, each `tag[4] + u64 length + payload`, in a fixed
//! order for version 2: `REGS` (architectural registers), `MEM.`
//! (functional memory chunks, ascending), `WPGS`/`WTLB`/`STLB`/`WDBK`/
//! `WIBK`/`WSTM`/`BPRD` (the exact warm accumulator), and `MSHR`
//! (in-flight miss count — always zero: snapshots are taken at functional
//! quiesce points only, and a nonzero count is rejected as
//! [`CkptError::NonQuiescent`]).
//!
//! `STLB` is the random-replacement TLB model: its splitmix64 counter,
//! then its resident VPNs in slot order. Version 1 lacked it, so a
//! restore had to re-seed the model and diverged from a cold run on any
//! program that touched more pages than the model holds. Version-1 files
//! are rejected as [`CkptError::UnsupportedVersion`]; the store then
//! falls back to a cold start.
//!
//! Decoding is hardened the way `read_trace` was: every read is
//! bounds-checked (truncation at any byte is a typed error, never a
//! panic), element counts are validated against section lengths before
//! any allocation, preallocation is capped, and trailing bytes after the
//! checksum are rejected.

use hbat_core::designs::BASE_TLB_ENTRIES;
use hbat_cpu::WarmExport;
use hbat_isa::executor::ArchState;
use hbat_isa::mem::Memory;

/// Current snapshot format version.
pub const CKPT_VERSION: u32 = 2;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"HBATCKP1";

/// Upper bound on speculative `Vec` preallocation while decoding.
const MAX_PREALLOC: usize = 1 << 16;

/// Longest accepted benchmark-name or fingerprint string.
const MAX_IDENT: usize = 256;

/// Section order for version 2.
const SECTION_TAGS: [[u8; 4]; 10] = [
    *b"REGS", *b"MEM.", *b"WPGS", *b"WTLB", *b"STLB", *b"WDBK", *b"WIBK", *b"WSTM", *b"BPRD",
    *b"MSHR",
];

/// Everything a resumed run needs: identity, architectural state,
/// functional memory, and the exact warm-state accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Benchmark name this snapshot belongs to.
    pub bench: String,
    /// Configuration fingerprint (ties the snapshot to one experiment
    /// setup, fast-forward boundary included).
    pub fingerprint: String,
    /// Committed-instruction index the snapshot was taken at.
    pub index: u64,
    /// Architectural registers and program position.
    pub arch: ArchState,
    /// Functional memory as `(base address, chunk bytes)`, ascending.
    pub mem_chunks: Vec<(u64, Vec<u8>)>,
    /// Exact warm-accumulator state.
    pub warm: WarmExport,
}

/// Why a snapshot was rejected (or could not be produced).
#[derive(Debug)]
pub enum CkptError {
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The format version is one this build does not read.
    UnsupportedVersion(u32),
    /// The buffer ends before the structure does.
    Truncated {
        /// Byte offset at which the read ran out.
        at: usize,
    },
    /// The header's total length disagrees with the structure.
    LengthMismatch {
        /// Length the header claims.
        header: u64,
        /// Length actually present or consumed.
        actual: u64,
    },
    /// Bytes follow the checksum trailer.
    TrailingBytes {
        /// How many extra bytes.
        extra: usize,
    },
    /// The FNV-1a trailer does not match the contents.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the contents.
        computed: u64,
    },
    /// Structurally invalid contents (bad counts, misordered chunks…).
    Malformed(String),
    /// The snapshot belongs to a different configuration.
    FingerprintMismatch {
        /// Fingerprint the restorer expected.
        expected: String,
        /// Fingerprint found in the snapshot.
        found: String,
    },
    /// The snapshot belongs to a different benchmark.
    BenchMismatch {
        /// Benchmark the restorer expected.
        expected: String,
        /// Benchmark found in the snapshot.
        found: String,
    },
    /// The snapshot claims in-flight microarchitectural state; snapshots
    /// are only taken at functional quiesce points.
    NonQuiescent,
    /// Fast-forward was cancelled before reaching its target.
    Cancelled,
    /// An I/O error while reading or writing a snapshot.
    Io(std::io::Error),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads {CKPT_VERSION})"
                )
            }
            CkptError::Truncated { at } => write!(f, "checkpoint truncated at byte {at}"),
            CkptError::LengthMismatch { header, actual } => {
                write!(
                    f,
                    "checkpoint length mismatch: header says {header}, found {actual}"
                )
            }
            CkptError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after checkpoint checksum")
            }
            CkptError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            CkptError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
            CkptError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {found} does not match configuration {expected}"
            ),
            CkptError::BenchMismatch { expected, found } => {
                write!(f, "checkpoint is for benchmark {found}, not {expected}")
            }
            CkptError::NonQuiescent => {
                write!(f, "checkpoint claims in-flight state (not a quiesce point)")
            }
            CkptError::Cancelled => write!(f, "fast-forward cancelled"),
            CkptError::Io(e) => write!(f, "checkpoint i/o: {e}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// FNV-1a-64 over a byte slice — the trailer checksum. Public so tests
/// (and fault injectors) can craft snapshots with *valid* checksums but
/// altered fields, proving the typed checks beyond the checksum fire.
pub fn checksum_of(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---- encoding ------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_pairs(out: &mut Vec<u8>, pairs: &[(u64, u64)]) {
    put_u64(out, pairs.len() as u64);
    for (k, s) in pairs {
        put_u64(out, *k);
        put_u64(out, *s);
    }
}

fn put_section(out: &mut Vec<u8>, tag: [u8; 4], payload: &[u8]) {
    out.extend_from_slice(&tag);
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

impl Snapshot {
    /// Serialises the snapshot: header, identity, sections, checksum.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark name or fingerprint exceeds 256 bytes, or
    /// if a memory chunk is not exactly one functional-memory chunk —
    /// producer-side invariants, not input conditions.
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.bench.len() <= MAX_IDENT, "bench name too long");
        assert!(self.fingerprint.len() <= MAX_IDENT, "fingerprint too long");

        let mut out =
            Vec::with_capacity(1024 + self.mem_chunks.len() * (8 + Memory::chunk_bytes()));
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, CKPT_VERSION);
        let len_at = out.len();
        put_u64(&mut out, 0); // total_len backpatched below

        put_str(&mut out, &self.bench);
        put_str(&mut out, &self.fingerprint);
        put_u64(&mut out, self.index);
        put_u32(&mut out, SECTION_TAGS.len() as u32);

        let mut sec = Vec::new();

        // REGS
        for r in &self.arch.iregs {
            put_u64(&mut sec, *r as u64);
        }
        for b in &self.arch.freg_bits {
            put_u64(&mut sec, *b);
        }
        put_u32(&mut sec, self.arch.pc);
        put_u64(&mut sec, self.arch.serial);
        sec.push(u8::from(self.arch.halted));
        put_section(&mut out, SECTION_TAGS[0], &sec);
        sec.clear();

        // MEM.
        put_u64(&mut sec, self.mem_chunks.len() as u64);
        for (base, bytes) in &self.mem_chunks {
            assert_eq!(bytes.len(), Memory::chunk_bytes(), "chunk size invariant");
            put_u64(&mut sec, *base);
            sec.extend_from_slice(bytes);
        }
        put_section(&mut out, SECTION_TAGS[1], &sec);
        sec.clear();

        // WPGS
        put_u64(&mut sec, self.warm.pages.len() as u64);
        for p in &self.warm.pages {
            put_u64(&mut sec, *p);
        }
        put_section(&mut out, SECTION_TAGS[2], &sec);
        sec.clear();

        // WTLB / STLB / WDBK / WIBK
        put_pairs(&mut sec, &self.warm.tlb);
        put_section(&mut out, SECTION_TAGS[3], &sec);
        sec.clear();

        put_u64(&mut sec, self.warm.steady_rng);
        put_u64(&mut sec, self.warm.steady.len() as u64);
        for vpn in &self.warm.steady {
            put_u64(&mut sec, *vpn);
        }
        put_section(&mut out, SECTION_TAGS[4], &sec);
        sec.clear();

        for (tag, pairs) in [
            (SECTION_TAGS[5], &self.warm.dblocks),
            (SECTION_TAGS[6], &self.warm.iblocks),
        ] {
            put_pairs(&mut sec, pairs);
            put_section(&mut out, tag, &sec);
            sec.clear();
        }

        // WSTM
        put_u64(&mut sec, self.warm.stamp);
        put_section(&mut out, SECTION_TAGS[7], &sec);
        sec.clear();

        // BPRD
        put_u32(&mut sec, self.warm.ghr);
        put_u64(&mut sec, self.warm.pht.len() as u64);
        sec.extend_from_slice(&self.warm.pht);
        put_section(&mut out, SECTION_TAGS[8], &sec);
        sec.clear();

        // MSHR — always zero in-flight entries at a quiesce point.
        put_u64(&mut sec, 0);
        put_section(&mut out, SECTION_TAGS[9], &sec);

        let total = (out.len() + 8) as u64;
        out[len_at..len_at + 8].copy_from_slice(&total.to_le_bytes());
        let sum = checksum_of(&out);
        put_u64(&mut out, sum);
        out
    }

    /// Decodes and integrity-checks a snapshot. Identity (bench and
    /// fingerprint) is *not* checked here — use
    /// [`verify_identity`](Snapshot::verify_identity) — so inspection
    /// tools can read any valid snapshot.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, CkptError> {
        // Header: magic, version, total length.
        if bytes.len() < 20 {
            return Err(CkptError::Truncated { at: bytes.len() });
        }
        if bytes[..8] != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        if version != CKPT_VERSION {
            return Err(CkptError::UnsupportedVersion(version));
        }
        let total = u64::from_le_bytes([
            bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
        ]);
        let actual = bytes.len() as u64;
        if total < 28 {
            // Can't even hold header + checksum: a corrupt length field.
            return Err(CkptError::LengthMismatch {
                header: total,
                actual,
            });
        }
        if actual < total {
            return Err(CkptError::Truncated { at: bytes.len() });
        }
        if actual > total {
            return Err(CkptError::TrailingBytes {
                extra: (actual - total) as usize,
            });
        }

        // Checksum trailer over everything before it.
        let body_end = bytes.len() - 8;
        let stored = u64::from_le_bytes(
            // hbat-lint: allow(panic-reach) body_end >= 20 was established above
            bytes[body_end..].try_into().expect("8-byte trailer"),
        );
        let computed = checksum_of(&bytes[..body_end]);
        if stored != computed {
            return Err(CkptError::ChecksumMismatch { stored, computed });
        }

        let mut cur = Cur {
            b: &bytes[..body_end],
            pos: 20,
        };
        let bench = cur.ident("bench")?;
        let fingerprint = cur.ident("fingerprint")?;
        let index = cur.u64()?;
        let nsections = cur.u32()? as usize;
        if nsections != SECTION_TAGS.len() {
            return Err(CkptError::Malformed(format!(
                "version-{CKPT_VERSION} snapshots have {} sections, found {nsections}",
                SECTION_TAGS.len()
            )));
        }

        let mut snap = Snapshot {
            bench,
            fingerprint,
            index,
            arch: ArchState {
                iregs: [0; 32],
                freg_bits: [0; 32],
                pc: 0,
                serial: 0,
                halted: false,
            },
            mem_chunks: Vec::new(),
            warm: WarmExport::default(),
        };

        for tag in SECTION_TAGS {
            let found: [u8; 4] = cur.take(4)?.try_into().unwrap_or([0; 4]);
            if found != tag {
                return Err(CkptError::Malformed(format!(
                    "expected section {:?}, found {:?}",
                    String::from_utf8_lossy(&tag),
                    String::from_utf8_lossy(&found)
                )));
            }
            let len = cur.u64()? as usize;
            let start = cur.pos;
            let payload = cur.take(len)?;
            let mut s = Cur { b: payload, pos: 0 };
            match &tag {
                b"REGS" => {
                    for r in &mut snap.arch.iregs {
                        *r = s.u64()? as i64;
                    }
                    for b in &mut snap.arch.freg_bits {
                        *b = s.u64()?;
                    }
                    snap.arch.pc = s.u32()?;
                    snap.arch.serial = s.u64()?;
                    snap.arch.halted = match s.take(1)?[0] {
                        0 => false,
                        1 => true,
                        v => return Err(CkptError::Malformed(format!("bad halted flag {v}"))),
                    };
                }
                b"MEM." => {
                    let count = s.count(8 + Memory::chunk_bytes())?;
                    snap.mem_chunks = Vec::with_capacity(count.min(MAX_PREALLOC));
                    let mut prev: Option<u64> = None;
                    for _ in 0..count {
                        let base = s.u64()?;
                        if prev.is_some_and(|p| base <= p) {
                            return Err(CkptError::Malformed(
                                "memory chunks out of order".to_owned(),
                            ));
                        }
                        prev = Some(base);
                        let data = s.take(Memory::chunk_bytes())?.to_vec();
                        snap.mem_chunks.push((base, data));
                    }
                }
                b"WPGS" => {
                    let count = s.count(8)?;
                    snap.warm.pages = Vec::with_capacity(count.min(MAX_PREALLOC));
                    for _ in 0..count {
                        snap.warm.pages.push(s.u64()?);
                    }
                }
                b"WTLB" | b"WDBK" | b"WIBK" => {
                    let count = s.count(16)?;
                    let mut pairs = Vec::with_capacity(count.min(MAX_PREALLOC));
                    for _ in 0..count {
                        let k = s.u64()?;
                        let st = s.u64()?;
                        pairs.push((k, st));
                    }
                    match &tag {
                        b"WTLB" => snap.warm.tlb = pairs,
                        b"WDBK" => snap.warm.dblocks = pairs,
                        _ => snap.warm.iblocks = pairs,
                    }
                }
                b"STLB" => {
                    snap.warm.steady_rng = s.u64()?;
                    let count = s.count(8)?;
                    if count > BASE_TLB_ENTRIES {
                        return Err(CkptError::Malformed(format!(
                            "TLB model holds {count} entries, more than {BASE_TLB_ENTRIES}"
                        )));
                    }
                    for _ in 0..count {
                        let vpn = s.u64()?;
                        if snap.warm.steady.contains(&vpn) {
                            return Err(CkptError::Malformed(format!(
                                "TLB model holds VPN {vpn:#x} twice"
                            )));
                        }
                        snap.warm.steady.push(vpn);
                    }
                }
                b"WSTM" => {
                    snap.warm.stamp = s.u64()?;
                }
                b"BPRD" => {
                    snap.warm.ghr = s.u32()?;
                    let count = s.count(1)?;
                    snap.warm.pht = s.take(count)?.to_vec();
                }
                b"MSHR" => {
                    if s.u64()? != 0 {
                        return Err(CkptError::NonQuiescent);
                    }
                }
                _ => unreachable!("tag list is fixed"),
            }
            if s.pos != payload.len() {
                return Err(CkptError::Malformed(format!(
                    "section {:?} has {} unconsumed byte(s)",
                    String::from_utf8_lossy(&tag),
                    payload.len() - s.pos
                )));
            }
            debug_assert_eq!(cur.pos, start + len);
        }

        if cur.pos != body_end {
            return Err(CkptError::LengthMismatch {
                header: total,
                actual: (cur.pos + 8) as u64,
            });
        }
        Ok(snap)
    }

    /// Checks the snapshot belongs to `(bench, fingerprint)`.
    pub fn verify_identity(&self, bench: &str, fingerprint: &str) -> Result<(), CkptError> {
        if self.bench != bench {
            return Err(CkptError::BenchMismatch {
                expected: bench.to_owned(),
                found: self.bench.clone(),
            });
        }
        if self.fingerprint != fingerprint {
            return Err(CkptError::FingerprintMismatch {
                expected: fingerprint.to_owned(),
                found: self.fingerprint.clone(),
            });
        }
        Ok(())
    }
}

// ---- decoding cursor -----------------------------------------------------

struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(CkptError::Malformed("length overflow".to_owned()))?;
        if end > self.b.len() {
            return Err(CkptError::Truncated { at: self.b.len() });
        }
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CkptError> {
        // hbat-lint: allow(panic-reach) take(4) returned exactly 4 bytes
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        // hbat-lint: allow(panic-reach) take(8) returned exactly 8 bytes
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a leading u64 element count and validates it against the
    /// *exact* remaining payload (`count * elem_size` bytes must follow),
    /// so a hostile count can never drive allocation past the data that
    /// actually exists.
    fn count(&mut self, elem_size: usize) -> Result<usize, CkptError> {
        let declared = self.u64()?;
        let remaining = self.b.len() - self.pos;
        let need = (declared as u128) * (elem_size as u128);
        if need != remaining as u128 {
            return Err(CkptError::Malformed(format!(
                "element count {declared} x {elem_size} B != {remaining} B remaining"
            )));
        }
        Ok(declared as usize)
    }

    fn ident(&mut self, what: &str) -> Result<String, CkptError> {
        let len = self.u32()? as usize;
        if len > MAX_IDENT {
            return Err(CkptError::Malformed(format!(
                "{what} length {len} > {MAX_IDENT}"
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CkptError::Malformed(format!("{what} is not UTF-8")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> Snapshot {
        Snapshot {
            bench: "Compress".to_owned(),
            fingerprint: "a1b2c3d4e5f60718".to_owned(),
            index: 10_000,
            arch: ArchState {
                iregs: std::array::from_fn(|i| i as i64 * -3),
                freg_bits: std::array::from_fn(|i| (i as u64) << 40 | 0x7ff8_0000_0000_0001),
                pc: 42,
                serial: 10_000,
                halted: false,
            },
            mem_chunks: vec![
                (0x1000, vec![0xAB; Memory::chunk_bytes()]),
                (
                    0x5000,
                    (0..Memory::chunk_bytes()).map(|i| i as u8).collect(),
                ),
            ],
            warm: WarmExport {
                pages: vec![1, 5, 2],
                tlb: vec![(5, 10), (1, 11), (2, 12)],
                steady: vec![2, 5, 1],
                steady_rng: 0x5EAD_71B0_5EAD_71B0,
                dblocks: vec![(0x1000, 3), (0x5020, 13)],
                iblocks: vec![(0, 0), (64, 7)],
                stamp: 14,
                ghr: 0xA5,
                pht: vec![2; 4096],
            },
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample();
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
        back.verify_identity("Compress", "a1b2c3d4e5f60718")
            .unwrap();
        assert!(matches!(
            back.verify_identity("Gcc", "a1b2c3d4e5f60718"),
            Err(CkptError::BenchMismatch { .. })
        ));
        assert!(matches!(
            back.verify_identity("Compress", "ffff"),
            Err(CkptError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Snapshot {
            bench: String::new(),
            fingerprint: String::new(),
            index: 0,
            arch: ArchState {
                iregs: [0; 32],
                freg_bits: [0; 32],
                pc: 0,
                serial: 0,
                halted: true,
            },
            mem_chunks: Vec::new(),
            warm: WarmExport::default(),
        };
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(Snapshot::decode(&bytes), Err(CkptError::BadMagic)));

        let mut bytes = sample().encode();
        bytes[8] = 9; // version field
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CkptError::UnsupportedVersion(9))
        ));
    }

    /// Re-signs `bytes` so only the deliberately altered field is wrong.
    fn resign(bytes: &mut [u8]) {
        let body_end = bytes.len() - 8;
        let sum = checksum_of(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn version_patch_with_valid_checksum_is_still_rejected() {
        // A checksum-valid file with another version must fail the
        // version check, not the checksum check: prove the version gate
        // is independent of integrity. Version 1 (no TLB-model section)
        // is rejected like any future version.
        for v in [1u8, 3] {
            let mut bytes = sample().encode();
            bytes[8] = v;
            resign(&mut bytes);
            assert!(matches!(
                Snapshot::decode(&bytes),
                Err(CkptError::UnsupportedVersion(got)) if got == u32::from(v)
            ));
        }
    }

    #[test]
    fn oversized_or_duplicate_tlb_model_is_malformed() {
        let mut over = sample();
        over.warm.steady = (0..=BASE_TLB_ENTRIES as u64).collect();
        let mut dup = sample();
        dup.warm.steady = vec![2, 5, 2];
        for (snap, what) in [(over, "oversized"), (dup, "duplicate")] {
            let r = Snapshot::decode(&snap.encode());
            assert!(matches!(r, Err(CkptError::Malformed(_))), "{what}: {r:?}");
        }
        let mut full = sample();
        full.warm.steady = (0..BASE_TLB_ENTRIES as u64).collect();
        assert_eq!(Snapshot::decode(&full.encode()).unwrap(), full);
    }

    #[test]
    fn any_flipped_bit_is_detected() {
        let bytes = sample().encode();
        // Walk a spread of offsets (every byte would be slow): each flip
        // must produce an error, never a panic, never a silent success.
        for i in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
            for bit in [0, 3, 7] {
                let mut c = bytes.clone();
                c[i] ^= 1 << bit;
                assert!(
                    Snapshot::decode(&c).is_err(),
                    "flip at byte {i} bit {bit} must be detected"
                );
            }
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed() {
        let bytes = sample().encode();
        for cut in [0, 7, 19, 20, 100, bytes.len() - 1] {
            assert!(
                matches!(
                    Snapshot::decode(&bytes[..cut]),
                    Err(CkptError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            Snapshot::decode(&extended),
            Err(CkptError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn nonquiescent_mshr_is_rejected() {
        // Craft a snapshot whose MSHR count is nonzero, checksum valid.
        let bytes = sample().encode();
        let mshr_payload_at = bytes.len() - 8 - 8; // count sits just before the trailer
        let mut c = bytes.clone();
        c[mshr_payload_at] = 3;
        resign(&mut c);
        assert!(matches!(Snapshot::decode(&c), Err(CkptError::NonQuiescent)));
    }

    #[test]
    fn hostile_counts_cannot_drive_allocation() {
        // A huge WPGS count with no data behind it must error on the
        // count check (Malformed), never allocate terabytes.
        let snap = sample();
        let mut bytes = snap.encode();
        // Find the WPGS tag and sabotage its count.
        let pos = bytes
            .windows(4)
            .position(|w| w == b"WPGS")
            .expect("WPGS present");
        let count_at = pos + 4 + 8; // tag + section len
        bytes[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        resign(&mut bytes);
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CkptError::Malformed(_))
        ));
    }

    #[test]
    fn errors_display_distinctly() {
        let msgs = [
            CkptError::BadMagic.to_string(),
            CkptError::UnsupportedVersion(7).to_string(),
            CkptError::Truncated { at: 3 }.to_string(),
            CkptError::LengthMismatch {
                header: 1,
                actual: 2,
            }
            .to_string(),
            CkptError::TrailingBytes { extra: 4 }.to_string(),
            CkptError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            }
            .to_string(),
            CkptError::Malformed("x".into()).to_string(),
            CkptError::FingerprintMismatch {
                expected: "a".into(),
                found: "b".into(),
            }
            .to_string(),
            CkptError::BenchMismatch {
                expected: "a".into(),
                found: "b".into(),
            }
            .to_string(),
            CkptError::NonQuiescent.to_string(),
            CkptError::Cancelled.to_string(),
        ];
        for (i, a) in msgs.iter().enumerate() {
            for b in &msgs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
