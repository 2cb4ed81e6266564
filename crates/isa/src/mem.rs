//! Sparse functional memory.
//!
//! Backs the executor with byte-addressable storage allocated lazily in
//! fixed 4 KiB chunks (a storage granule, independent of the simulated
//! virtual-memory page size). Unwritten memory reads as zero, like
//! demand-zero pages. An access that stays inside one chunk costs one
//! map lookup, and the executor's [`Memory::load`] and [`Memory::store`]
//! usually skip even that: a small direct-mapped memo remembers the slot
//! of each recently used chunk.

use std::collections::HashMap;

use hbat_core::addr::VirtAddr;
use hbat_core::hash::FastHashBuilder;

const CHUNK_BITS: u32 = 12;
const CHUNK_SIZE: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: u64 = CHUNK_SIZE as u64 - 1;

/// Entries of the chunk memo (a power of two). Each chunk key maps to
/// one entry (see [`memo_entry`]), so a program's stack, heap and
/// array walks rarely evict each other.
const MEMO_ENTRIES: usize = 32;
/// A memo key no chunk has (chunk keys are addresses shifted right by
/// [`CHUNK_BITS`]).
const NO_KEY: u64 = u64::MAX;
/// The memoised slot of a chunk that is not materialised.
const ABSENT: u32 = u32::MAX;

/// The memo entry of chunk `key`: its low bits folded with two higher
/// groups, so chunks a power-of-two stride apart (FFT butterflies, rows
/// of a 2-D array) do not all land on one entry.
#[inline(always)]
fn memo_entry(key: u64) -> usize {
    (key ^ (key >> 4) ^ (key >> 8)) as usize & (MEMO_ENTRIES - 1)
}

/// Sparse, zero-initialised functional memory.
///
/// # Examples
///
/// ```
/// use hbat_core::addr::VirtAddr;
/// use hbat_isa::mem::Memory;
///
/// let mut m = Memory::new();
/// m.write_u64(VirtAddr(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(VirtAddr(0x1000)), 0xdead_beef);
/// assert_eq!(m.read_u64(VirtAddr(0x8000)), 0); // untouched reads as zero
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    /// Chunk key (address >> [`CHUNK_BITS`]) to its slot in `chunks`.
    index: HashMap<u64, u32, FastHashBuilder>,
    /// The materialised chunks, in materialisation order.
    chunks: Vec<Box<[u8; CHUNK_SIZE]>>,
    /// `(chunk key, slot)` of recently probed chunks, one entry per low
    /// key bits; the slot is [`ABSENT`] for a chunk not materialised.
    /// Every path that materialises a chunk writes its entry, and
    /// [`Memory::clear`] empties the memo with the chunks, so an entry
    /// never goes stale.
    memo: [(u64, u32); MEMO_ENTRIES],
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            index: HashMap::default(),
            chunks: Vec::new(),
            memo: [(NO_KEY, ABSENT); MEMO_ENTRIES],
        }
    }
}

impl Memory {
    /// Creates empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Number of 4 KiB storage chunks materialised so far.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The chunk holding `addr`, if it is materialised.
    fn chunk(&self, addr: u64) -> Option<&[u8; CHUNK_SIZE]> {
        let slot = *self.index.get(&(addr >> CHUNK_BITS))?;
        self.chunks.get(slot as usize).map(|c| &**c)
    }

    /// The slot of chunk `key`, materialising it (zero-filled) if need
    /// be; a new chunk's memo entry records its slot.
    fn materialise(&mut self, key: u64) -> usize {
        let next = self.chunks.len();
        let slot = *self.index.entry(key).or_insert(next as u32) as usize;
        if slot == next {
            // hbat-lint: allow(hot-prop) a chunk is allocated once, by the first store into it
            self.chunks.push(Box::new([0; CHUNK_SIZE]));
            self.memo[memo_entry(key)] = (key, slot as u32);
        }
        slot
    }

    fn chunk_mut(&mut self, addr: u64) -> &mut [u8; CHUNK_SIZE] {
        let slot = self.materialise(addr >> CHUNK_BITS);
        // hbat-lint: allow(panic, panic-reach) materialise returns a slot of `chunks`
        &mut self.chunks[slot]
    }

    // hbat-lint: hot — the executor's loads and stores, one per memory op

    /// The memoised slot of chunk `key` ([`ABSENT`] if it is not
    /// materialised), probing the index only when the memo misses.
    #[inline(always)]
    fn memo_slot(&mut self, key: u64) -> u32 {
        let entry = &mut self.memo[memo_entry(key)];
        if entry.0 != key {
            *entry = (key, self.index.get(&key).copied().unwrap_or(ABSENT));
        }
        entry.1
    }

    /// Reads `N` bytes little-endian into a u64, as [`Memory::read_le`]
    /// does, through the chunk memo. Like every read it never
    /// materialises a chunk; an access that straddles a chunk boundary
    /// (or wraps at the top of the address space) takes `read_le`.
    #[inline(always)]
    pub fn load<const N: usize>(&mut self, addr: VirtAddr) -> u64 {
        const { assert!(N <= 8) };
        let off = (addr.0 & CHUNK_MASK) as usize;
        if off + N > CHUNK_SIZE {
            return self.read_le(addr, N as u64);
        }
        let slot = self.memo_slot(addr.0 >> CHUNK_BITS);
        let mut buf = [0u8; 8];
        if let Some(c) = self.chunks.get(slot as usize) {
            // hbat-lint: allow(panic, panic-reach) off + N <= CHUNK_SIZE and N <= 8, checked above
            buf[..N].copy_from_slice(&c[off..off + N]);
        }
        u64::from_le_bytes(buf)
    }

    /// Writes the low `N` bytes of `val` little-endian, as
    /// [`Memory::write_le`] does, through the chunk memo.
    #[inline(always)]
    pub fn store<const N: usize>(&mut self, addr: VirtAddr, val: u64) {
        const { assert!(N <= 8) };
        let off = (addr.0 & CHUNK_MASK) as usize;
        if off + N > CHUNK_SIZE {
            return self.write_le(addr, val, N as u64);
        }
        let key = addr.0 >> CHUNK_BITS;
        let mut slot = self.memo_slot(key) as usize;
        if slot == ABSENT as usize {
            slot = self.materialise(key);
        }
        if let Some(c) = self.chunks.get_mut(slot) {
            // hbat-lint: allow(panic, panic-reach) off + N <= CHUNK_SIZE and N <= 8, checked above
            c[off..off + N].copy_from_slice(&val.to_le_bytes()[..N]);
        }
    }

    // hbat-lint: cold

    /// Reads one byte.
    pub fn read_u8(&self, addr: VirtAddr) -> u8 {
        self.read_le(addr, 1) as u8
    }

    /// Reads `n` bytes little-endian into a u64; accesses may straddle
    /// chunk boundaries and wrap at the top of the address space. Never
    /// materialises a chunk.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    pub fn read_le(&self, addr: VirtAddr, n: u64) -> u64 {
        let (off, n) = ((addr.0 & CHUNK_MASK) as usize, n as usize);
        let mut buf = [0u8; 8];
        if off + n <= CHUNK_SIZE {
            if let Some(c) = self.chunk(addr.0) {
                buf[..n].copy_from_slice(&c[off..off + n]);
            }
        } else {
            for (i, b) in (0u64..).zip(&mut buf[..n]) {
                *b = self.read_u8(VirtAddr(addr.0.wrapping_add(i)));
            }
        }
        u64::from_le_bytes(buf)
    }

    /// Writes the low `n` bytes of `val` little-endian (one chunk lookup
    /// unless the access straddles a chunk boundary).
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    pub fn write_le(&mut self, addr: VirtAddr, val: u64, n: u64) {
        self.write_bytes(addr, &val.to_le_bytes()[..n as usize]);
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: VirtAddr) -> u64 {
        self.read_le(addr, 8)
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: VirtAddr, val: u64) {
        self.write_le(addr, val, 8)
    }

    /// Reads an f64 (bit pattern stored little-endian).
    pub fn read_f64(&self, addr: VirtAddr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an f64.
    pub fn write_f64(&mut self, addr: VirtAddr, val: f64) {
        self.write_u64(addr, val.to_bits())
    }

    /// Copies a byte slice into memory starting at `addr`, chunk by chunk.
    pub fn write_bytes(&mut self, addr: VirtAddr, mut bytes: &[u8]) {
        let mut a = addr.0;
        while !bytes.is_empty() {
            let off = (a & CHUNK_MASK) as usize;
            let (head, rest) = bytes.split_at(bytes.len().min(CHUNK_SIZE - off));
            // hbat-lint: allow(panic, panic-reach) head.len() <= CHUNK_SIZE - off by construction
            self.chunk_mut(a)[off..off + head.len()].copy_from_slice(head);
            a = a.wrapping_add(head.len() as u64);
            bytes = rest;
        }
    }

    /// The storage-chunk granule in bytes (checkpoint snapshots
    /// serialise memory as whole chunks of this size).
    pub const fn chunk_bytes() -> usize {
        CHUNK_SIZE
    }

    /// Every materialised chunk as `(base virtual address, bytes)`,
    /// sorted by base address — a deterministic export for snapshots
    /// regardless of hash-map iteration order.
    pub fn export_chunks(&self) -> Vec<(u64, &[u8])> {
        let mut out: Vec<(u64, &[u8])> = self
            .index // hbat-lint: allow(determinism) sorted by base address below
            .iter()
            .filter_map(|(&key, &slot)| {
                let data = self.chunks.get(slot as usize)?;
                Some((key << CHUNK_BITS, data.as_slice()))
            })
            .collect();
        out.sort_unstable_by_key(|&(base, _)| base);
        out
    }

    /// Installs one exported chunk at `base` (a chunk-aligned virtual
    /// address). Restoring writes whole chunks, so the materialised
    /// chunk set after a restore matches the exporting machine's
    /// exactly.
    ///
    /// Returns `Err` when `base` is not chunk-aligned or `bytes` is not
    /// exactly one chunk — a malformed snapshot, not a caller bug.
    pub fn import_chunk(&mut self, base: u64, bytes: &[u8]) -> Result<(), String> {
        if base & CHUNK_MASK != 0 {
            return Err(format!(
                "chunk base {base:#x} is not {CHUNK_SIZE}-byte aligned"
            ));
        }
        if bytes.len() != CHUNK_SIZE {
            return Err(format!(
                "chunk at {base:#x} has {} bytes (expected {CHUNK_SIZE})",
                bytes.len()
            ));
        }
        let chunk = self.chunk_mut(base);
        chunk.copy_from_slice(bytes);
        Ok(())
    }

    /// Drops every materialised chunk (restore replaces memory
    /// wholesale; the snapshot's chunk set is authoritative).
    pub fn clear(&mut self) {
        *self = Memory::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read_u8(VirtAddr(12345)), 0);
        assert_eq!(m.read_u64(VirtAddr(1 << 40)), 0);
        assert_eq!(m.chunk_count(), 0, "reads must not materialise chunks");
    }

    #[test]
    fn read_back_what_was_written() {
        let mut m = Memory::new();
        m.write_u64(VirtAddr(0x100), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(VirtAddr(0x100)), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u8(VirtAddr(0x100)), 0xef, "little endian");
        assert_eq!(m.read_u8(VirtAddr(0x107)), 0x01);
    }

    #[test]
    fn straddling_chunk_boundary() {
        let mut m = Memory::new();
        let addr = VirtAddr(0xffc); // last 4 bytes of chunk 0
        m.write_u64(addr, u64::MAX);
        assert_eq!(m.read_u64(addr), u64::MAX);
        assert_eq!(m.chunk_count(), 2);
    }

    #[test]
    fn partial_widths() {
        let mut m = Memory::new();
        m.write_le(VirtAddr(0), 0xAABBCCDD, 4);
        assert_eq!(m.read_le(VirtAddr(0), 4), 0xAABBCCDD);
        assert_eq!(m.read_le(VirtAddr(0), 2), 0xCCDD);
        m.write_le(VirtAddr(0), 0x11, 1);
        assert_eq!(m.read_le(VirtAddr(0), 4), 0xAABBCC11);
    }

    #[test]
    fn floats_round_trip() {
        let mut m = Memory::new();
        m.write_f64(VirtAddr(8), -1234.5678);
        assert_eq!(m.read_f64(VirtAddr(8)), -1234.5678);
    }

    #[test]
    fn chunk_export_import_round_trips() {
        let mut m = Memory::new();
        m.write_u64(VirtAddr(0x100), 0x1111);
        m.write_u64(VirtAddr(0x5000), 0x2222);
        m.write_le(VirtAddr(0xffc), 7, 1); // straddles nothing, chunk 0
        let exported: Vec<(u64, Vec<u8>)> = m
            .export_chunks()
            .into_iter()
            .map(|(b, s)| (b, s.to_vec()))
            .collect();
        assert_eq!(exported.len(), 2);
        assert!(exported.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        let mut r = Memory::new();
        for (base, bytes) in &exported {
            r.import_chunk(*base, bytes).unwrap();
        }
        assert_eq!(r.read_u64(VirtAddr(0x100)), 0x1111);
        assert_eq!(r.read_u64(VirtAddr(0x5000)), 0x2222);
        assert_eq!(r.read_u8(VirtAddr(0xffc)), 7);
        assert_eq!(r.chunk_count(), m.chunk_count());
        // Malformed imports are typed errors, not panics.
        assert!(r.import_chunk(0x10, &[0; 4096]).is_err(), "misaligned");
        assert!(r.import_chunk(0x1000, &[0; 64]).is_err(), "short chunk");
        r.clear();
        assert_eq!(r.chunk_count(), 0);
    }

    #[test]
    fn byte_slices() {
        let mut m = Memory::new();
        m.write_bytes(VirtAddr(0x10), b"hello");
        assert_eq!(m.read_u8(VirtAddr(0x10)), b'h');
        assert_eq!(m.read_u8(VirtAddr(0x14)), b'o');
    }
}
