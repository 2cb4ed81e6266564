//! Sparse functional memory.
//!
//! Backs the executor with byte-addressable storage allocated lazily in
//! fixed 4 KiB chunks (a storage granule, independent of the simulated
//! virtual-memory page size). Unwritten memory reads as zero, like
//! demand-zero pages. An access that stays inside one chunk costs one
//! map lookup.

use std::collections::HashMap;

use hbat_core::addr::VirtAddr;
use hbat_core::hash::FastHashBuilder;

const CHUNK_BITS: u32 = 12;
const CHUNK_SIZE: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: u64 = CHUNK_SIZE as u64 - 1;

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
#[derive(Debug, Clone, Default)]
pub struct Memory {
    chunks: HashMap<u64, Box<[u8; CHUNK_SIZE]>, FastHashBuilder>,
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

    fn chunk_mut(&mut self, addr: u64) -> &mut [u8; CHUNK_SIZE] {
        self.chunks
            .entry(addr >> CHUNK_BITS)
            .or_insert_with(|| Box::new([0; CHUNK_SIZE]))
    }

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
            if let Some(c) = self.chunks.get(&(addr.0 >> CHUNK_BITS)) {
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
            .chunks // hbat-lint: allow(determinism) sorted by base address below
            .iter()
            .map(|(&key, data)| (key << CHUNK_BITS, data.as_slice()))
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
        self.chunks.clear();
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
