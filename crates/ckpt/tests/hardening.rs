//! Adversarial hardening of the snapshot reader: the decoder must
//! return a typed error — never panic, never silently succeed — for
//! *every* truncation offset, every header bit flip, and arbitrary
//! byte-level mutations. Deterministic exhaustive loops cover the
//! structured cases; the proptest sweep fires random shotgun corruption
//! at the rest.

use proptest::prelude::*;

use hbat_ckpt::format::{checksum_of, MAGIC};
use hbat_ckpt::{CkptError, Snapshot, CKPT_VERSION};
use hbat_cpu::WarmExport;
use hbat_isa::executor::ArchState;
use hbat_isa::mem::Memory;

fn sample() -> Snapshot {
    Snapshot {
        bench: "Compress".to_owned(),
        fingerprint: "0123456789abcdef".to_owned(),
        index: 123_456,
        arch: ArchState {
            iregs: std::array::from_fn(|i| (i as i64).wrapping_mul(-0x0123_4567_89ab)),
            freg_bits: std::array::from_fn(|i| (i as u64).rotate_left(i as u32 * 2) ^ 0xDEAD),
            pc: 77,
            serial: 123_456,
            halted: false,
        },
        mem_chunks: vec![
            (0x0000, vec![0x5A; Memory::chunk_bytes()]),
            (
                0x3000,
                (0..Memory::chunk_bytes()).map(|i| (i * 7) as u8).collect(),
            ),
            (0x9000, vec![0; Memory::chunk_bytes()]),
        ],
        warm: WarmExport {
            pages: vec![0, 3, 9],
            tlb: vec![(3, 100), (0, 101), (9, 102)],
            steady: vec![9, 0, 3],
            steady_rng: 0x0123_4567_89AB_CDEF,
            dblocks: vec![(0x3000, 50), (0x3040, 51)],
            iblocks: vec![(0, 1), (64, 2), (128, 3)],
            stamp: 103,
            ghr: 0x5A,
            pht: (0..4096).map(|i| (i % 4) as u8).collect(),
        },
    }
}

/// Every truncation length from empty to one-byte-short errors cleanly.
#[test]
fn every_truncation_offset_errors_cleanly() {
    let bytes = sample().encode();
    for cut in 0..bytes.len() {
        let r = Snapshot::decode(&bytes[..cut]);
        assert!(
            matches!(r, Err(CkptError::Truncated { .. })),
            "cut at {cut}/{}: got {r:?}",
            bytes.len()
        );
    }
}

/// Every bit of the 20-byte header, flipped, errors with the right type.
#[test]
fn every_header_bit_flip_errors_cleanly() {
    let bytes = sample().encode();
    for byte in 0..20 {
        for bit in 0..8 {
            let mut c = bytes.clone();
            c[byte] ^= 1 << bit;
            let r = Snapshot::decode(&c);
            match byte {
                0..=7 => assert!(
                    matches!(r, Err(CkptError::BadMagic)),
                    "magic byte {byte} bit {bit}: {r:?}"
                ),
                8..=11 => assert!(
                    matches!(r, Err(CkptError::UnsupportedVersion(_))),
                    "version byte {byte} bit {bit}: {r:?}"
                ),
                _ => assert!(
                    matches!(
                        r,
                        Err(CkptError::Truncated { .. }
                            | CkptError::TrailingBytes { .. }
                            | CkptError::LengthMismatch { .. })
                    ),
                    "length byte {byte} bit {bit}: {r:?}"
                ),
            }
        }
    }
}

/// Every single-bit flip in the body or trailer is caught by the
/// checksum (or a stricter structural check) — exhaustive over bytes,
/// sampled over bits.
#[test]
fn every_body_byte_flip_is_detected() {
    let bytes = sample().encode();
    for byte in 20..bytes.len() {
        let mut c = bytes.clone();
        c[byte] ^= 1 << (byte % 8);
        assert!(
            Snapshot::decode(&c).is_err(),
            "flip at body byte {byte} must not decode"
        );
    }
}

/// Trailing garbage after a valid snapshot is rejected, whatever it is.
#[test]
fn trailing_bytes_rejected_for_any_suffix() {
    let bytes = sample().encode();
    for extra in [1usize, 7, 8, 4096] {
        let mut c = bytes.clone();
        c.extend(std::iter::repeat_n(0xEE, extra));
        assert!(
            matches!(Snapshot::decode(&c), Err(CkptError::TrailingBytes { extra: e }) if e == extra),
            "suffix of {extra}"
        );
    }
}

/// A checksum-correct file whose section counts lie cannot drive
/// allocation: the count/length cross-check fires first.
#[test]
fn resigned_hostile_counts_stay_typed() {
    let bytes = sample().encode();
    // `STLB` leads with its RNG counter, so its count sits 8 bytes later.
    for (tag, skip) in [
        (*b"WPGS", 0),
        (*b"WTLB", 0),
        (*b"STLB", 8),
        (*b"WDBK", 0),
        (*b"WIBK", 0),
        (*b"MEM.", 0),
    ] {
        let pos = bytes
            .windows(4)
            .position(|w| w == tag)
            .expect("section tag present");
        for hostile in [u64::MAX, u64::MAX / 2, 1 << 60] {
            let mut c = bytes.clone();
            let count_at = pos + 4 + 8 + skip; // tag + section length
            c[count_at..count_at + 8].copy_from_slice(&hostile.to_le_bytes());
            // Re-sign so only the count is wrong.
            let body_end = c.len() - 8;
            let sum = checksum_of(&c[..body_end]);
            c[body_end..].copy_from_slice(&sum.to_le_bytes());
            assert!(
                matches!(Snapshot::decode(&c), Err(CkptError::Malformed(_))),
                "{:?} count {hostile}",
                String::from_utf8_lossy(&tag)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary multi-byte corruption anywhere in the file either fails
    /// with a typed error or (XOR with 0 everywhere) decodes to the
    /// original — it never panics and never yields altered state.
    #[test]
    fn shotgun_corruption_never_panics_or_lies(
        offset in 0usize..4096,
        len in 1usize..64,
        xor in any::<u8>(),
    ) {
        let original = sample();
        let bytes = original.encode();
        let mut c = bytes.clone();
        let start = offset % c.len();
        for i in start..(start + len).min(c.len()) {
            c[i] ^= xor;
        }
        // A typed rejection is the expected outcome; a clean decode must
        // be the untouched original.
        if let Ok(decoded) = Snapshot::decode(&c) {
            prop_assert_eq!(decoded, original);
        }
    }

    /// Random byte soup never panics the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(
        seed in any::<u64>(),
        len in 0usize..2048,
    ) {
        let mut state = seed | 1;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let _ = Snapshot::decode(&bytes);
        // Also with a valid magic+version prefix grafted on, so parsing
        // gets past the header into the structural checks.
        let mut grafted = MAGIC.to_vec();
        grafted.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        grafted.extend_from_slice(&bytes);
        let _ = Snapshot::decode(&grafted);
    }

    /// Truncating after re-signing still errors: integrity and length
    /// checks are independent layers.
    #[test]
    fn truncation_of_resigned_files_still_errors(cut_frac in 0usize..100) {
        let bytes = sample().encode();
        let cut = bytes.len() * cut_frac / 100;
        let mut c = bytes[..cut].to_vec();
        if c.len() > 28 {
            let body_end = c.len() - 8;
            let sum = checksum_of(&c[..body_end]);
            c[body_end..].copy_from_slice(&sum.to_le_bytes());
        }
        prop_assert!(Snapshot::decode(&c).is_err());
    }
}
