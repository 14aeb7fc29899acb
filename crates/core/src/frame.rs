//! Shared CRC-64 framing helpers.
//!
//! Every durable or wire format in this crate seals its bytes the same
//! way: a body, then the CRC-64/XZ of everything before it, little-endian.
//! The WAL frames (`crate::wal`), the `PLNRIDX2`/`PLNRSHD1` snapshot
//! sections (`crate::persist`), the `PLNRSHP1` replication messages
//! (`crate::replicate`), and the `PLNRQRY1` query-service protocol
//! (`planar-serve`) all share the helpers here instead of hand-rolling
//! the trailer arithmetic per format — one place to get the length
//! bounds and the checksum right.
//!
//! # The checksum kernel
//!
//! [`Crc64`] is the one implementation; [`crc64`], [`seal_vec`],
//! [`seal_buf`] and [`open_sealed`] are thin wrappers over it. It uses
//! *slicing-by-16*: sixteen 256-entry `u64` tables (32 KiB, built by a
//! `const fn` into a `static`, so there is no lazy init and no `unsafe`)
//! where table `k` holds the CRC contribution of a byte followed by `k`
//! zero bytes. Each step XORs the running CRC into the next 8 input bytes
//! and folds 16 bytes with 16 independent table lookups instead of eight
//! dependent shift-xor steps per byte: ≈ 2 GB/s against ≈ 130 MB/s for
//! the bit-at-a-time loop it replaces (66 KB buffer, 2-vCPU Xeon). Bytes
//! after the last full 16 go through table 0, one at a time. The output
//! is bit-identical to the bitwise definition (the unit tests keep that
//! loop as an oracle), so every file, WAL and peer sealed by the older
//! kernel still verifies.
//!
//! There is deliberately no carry-less-multiply (PCLMULQDQ) path: at this
//! speed a 66 KB served answer costs a few tens of µs of CRC, a few
//! percent of the request, and a runtime-dispatched second kernel would
//! not pay for its code and its separate test surface.

use bytes::BufMut;

/// Reflected ECMA-182 polynomial (CRC-64/XZ).
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slicing-by-16 lookup tables: `TABLES[0]` is the classic byte-at-a-time
/// table, and `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes.
static TABLES: [[u64; 256]; 16] = make_tables();

const fn make_tables() -> [[u64; 256]; 16] {
    let mut t = [[0u64; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Streaming CRC-64/XZ: feed bytes with [`Crc64::update`] in any split,
/// read the checksum with [`Crc64::finish`]. Feeding `a` then `b` gives
/// the same value as one [`crc64`] over `a ++ b`.
#[derive(Debug, Clone, Copy)]
pub struct Crc64 {
    state: u64,
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc64 {
    /// A checksum over zero bytes so far.
    pub const fn new() -> Self {
        Self { state: !0 }
    }

    /// Append `data` to the checksummed stream.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let (blocks, _) = data.as_chunks::<8>().0.as_chunks::<2>();
        for &[lo, hi] in blocks {
            let lo = (crc ^ u64::from_le_bytes(lo)).to_le_bytes();
            crc = 0;
            for i in 0..8 {
                crc ^= t[15 - i][lo[i] as usize] ^ t[7 - i][hi[i] as usize];
            }
        }
        for &byte in &data[blocks.len() * 16..] {
            crc = t[0][(crc as u8 ^ byte) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The CRC-64/XZ of every byte fed so far.
    pub const fn finish(&self) -> u64 {
        !self.state
    }
}

/// CRC-64/XZ (reflected ECMA-182) of `data` — the integrity checksum every
/// framed format in this workspace uses.
pub fn crc64(data: &[u8]) -> u64 {
    let mut crc = Crc64::new();
    crc.update(data);
    crc.finish()
}

/// Number of bytes a CRC-64 seal appends.
pub const CRC_LEN: usize = 8;

/// Seal a byte buffer in place: append the little-endian CRC-64 of its
/// current contents. The result round-trips through [`open_sealed`].
pub fn seal_vec(buf: &mut Vec<u8>) {
    let crc = crc64(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Seal a [`bytes::BytesMut`]-style builder in place (same trailer as
/// [`seal_vec`], for call sites that build with `BufMut`).
pub fn seal_buf<B: BufMut + AsRef<[u8]>>(buf: &mut B) {
    let crc = crc64(buf.as_ref());
    buf.put_u64_le(crc);
}

/// Verify a sealed region and return its body, or `None` when the region
/// is too short to hold a seal or its trailing CRC does not match the
/// body. The caller decides whether `None` means "torn tail", "corrupt
/// section", or "drop the message".
pub fn open_sealed(bytes: &[u8]) -> Option<&[u8]> {
    if bytes.len() < CRC_LEN {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - CRC_LEN);
    let stored = u64::from_le_bytes(tail.try_into().ok()?);
    (crc64(body) == stored).then_some(body)
}

/// Length-bounded end offset of a sealed region that starts at `start`
/// and carries `body_len` body bytes inside a buffer of `total` bytes:
/// `Some(end_of_seal)` only when `start + body_len + CRC_LEN` fits with
/// no overflow. A corrupted length field can therefore never index past
/// the buffer or wrap `usize`.
pub fn sealed_end(start: usize, body_len: usize, total: usize) -> Option<usize> {
    let end = start.checked_add(body_len)?.checked_add(CRC_LEN)?;
    (end <= total).then_some(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time definition the table kernel must reproduce.
    fn crc64_bitwise(data: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &byte in data {
            crc ^= byte as u64;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (xorshift), so the sweeps need
    /// no RNG plumbing.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn crc64_matches_known_vector() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64_bitwise(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn every_short_length_at_every_offset_matches_bitwise() {
        // All block/remainder splits and every alignment of the 16-byte
        // loop: lengths 0..=80 cover zero to five full blocks plus each
        // possible tail.
        let data = noise(96, 0x5eed);
        for start in 0..16 {
            for len in 0..=80 {
                let s = &data[start..start + len];
                assert_eq!(crc64(s), crc64_bitwise(s), "start {start} len {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn table_crc_equals_bitwise(len in 0..=4096usize, start in 0..16usize, seed in any::<u64>()) {
            let data = noise(start + len, seed);
            let s = &data[start..];
            prop_assert_eq!(crc64(s), crc64_bitwise(s), "start {} len {}", start, len);
        }

        #[test]
        fn streaming_any_split_equals_one_shot(
            len in 0..=2048usize,
            cuts in prop::collection::vec(0..=2048usize, 0..6),
            seed in any::<u64>(),
        ) {
            let data = noise(len, seed);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.sort_unstable();
            let mut crc = Crc64::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([len]) {
                crc.update(&data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(crc.finish(), crc64(&data));
        }
    }

    #[test]
    fn seal_then_open_round_trips() {
        let mut buf = b"planar".to_vec();
        seal_vec(&mut buf);
        assert_eq!(buf.len(), 6 + CRC_LEN);
        assert_eq!(open_sealed(&buf), Some(&b"planar"[..]));
    }

    #[test]
    fn seal_buf_matches_seal_vec() {
        let mut v = b"same bytes".to_vec();
        seal_vec(&mut v);
        let mut b = bytes::BytesMut::new();
        b.put_slice(b"same bytes");
        seal_buf(&mut b);
        assert_eq!(v.as_slice(), b.as_ref());
    }

    #[test]
    fn open_rejects_any_flip() {
        let mut buf = b"payload".to_vec();
        seal_vec(&mut buf);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(open_sealed(&bad).is_none(), "flip at {i} accepted");
        }
        assert!(open_sealed(&buf[..CRC_LEN - 1]).is_none(), "short buffer");
    }

    #[test]
    fn empty_body_seals() {
        let mut buf = Vec::new();
        seal_vec(&mut buf);
        assert_eq!(open_sealed(&buf), Some(&[][..]));
    }

    #[test]
    fn sealed_end_bounds() {
        assert_eq!(sealed_end(4, 10, 22), Some(22));
        assert_eq!(sealed_end(4, 10, 21), None, "one byte short");
        assert_eq!(sealed_end(usize::MAX, 1, usize::MAX), None, "overflow");
        assert_eq!(sealed_end(0, usize::MAX, usize::MAX), None, "overflow");
    }
}
