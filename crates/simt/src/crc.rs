//! CRC64 (ECMA-182) — the transfer-integrity checksum.
//!
//! Real GPU links protect payloads end-to-end with a link-layer CRC;
//! the simulator's checked transfer paths
//! ([`crate::Device::try_htod_packed_checked`] /
//! [`crate::Device::try_dtoh_packed_checked`], of which the one-buffer
//! checked copies are the one-member case) model that net by computing
//! this checksum independently on both sides of every guarded copy — a
//! packed copy over the concatenation of its members, streamed member by
//! member ([`crc64_parts`]) so no side builds the concatenation. The
//! implementation is the bit-reflected ECMA-182 polynomial (the `xz`
//! CRC-64 variant) over a compile-time 256-entry table — no external
//! crates, deterministic everywhere.

/// Bit-reflected ECMA-182 generator polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// The 256-entry lookup table, built at compile time.
const TABLE: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC64/XZ of a byte slice (init and final XOR are all-ones).
pub fn crc64(bytes: &[u8]) -> u64 {
    crc64_parts([bytes])
}

/// CRC64/XZ of the concatenation of `parts`, streamed part by part: equal
/// to [`crc64`] of the concatenated bytes without building them.
pub fn crc64_parts<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut crc = !0u64;
    for part in parts {
        for &b in part {
            crc = TABLE[((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
    }
    !crc
}

/// CRC64 of a plain-old-data slice, viewed as raw bytes.
pub fn crc64_of<T: crate::DeviceCopy>(data: &[T]) -> u64 {
    crc64(crate::buffer::pod_bytes(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_check_value() {
        // The canonical CRC-64/XZ check: "123456789" -> 0x995DC9BBDF1939FA.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn empty_input_and_identity_properties() {
        assert_eq!(crc64(b""), 0);
        assert_eq!(crc64(b"a"), crc64(b"a"));
        assert_ne!(crc64(b"a"), crc64(b"b"));
    }

    #[test]
    fn single_bit_flips_always_change_the_checksum() {
        let base: Vec<u8> = (0..64u8).collect();
        let want = crc64(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut tampered = base.clone();
                tampered[byte] ^= 1 << bit;
                assert_ne!(crc64(&tampered), want, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn parts_over_random_splits_equal_the_concatenation() {
        // A splitmix64 stream picks the bytes and the cut points.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..200 {
            let len = (next() % 300) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let cut = |x: u64| x as usize % (len + 1);
            let mut cuts: Vec<usize> = (0..next() % 6).map(|_| cut(next())).collect();
            cuts.extend([0, len]);
            cuts.sort_unstable();
            let parts: Vec<&[u8]> = cuts.windows(2).map(|w| &bytes[w[0]..w[1]]).collect();
            assert_eq!(crc64_parts(parts), crc64(&bytes), "cuts {cuts:?} of {len} bytes");
        }
        assert_eq!(crc64_parts(std::iter::empty()), crc64(b""));
    }

    #[test]
    fn typed_view_agrees_with_byte_view() {
        let v = [1.0f64, -2.5, 3.25];
        let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(crc64_of(&v), crc64(&bytes));
        assert_eq!(crc64_of::<f64>(&[]), 0);
    }
}
