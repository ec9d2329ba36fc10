//! CRC64 (ECMA-182) — the transfer-integrity checksum.
//!
//! Real GPU links protect payloads end-to-end with a link-layer CRC;
//! the simulator's checked transfer paths
//! ([`crate::Device::try_htod_packed_checked`] /
//! [`crate::Device::try_dtoh_packed_checked`], of which the one-buffer
//! checked copies are the one-member case) model that net by computing
//! this checksum independently on both sides of every guarded copy — a
//! packed copy over the concatenation of its members. The
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
    let mut crc = !0u64;
    for &b in bytes {
        crc = TABLE[((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8);
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
    fn typed_view_agrees_with_byte_view() {
        let v = [1.0f64, -2.5, 3.25];
        let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(crc64_of(&v), crc64(&bytes));
        assert_eq!(crc64_of::<f64>(&[]), 0);
    }
}
