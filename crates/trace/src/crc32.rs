//! CRC32 (IEEE 802.3 polynomial), table-driven, dependency-free.
//!
//! Guards v2 trace chunks and analyzer checkpoint files. Uses the
//! slice-by-16 technique — sixteen compile-time tables, sixteen input bytes
//! per step — because the analyze hot loop checksums every chunk of the
//! trace, so CRC throughput is on the decode critical path. The slice-by-8
//! step is kept behind `update8` as the differential reference for the
//! wider kernel.

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[t][b] = CRC of byte b followed by t zero bytes, so sixteen
    // lookups — one per input byte, at staggered distances from the end —
    // combine into one table-driven step over sixteen bytes.
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// Incremental CRC32 state.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh checksum.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feeds bytes into the checksum, sixteen bytes per table step.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let mut chunks = bytes.chunks_exact(16);
        for chunk in &mut chunks {
            let a = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
            let b = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            let c = u32::from_le_bytes([chunk[8], chunk[9], chunk[10], chunk[11]]);
            let d = u32::from_le_bytes([chunk[12], chunk[13], chunk[14], chunk[15]]);
            state = TABLES[15][(a & 0xff) as usize]
                ^ TABLES[14][((a >> 8) & 0xff) as usize]
                ^ TABLES[13][((a >> 16) & 0xff) as usize]
                ^ TABLES[12][(a >> 24) as usize]
                ^ TABLES[11][(b & 0xff) as usize]
                ^ TABLES[10][((b >> 8) & 0xff) as usize]
                ^ TABLES[9][((b >> 16) & 0xff) as usize]
                ^ TABLES[8][(b >> 24) as usize]
                ^ TABLES[7][(c & 0xff) as usize]
                ^ TABLES[6][((c >> 8) & 0xff) as usize]
                ^ TABLES[5][((c >> 16) & 0xff) as usize]
                ^ TABLES[4][(c >> 24) as usize]
                ^ TABLES[3][(d & 0xff) as usize]
                ^ TABLES[2][((d >> 8) & 0xff) as usize]
                ^ TABLES[1][((d >> 16) & 0xff) as usize]
                ^ TABLES[0][(d >> 24) as usize];
        }
        for &b in chunks.remainder() {
            let index = ((state ^ u32::from(b)) & 0xff) as usize;
            state = (state >> 8) ^ TABLES[0][index];
        }
        self.state = state;
    }

    /// Slice-by-8 variant of [`Crc32::update`]: the previous production
    /// kernel, retained as the differential reference for slice-by-16.
    pub fn update8(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            state = TABLES[7][(lo & 0xff) as usize]
                ^ TABLES[6][((lo >> 8) & 0xff) as usize]
                ^ TABLES[5][((lo >> 16) & 0xff) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xff) as usize]
                ^ TABLES[2][((hi >> 8) & 0xff) as usize]
                ^ TABLES[1][((hi >> 16) & 0xff) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            let index = ((state ^ u32::from(b)) & 0xff) as usize;
            state = (state >> 8) ^ TABLES[0][index];
        }
        self.state = state;
    }

    /// The checksum over everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"chunked trace payload bytes";
        let mut crc = Crc32::new();
        crc.update(&data[..7]);
        crc.update(&data[7..]);
        assert_eq!(crc.finish(), crc32(data));
    }

    /// Bit-at-a-time reference implementation, no tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut state = !0u32;
        for &b in bytes {
            state ^= u32::from(b);
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    (state >> 1) ^ 0xedb8_8320
                } else {
                    state >> 1
                };
            }
        }
        !state
    }

    /// One-shot CRC through the retained slice-by-8 kernel.
    fn crc32_by8(bytes: &[u8]) -> u32 {
        let mut crc = Crc32::new();
        crc.update8(bytes);
        crc.finish()
    }

    #[test]
    fn slice_by_16_matches_the_bitwise_reference_at_every_length() {
        let data: Vec<u8> = (0..521u32)
            .map(|i| (i.wrapping_mul(37) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
        // Odd split points exercise the remainder path mid-stream.
        for split in [1usize, 3, 7, 8, 9, 15, 16, 17, 31, 100] {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), crc32(&data));
        }
    }

    #[test]
    fn slice_by_16_matches_slice_by_8_at_every_length() {
        let data: Vec<u8> = (0..521u32)
            .map(|i| (i.wrapping_mul(131) >> 2) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), crc32_by8(&data[..len]), "len {len}");
        }
        // Mixing kernels mid-stream must also agree: the state space is
        // shared, only the stride differs.
        for split in [1usize, 5, 8, 13, 16, 23, 64] {
            let mut crc = Crc32::new();
            crc.update8(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), crc32(&data), "split {split}");
        }
    }

    #[test]
    fn slice_by_8_matches_the_bitwise_reference_at_every_length() {
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(37) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(
                crc32_by8(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data: Vec<u8> = (0..=255u8).collect();
        let reference = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut mutated = data.clone();
                mutated[byte] ^= 1 << bit;
                assert_ne!(crc32(&mutated), reference, "byte {byte} bit {bit}");
            }
        }
    }
}
