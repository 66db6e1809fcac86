//! A small, pure-Rust SHA-256 (FIPS 180-4).
//!
//! The workspace builds with no registry access, so the chain digest is
//! implemented here rather than pulled in as a dependency. The drainer
//! runs one compression per persisted audit record, and `verify`,
//! recovery and query scans one per record they read, so the compression
//! function is the audit pipeline's hot loop. On x86-64 CPUs with the SHA
//! extensions (SHA-NI) it runs on those instructions; elsewhere it runs
//! the portable FIPS 180-4 rounds, which the unit tests also use as the
//! reference the hardware path must match digest for digest. The path is
//! chosen by CPU feature detection, never by an option. The hot check
//! path never hashes — it only writes a ring slot.

/// Digest length in bytes.
pub const DIGEST_LEN: usize = 32;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Which implementation of the compression function the chain digest
/// runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Engine {
    /// The portable FIPS 180-4 rounds.
    Portable,
    /// The x86 SHA extensions. Only [`Engine::detect`] makes this value,
    /// and only on a CPU that has them.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Engine {
    /// The fastest engine this CPU supports. Each feature test reads the
    /// standard library's cached CPUID result.
    fn detect() -> Engine {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1")
        {
            return Engine::ShaNi;
        }
        Engine::Portable
    }

    /// [`digest_with_iv`] on this engine.
    fn digest_with_iv(self, iv: &[u8; DIGEST_LEN], payload: &[u8]) -> [u8; DIGEST_LEN] {
        match self {
            Engine::Portable => merkle_damgard(iv, payload, compress_portable),
            // SAFETY: `shani::digest_with_iv` needs only the sha, sse2,
            // ssse3 and sse4.1 target features, and `Engine::ShaNi` exists
            // only when `Engine::detect` saw `is_x86_feature_detected!`
            // confirm sha, ssse3 and sse4.1 on this CPU (sse2 is part of
            // the x86-64 baseline).
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            Engine::ShaNi => unsafe { shani::digest_with_iv(iv, payload) },
        }
    }
}

/// An incremental SHA-256 hasher. It is on no hot path (the audit chain
/// uses [`digest_with_iv`]), so it runs the portable rounds, and the unit
/// tests use it as an independent reference for the one-shot digest.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total: u64,
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = data.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress_portable(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            compress_portable(&mut self.state, block.try_into().expect("64-byte split"));
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total.wrapping_mul(8);
        // One `0x80` byte, zeros to the next 56-mod-64 boundary, then
        // the length — issued as a single update (chain hashing runs
        // this on every entry, so byte-at-a-time padding would cost
        // more than the compression itself).
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let pad_len = if self.buf_len < 56 {
            56 - self.buf_len
        } else {
            120 - self.buf_len
        };
        self.update(&pad[..pad_len]);
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The compression function in portable code: the fallback on CPUs
/// without SHA-NI, and the reference the hardware path is tested against.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    // One round, with the working variables passed in rotated roles
    // rather than shuffled through eight assignments — the register
    // rotation repeats with period eight, so the chunk loop below
    // unrolls it without any data movement between rounds.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
         $k:expr, $w:expr) => {{
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let t1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add($k)
                .wrapping_add($w);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0).wrapping_add(maj);
        }};
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for chunk in 0..8 {
        let i = chunk * 8;
        round!(a, b, c, d, e, f, g, h, K[i], w[i]);
        round!(h, a, b, c, d, e, f, g, K[i + 1], w[i + 1]);
        round!(g, h, a, b, c, d, e, f, K[i + 2], w[i + 2]);
        round!(f, g, h, a, b, c, d, e, K[i + 3], w[i + 3]);
        round!(e, f, g, h, a, b, c, d, K[i + 4], w[i + 4]);
        round!(d, e, f, g, h, a, b, c, K[i + 5], w[i + 5]);
        round!(c, d, e, f, g, h, a, b, K[i + 6], w[i + 6]);
        round!(b, c, d, e, f, g, h, a, K[i + 7], w[i + 7]);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The compression function on the x86 SHA extensions.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::{DIGEST_LEN, K};
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_sha256msg1_epu32,
        _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// [`super::digest_with_iv`] with the compression function below
    /// inlined, so the state stays in registers from the IV to the digest.
    /// Calling it is `unsafe` on a CPU without these features.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn digest_with_iv(iv: &[u8; DIGEST_LEN], payload: &[u8]) -> [u8; DIGEST_LEN] {
        super::merkle_damgard(iv, payload, |state, block| compress(state, block))
    }

    /// Compresses one block into `state`, bit for bit as
    /// [`compress_portable`](super::compress_portable) does.
    ///
    /// The instructions hold the working variables in two vectors,
    /// `(a, b, e, f)` and `(c, d, g, h)` from the high lane down. Each
    /// `sha256rnds2` runs two rounds, and `sha256msg1`/`sha256msg2`
    /// extend the message schedule four words at a time. Only value
    /// intrinsics are used (no pointer loads), so the body needs no
    /// `unsafe`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let word = |i: usize| {
            i32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ])
        };
        let [a, b, c, d, e, f, g, h] = state.map(|v| v as i32);
        let abef_in = _mm_set_epi32(a, b, e, f);
        let cdgh_in = _mm_set_epi32(c, d, g, h);
        let (mut abef, mut cdgh) = (abef_in, cdgh_in);
        // The schedule's sliding window: w0 holds the next four words,
        // lowest-numbered word in lane 0.
        let mut w0 = _mm_set_epi32(word(3), word(2), word(1), word(0));
        let mut w1 = _mm_set_epi32(word(7), word(6), word(5), word(4));
        let mut w2 = _mm_set_epi32(word(11), word(10), word(9), word(8));
        let mut w3 = _mm_set_epi32(word(15), word(14), word(13), word(12));
        for (i, k) in K.chunks_exact(4).enumerate() {
            let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
            let wk = _mm_add_epi32(w0, k);
            // After two rounds the old (a, b, e, f) is the new (c, d, g, h).
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            if i < 12 {
                // W[t..t+4] for t = 4i + 16: σ0 of W[t-15..] (msg1),
                // plus W[t-7..] (alignr), plus σ1 of W[t-2..] (msg2).
                let next = _mm_sha256msg1_epu32(w0, w1);
                let next = _mm_add_epi32(next, _mm_alignr_epi8::<4>(w3, w2));
                let next = _mm_sha256msg2_epu32(next, w3);
                (w0, w1, w2, w3) = (w1, w2, w3, next);
            } else {
                (w0, w1, w2) = (w1, w2, w3);
            }
        }
        let abef = _mm_add_epi32(abef, abef_in);
        let cdgh = _mm_add_epi32(cdgh, cdgh_in);
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|v| v as u32);
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

/// One-shot digest of the concatenation of `parts`.
pub fn digest_parts(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    for part in parts {
        h.update(part);
    }
    h.finalize()
}

/// SHA-256 of `payload` with `iv` in place of the standard initial
/// hash value (FIPS 180-4 padding included).
///
/// This is the Merkle–Damgård iteration with a caller-supplied chaining
/// value: feeding the previous digest in as *state* instead of
/// prepending it to the *message* saves a compression — a payload of up
/// to 55 bytes pads into a single 64-byte block, where hashing
/// `prev || payload` always needs two. With `iv` set to the standard
/// initial value this is exactly SHA-256 (pinned by a unit test below).
pub fn digest_with_iv(iv: &[u8; DIGEST_LEN], payload: &[u8]) -> [u8; DIGEST_LEN] {
    Engine::detect().digest_with_iv(iv, payload)
}

/// The body of [`digest_with_iv`] over a given compression function.
/// Always inlined, so each engine's entry point compiles its own copy
/// with the compression function inlined too.
#[inline(always)]
fn merkle_damgard(
    iv: &[u8; DIGEST_LEN],
    payload: &[u8],
    mut compress: impl FnMut(&mut [u32; 8], &[u8; 64]),
) -> [u8; DIGEST_LEN] {
    let mut state = [0u32; 8];
    for (word, chunk) in state.iter_mut().zip(iv.chunks_exact(4)) {
        *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    // Padding is built straight into a stack block rather than going
    // through the incremental buffer: this runs once per chain entry,
    // so the buffering overhead would rival the compression itself.
    let mut chunks = payload.chunks_exact(64);
    for block in &mut chunks {
        compress(&mut state, block.try_into().expect("64-byte chunk"));
    }
    let tail = chunks.remainder();
    let mut block = [0u8; 64];
    block[..tail.len()].copy_from_slice(tail);
    block[tail.len()] = 0x80;
    let bit_len = (payload.len() as u64).wrapping_mul(8);
    if tail.len() < 56 {
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut state, &block);
    } else {
        compress(&mut state, &block);
        let mut last = [0u8; 64];
        last[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut state, &last);
    }
    let mut out = [0u8; DIGEST_LEN];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180-4 / NIST example vectors.
    const FIPS: [(&[u8], &str); 3] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];

    const MILLION_A: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";

    /// The standard initial hash value as an IV.
    fn h0() -> [u8; DIGEST_LEN] {
        let mut iv = [0u8; DIGEST_LEN];
        for (chunk, word) in iv.chunks_exact_mut(4).zip(H0) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        iv
    }

    /// The hardware engine, or `None` (saying so) on a CPU without it.
    fn hardware(test: &str) -> Option<Engine> {
        let engine = Engine::detect();
        if engine == Engine::Portable {
            println!("{test}: no SHA-NI on this CPU; skipped the hardware path");
            return None;
        }
        println!("{test}: ran the {engine:?} path");
        Some(engine)
    }

    /// The portable engine, and the hardware one when this CPU has it.
    fn engines(test: &str) -> Vec<Engine> {
        std::iter::once(Engine::Portable)
            .chain(hardware(test))
            .collect()
    }

    #[test]
    fn fips_vectors_on_each_path() {
        for engine in engines("fips_vectors_on_each_path") {
            for (msg, want) in FIPS {
                assert_eq!(hex(&engine.digest_with_iv(&h0(), msg)), want, "{engine:?}");
            }
        }
        for (msg, want) in FIPS {
            assert_eq!(hex(&digest_parts(&[msg])), want);
        }
    }

    #[test]
    fn million_a_on_each_path() {
        let msg = vec![b'a'; 1_000_000];
        for engine in engines("million_a_on_each_path") {
            assert_eq!(
                hex(&engine.digest_with_iv(&h0(), &msg)),
                MILLION_A,
                "{engine:?}"
            );
        }
        let mut h = Sha256::new();
        for chunk in msg.chunks(1000) {
            h.update(chunk);
        }
        assert_eq!(hex(&h.finalize()), MILLION_A);
    }

    #[test]
    fn hardware_path_matches_the_portable_one() {
        let Some(hw) = hardware("hardware_path_matches_the_portable_one") else {
            return;
        };
        // SplitMix64: a fixed seed, so a failing case replays.
        let mut seed = 0x0005_eed5_a256_u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut iv = [0u8; DIGEST_LEN];
        let mut payload = Vec::with_capacity(200);
        for case in 0..10_000 {
            iv.iter_mut().for_each(|b| *b = next() as u8);
            payload.clear();
            payload.extend((0..next() % 201).map(|_| next() as u8));
            assert_eq!(
                hw.digest_with_iv(&iv, &payload),
                Engine::Portable.digest_with_iv(&iv, &payload),
                "case {case}: {} bytes",
                payload.len()
            );
        }
    }

    #[test]
    fn custom_iv_with_standard_h0_is_plain_sha256() {
        let h0 = h0();
        let data: Vec<u8> = (0..255u8).cycle().take(200).collect();
        for len in [0usize, 3, 40, 55, 56, 63, 64, 65, 119, 120, 128, 200] {
            let msg = &data[..len];
            assert_eq!(digest_with_iv(&h0, msg), digest_parts(&[msg]), "len {len}");
        }
    }

    #[test]
    fn split_updates_match_one_shot() {
        let data: Vec<u8> = (0..255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), digest_parts(&[&data]), "split at {split}");
        }
    }
}
