//! Offline stand-in for the [`rand_chacha`](https://crates.io/crates/rand_chacha) crate providing [`ChaCha8Rng`].
//!
//! The ChaCha8 block function itself is the real Bernstein construction
//! (8 rounds, 64-byte blocks, 64-bit block counter): the all-zero key gives
//! the published ChaCha8 keystream, which a unit test pins. The word-level
//! output order is not guaranteed to match upstream `rand_chacha` bit for
//! bit. Determinism in this workspace is internal only: the same seed always
//! produces the same stream, and every seeded input depends on it.

#![deny(unreachable_pub)]

use rand::{RngCore, SeedableRng};

/// A ChaCha random number generator with 8 rounds.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    /// Input block: constants, 8 key words, 64-bit counter, 2 nonce words.
    input: [u32; 16],
    /// Current keystream block.
    block: [u32; 16],
    /// Next unread word in `block`; 16 means "exhausted".
    index: usize,
}

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut working = self.input;
        for _ in 0..4 {
            // One double round = column round + diagonal round.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (out, (&mixed, &original)) in self
            .block
            .iter_mut()
            .zip(working.iter().zip(self.input.iter()))
        {
            *out = mixed.wrapping_add(original);
        }
        // 64-bit block counter in words 12..14.
        let counter = (self.input[12] as u64 | (self.input[13] as u64) << 32).wrapping_add(1);
        self.input[12] = counter as u32;
        self.input[13] = (counter >> 32) as u32;
        self.index = 0;
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let word = self.block[self.index];
        self.index += 1;
        word
    }

    fn next_u64(&mut self) -> u64 {
        // The trait's order, high word first, read in one step while both
        // words are in the current block.
        if self.index < 15 {
            let word = (self.block[self.index] as u64) << 32 | self.block[self.index + 1] as u64;
            self.index += 2;
            word
        } else {
            (self.next_u32() as u64) << 32 | self.next_u32() as u64
        }
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut input = [0u32; 16];
        input[..4].copy_from_slice(&SIGMA);
        for i in 0..8 {
            input[4 + i] = u32::from_le_bytes(seed[4 * i..4 * i + 4].try_into().unwrap());
        }
        // Counter and nonce start at zero.
        ChaCha8Rng {
            input,
            block: [0; 16],
            index: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(
            same < 4,
            "streams should be uncorrelated, {same} collisions"
        );
    }

    #[test]
    fn produces_reasonable_floats() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mean: f64 = (0..10_000).map(|_| rng.gen::<f64>()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn the_all_zero_key_gives_the_published_chacha8_keystream() {
        // As little-endian bytes: 3e00ef2f 895f40d6 … 387bfdb8 0e0cfe42, the
        // ChaCha8 test vector for the all-zero key and nonce.
        let mut rng = ChaCha8Rng::from_seed([0; 32]);
        let words: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        assert_eq!(
            words,
            [
                0x2fef003e, 0xd6405f89, 0xe8b85b7f, 0xa1a5091f, 0xc30e842c, 0x3b7f9ace, 0x88e11b18,
                0x1e1a71ef, 0x72e14c98, 0x416f21b9, 0x6753449f, 0x19566d45, 0xa3424a31, 0x01b086da,
                0xb8fd7b38, 0x42fe0c0e,
            ]
        );
    }

    #[test]
    fn the_block_counter_carries_from_word_12_into_word_13() {
        let block = |rng: &mut ChaCha8Rng| (0..16).map(|_| rng.next_u32()).collect::<Vec<_>>();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        rng.input[12] = u32::MAX;
        block(&mut rng);
        assert_eq!((rng.input[12], rng.input[13]), (0, 1));
        let mut reference = ChaCha8Rng::seed_from_u64(5);
        reference.input[13] = 1;
        assert_eq!(block(&mut rng), block(&mut reference));
    }

    #[test]
    fn next_u64_is_two_words_high_first_at_every_offset() {
        for skip in 0..16 {
            let mut words = ChaCha8Rng::seed_from_u64(3);
            let mut pairs = words.clone();
            for _ in 0..skip {
                words.next_u32();
                pairs.next_u32();
            }
            for _ in 0..40 {
                let (hi, lo) = (words.next_u32(), words.next_u32());
                assert_eq!(
                    pairs.next_u64(),
                    (hi as u64) << 32 | lo as u64,
                    "skip {skip}"
                );
            }
        }
    }

    #[test]
    fn counter_advances_across_blocks() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let first_block: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        let second_block: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        assert_ne!(first_block, second_block);
    }
}
