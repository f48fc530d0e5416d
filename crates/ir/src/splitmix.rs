//! SplitMix64 — the workspace's one seeded hash / PRNG step.
//!
//! Deterministic input values, the simulator's page shuffle, fault
//! schedules, retry jitter and ring placement all need a cheap,
//! full-avalanche mix of one word; they share this definition (Steele,
//! Lea and Flood's SplitMix64 with Stafford's "Mix13" finaliser).

/// The SplitMix64 state increment (the golden-ratio gamma).
pub(crate) const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 output for state `x`: advance by the golden-ratio
/// gamma, then [`mix64`].
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(GAMMA))
}

/// SplitMix64's finaliser: a bijective full-avalanche mix of one word.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_stream() {
        // The first outputs of the reference SplitMix64 generator seeded
        // with 0 (state advanced by GAMMA before each output).
        let mut state = 0u64;
        let mut next = || {
            let out = splitmix64(state);
            state = state.wrapping_add(GAMMA);
            out
        };
        assert_eq!(next(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(next(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(next(), 0x06C4_5D18_8009_454F);
    }
}
