//! The seeded 64-bit mixer every deterministic stream in the workspace
//! draws from: Poisson arrival schedules, connection churn coins, crash
//! kill points and scrambled key ranks.
//!
//! It is splitmix64, written out here rather than taken from an RNG
//! crate so the streams stay bit-identical across platforms and
//! releases: a seed in a saved report reproduces the run exactly.

/// One splitmix64 step: advances `state` and returns the next output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from the top 53 bits of a splitmix64 step.
#[inline]
pub fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pinned() {
        let mut state = 42;
        let first: Vec<u64> = (0..4).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(
            first,
            [
                0xBDD7_3226_2FEB_6E95,
                0x28EF_E333_B266_F103,
                0x4752_6757_130F_9F52,
                0x581C_E1FF_0E4A_E394,
            ]
        );
        let mut state = 42;
        assert_eq!(
            unit_f64(&mut state),
            (first[0] >> 11) as f64 / (1u64 << 53) as f64
        );
        // A zero seed still mixes: the first output is the golden-ratio
        // increment, finalized.
        assert_eq!(splitmix64(&mut 0), 0xE220_A839_7B1D_CDAF);
    }
}
