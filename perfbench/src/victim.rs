//! Seeded victims: each attack's secrets, fault seed and freshly built
//! board come from the benchmark seed alone.

use std::time::Instant;

use bitstream::Bitstream;
use fpga_sim::{ImplementOptions, Snow3gBoard};
use netlist::snow3g_circuit::Snow3gCircuitConfig;
use snow3g::{Iv, Key};

/// One victim's secrets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Secrets {
    /// The cipher key the attack must recover.
    pub key: Key,
    /// The IV loaded next to it.
    pub iv: Iv,
}

/// SplitMix64: a fixed, dependency-free generator, so a seed names
/// the same victims on every build.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The secrets of victim `index` under benchmark seed `seed`.
#[must_use]
pub fn secrets(seed: u64, index: usize) -> Secrets {
    let mut state = seed ^ (index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut word = || splitmix(&mut state) as u32;
    let key = Key([word(), word(), word(), word()]);
    let iv = Iv([word(), word(), word(), word()]);
    Secrets { key, iv }
}

/// Where a run's victims come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Secrets drawn from the benchmark seed (the default).
    Seeded,
    /// Every victim is the ETSI Test Set 1 board of the paper's
    /// experiment.
    TestSet1,
}

/// The secrets of victim `index` under `seed`, from `source`.
#[must_use]
pub fn secrets_from(source: Source, seed: u64, index: usize) -> Secrets {
    match source {
        Source::Seeded => secrets(seed, index),
        Source::TestSet1 => {
            Secrets { key: snow3g::vectors::TEST_SET_1_KEY, iv: snow3g::vectors::TEST_SET_1_IV }
        }
    }
}

/// A built victim: its board and the golden bitstream extracted from
/// it.
pub struct Victim {
    /// The secrets it was built from.
    pub secrets: Secrets,
    /// The board (taken out while a noisy attack wraps it).
    pub board: Option<Snow3gBoard>,
    /// The golden bitstream as the attacker extracts it.
    pub golden: Bitstream,
    /// Seconds the build and extraction took.
    pub build_s: f64,
}

/// Builds victim `index` of `seed` from `source`: circuit, technology
/// mapping, placement, bitstream, then golden extraction.
///
/// # Errors
///
/// The implementation flow's error, rendered.
pub fn build(source: Source, seed: u64, index: usize) -> Result<Victim, String> {
    let secrets = secrets_from(source, seed, index);
    let t0 = Instant::now();
    let config = Snow3gCircuitConfig::unprotected(secrets.key, secrets.iv);
    let board = Snow3gBoard::build(config, &ImplementOptions::default())
        .map_err(|e| format!("victim {index} does not build: {e}"))?;
    let golden = board.extract_bitstream();
    let build_s = t0.elapsed().as_secs_f64();
    Ok(Victim { secrets, board: Some(board), golden, build_s })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_names_the_same_victims() {
        assert_eq!(secrets(7, 0), secrets(7, 0));
        assert_eq!(secrets(7, 3), secrets(7, 3));
        assert_ne!(secrets(7, 0), secrets(7, 1));
        assert_ne!(secrets(7, 0), secrets(8, 0));
        assert_ne!(secrets(7, 0).key, snow3g::vectors::TEST_SET_1_KEY);
        assert_eq!(secrets_from(Source::Seeded, 7, 3), secrets(7, 3));
        assert_eq!(secrets_from(Source::TestSet1, 7, 3).key, snow3g::vectors::TEST_SET_1_KEY);
    }

    #[test]
    fn a_built_victim_carries_its_secrets() {
        let v = build(Source::Seeded, 11, 2).expect("builds");
        assert_eq!(v.secrets, secrets(11, 2));
        let board = v.board.as_ref().expect("board");
        assert_eq!(v.golden.as_bytes(), board.extract_bitstream().as_bytes());
    }
}
