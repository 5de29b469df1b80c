//! Seeded workload inputs.
//!
//! The default seed reproduces the `popt_graph::suite` inputs exactly, so
//! default-seed statistics match the committed figures. Any other seed
//! draws fresh graphs from the same generator families at the same sizes.

use popt_graph::generators::{self, RmatParams};
use popt_graph::suite::{suite_graph, SuiteGraph, SuiteScale};
use popt_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The workload seed that reproduces the suite inputs.
pub const DEFAULT_SEED: u64 = 0;

/// Base seed of `popt_graph::suite` (its private `SUITE_SEED`).
const SUITE_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: a bijection on `u64` with `mix(0) == 0`, so the
/// default seed keeps the suite's base seed unchanged.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One standard-scale suite input for the given workload seed.
pub fn standard_graph(which: SuiteGraph, seed: u64) -> Graph {
    if seed == DEFAULT_SEED {
        return suite_graph(which, SuiteScale::Standard);
    }
    generate_standard(which, SUITE_SEED ^ mix(seed))
}

/// The standard-scale generator table of `popt_graph::suite`, driven by an
/// arbitrary base seed. With `base == SUITE_SEED` it returns the suite
/// graphs (checked by a test).
fn generate_standard(which: SuiteGraph, base: u64) -> Graph {
    let seed = base ^ (which as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
    match which {
        SuiteGraph::Dbp => generators::rmat(17, 983_040, RmatParams::POWER_LAW, seed),
        SuiteGraph::Uk02 => generators::community(131_072, 2_097_152, 512, 0.95, seed),
        SuiteGraph::Kron => generators::rmat(18, 1_048_576, RmatParams::KRONECKER, seed),
        SuiteGraph::Urand => generators::uniform_random(262_144, 1_048_576, seed),
        SuiteGraph::Hbubl => partial_shuffle(generators::mesh(408, 0, seed), 0.3, seed),
    }
}

/// The suite's partial vertex shuffle for the mesh stand-in. Its casts
/// mirror `popt_graph::suite` exactly, so the same seed draws the same
/// swaps (checked by a test).
#[allow(clippy::cast_possible_truncation)]
fn partial_shuffle(g: Graph, fraction: f64, seed: u64) -> Graph {
    let n = g.num_vertices();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x07f1_e552_u64);
    let mut perm: Vec<u32> = (0..n)
        .map(|v| u32::try_from(v).expect("suite graphs have fewer than 2^32 vertices"))
        .collect();
    let swaps = (n as f64 * fraction / 2.0) as usize;
    for _ in 0..swaps {
        let a = rng.gen_range(0..n as u64) as usize;
        let b = rng.gen_range(0..n as u64) as usize;
        perm.swap(a, b);
    }
    g.relabel(&perm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_table_reproduces_the_suite_at_its_base_seed() {
        for which in SuiteGraph::ALL {
            assert!(
                generate_standard(which, SUITE_SEED) == suite_graph(which, SuiteScale::Standard),
                "{which} differs from the suite input"
            );
        }
    }

    #[test]
    fn other_seeds_keep_sizes_but_change_edges() {
        for which in [SuiteGraph::Urand, SuiteGraph::Hbubl] {
            let suite = standard_graph(which, DEFAULT_SEED);
            let other = standard_graph(which, 7);
            assert_eq!(suite.num_vertices(), other.num_vertices());
            assert!(suite != other, "{which}: seed 7 must draw a new graph");
        }
    }
}
