//! Experiment harness for the P-OPT reproduction.
//!
//! One module per paper table/figure (see `DESIGN.md` §5 for the index);
//! the `experiments` binary dispatches subcommands (`fig2`, `fig10`,
//! `table4`, `all`, …), prints aligned text tables and writes CSV files
//! into `results/`.
//!
//! The heart of the crate is [`runner::simulate`], which composes a
//! workload ([`popt_kernels::App`]), an input graph, a hierarchy
//! configuration and a [`runner::PolicySpec`] into a full trace-driven
//! simulation — including the P-OPT preprocessing, way reservation and
//! Belady's two-pass oracle where applicable.

pub mod exec;
pub mod experiments;
pub mod oracle_cmd;
pub mod runner;
pub mod sweep;
pub mod table;
pub mod trace_cmd;

/// Experiment scale: `Tiny` for CI smoke sweeps, `Small` for smoke tests /
/// CI, `Standard` for the numbers recorded in `EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny suite graphs (sub-second per figure; CI smoke sweeps).
    Tiny,
    /// Small suite graphs (seconds per figure).
    Small,
    /// Standard suite graphs (minutes for the full set).
    Standard,
}

impl Scale {
    /// Stable lower-case name, used in cell ids and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Standard => "standard",
        }
    }

    /// Parses a `--scale` argument value.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "standard" => Some(Scale::Standard),
            _ => None,
        }
    }

    /// The matching graph-suite scale.
    pub fn suite(&self) -> popt_graph::suite::SuiteScale {
        match self {
            Scale::Tiny => popt_graph::suite::SuiteScale::Tiny,
            Scale::Small => popt_graph::suite::SuiteScale::Small,
            Scale::Standard => popt_graph::suite::SuiteScale::Standard,
        }
    }

    /// The matching hierarchy configuration: the scaled Table I hierarchy
    /// for Standard graphs, and a miniature one for Small and Tiny graphs,
    /// keeping the irregular-footprint-to-LLC ratio in the paper's band
    /// either way.
    pub fn config(&self) -> popt_sim::HierarchyConfig {
        match self {
            Scale::Tiny | Scale::Small => popt_sim::HierarchyConfig::small_test(),
            Scale::Standard => popt_sim::HierarchyConfig::scaled_table1(),
        }
    }
}
