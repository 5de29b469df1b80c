//! Named, rebuildable policy constructors for the differential harness.
//!
//! The harness reruns a policy from scratch many times — on the original
//! case, on shrunk candidates, on metamorphic transforms — so instead of a
//! policy *instance* it works with a named *builder* plus the two trait
//! facts the metamorphic checks need:
//!
//! * `online` — decisions depend only on the past. Online policies obey
//!   prefix closure (rerunning a prefix reproduces the full run's first
//!   outcomes); `Belady` looks ahead and is exempt.
//! * `set_symmetric` — behavior is invariant under relabeling set indices.
//!   Policies with set-indexed asymmetries (DRRIP leader sets, Hawkeye and
//!   SDBP set sampling, SHiP-Mem and GRASP line-value dependence) are
//!   exempt from the set-permutation check.

use crate::case::TraceCase;
use popt_core::{
    Encoding, NextRefIndex, Popt, PoptConfig, Quantization, RerefMatrix, StreamBinding, Topt,
};
use popt_graph::Graph;
use popt_kernels::App;
use popt_sim::policies::{Belady, Grasp, GraspRegions};
use popt_sim::{PolicyKind, ReplacementPolicy};
use std::sync::Arc;

type Builder = Box<dyn Fn(&TraceCase) -> Box<dyn ReplacementPolicy>>;

/// A named policy constructor plus its metamorphic eligibility.
pub struct NamedPolicy {
    /// Display name (matches the policy's own `name()` where applicable).
    pub name: String,
    /// Decisions depend only on past accesses.
    pub online: bool,
    /// Behavior is invariant under set-index relabeling.
    pub set_symmetric: bool,
    build: Builder,
}

impl std::fmt::Debug for NamedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NamedPolicy")
            .field("name", &self.name)
            .field("online", &self.online)
            .field("set_symmetric", &self.set_symmetric)
            .finish()
    }
}

impl NamedPolicy {
    /// Wraps one of the geometry-only zoo policies.
    pub fn kind(kind: PolicyKind) -> Self {
        // DRRIP duels via leader *set indices*; Hawkeye and SDBP sample by
        // set index; SHiP-Mem signatures are line values, which a set
        // permutation rewrites. Everything else treats sets uniformly
        // (BRRIP's bimodal counter is global and fills keep their order).
        let set_symmetric = matches!(
            kind,
            PolicyKind::Lru
                | PolicyKind::BitPlru
                | PolicyKind::Random
                | PolicyKind::Srrip
                | PolicyKind::Brrip
                | PolicyKind::ShipPc
                | PolicyKind::Leeway
        );
        NamedPolicy {
            name: kind.label().to_string(),
            online: true,
            set_symmetric,
            build: Box::new(move |case| kind.build(case.sets, case.ways)),
        }
    }

    /// The two-pass Belady oracle, rebuilt from each case's line stream.
    pub fn belady() -> Self {
        NamedPolicy {
            name: "OPT".to_string(),
            online: false,
            set_symmetric: true,
            build: Box::new(|case| {
                Box::new(Belady::from_trace(case.sets, case.ways, &case.lines()))
            }),
        }
    }

    /// GRASP with region boundaries derived from the case's line universe:
    /// the lowest third of the touched range is "hot", the middle third
    /// "warm" — a stand-in for a degree-ordered vertex array.
    pub fn grasp() -> Self {
        NamedPolicy {
            name: "GRASP".to_string(),
            online: true,
            // Region boundaries are line values; permutation moves lines
            // across them.
            set_symmetric: false,
            build: Box::new(|case| {
                let lines = case.lines();
                let lo = lines.iter().copied().min().unwrap_or(0);
                let hi = lines.iter().copied().max().unwrap_or(0) + 1;
                let span = hi - lo;
                let regions = GraspRegions::new(lo, lo + span / 3, lo + 2 * span / 3);
                Box::new(Grasp::new(case.sets, case.ways, regions))
            }),
        }
    }

    /// Wraps an arbitrary constructor (used for graph-aware policies whose
    /// inputs — T-OPT's next-reference index, Rereference Matrices — live
    /// outside the case).
    pub fn custom(
        name: &str,
        online: bool,
        set_symmetric: bool,
        build: impl Fn(&TraceCase) -> Box<dyn ReplacementPolicy> + 'static,
    ) -> Self {
        NamedPolicy {
            name: name.to_string(),
            online,
            set_symmetric,
            build: Box::new(build),
        }
    }

    /// Instantiates the policy for `case`.
    pub fn build(&self, case: &TraceCase) -> Box<dyn ReplacementPolicy> {
        (self.build)(case)
    }

    /// The full geometry-only zoo plus the Belady policy and GRASP —
    /// everything constructible without a graph.
    pub fn zoo() -> Vec<NamedPolicy> {
        let mut all: Vec<NamedPolicy> = PolicyKind::ALL.iter().map(|&k| Self::kind(k)).collect();
        all.push(Self::belady());
        all.push(Self::grasp());
        all
    }
}

/// T-OPT and P-OPT configured for one traced kernel run over `g`,
/// mirroring the CLI runner's construction path: T-OPT's next-reference
/// index and the per-stream Rereference Matrices (paper-default 8-bit
/// inter+intra entries) are built once from the borrowed transpose and
/// shared across rebuilds via `Arc`.
///
/// Both are online (their lookahead comes from graph structure plus the
/// software control events in the trace, never from future accesses) but
/// not set-symmetric (their decisions depend on line values).
pub fn graph_aware_policies(app: App, g: &Graph) -> Vec<NamedPolicy> {
    let plan = app.plan(g);
    let transpose = g.transpose_of(app.direction());
    let index = Arc::new(NextRefIndex::build(transpose, &plan.irregular_streams()));
    let topt = NamedPolicy::custom("T-OPT", true, false, move |case| {
        Box::new(Topt::new(Arc::clone(&index), case.sets, case.ways))
    });
    let bindings: Vec<StreamBinding> = plan
        .irregs
        .iter()
        .map(|spec| {
            let region = plan.space.region(spec.region);
            let matrix = RerefMatrix::build(
                transpose,
                u32::try_from(region.elems_per_line()).expect("elems_per_line fits u32"),
                spec.vertices_per_elem,
                Quantization::EIGHT,
                Encoding::InterIntra,
            );
            StreamBinding {
                base: region.base(),
                bound: region.bound(),
                matrix: Arc::new(matrix),
            }
        })
        .collect();
    let popt = NamedPolicy::custom("P-OPT", true, false, move |case| {
        Box::new(Popt::new(
            PoptConfig::new(bindings.clone()),
            case.sets,
            case.ways,
        ))
    });
    vec![topt, popt]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_covers_every_kind_plus_oracles() {
        let zoo = NamedPolicy::zoo();
        assert_eq!(zoo.len(), PolicyKind::ALL.len() + 2);
        let case = TraceCase::from_lines("t", 2, 2, &[0, 1, 2, 3]);
        for p in &zoo {
            assert!(!p.build(&case).name().is_empty(), "{}", p.name);
        }
        let opt = zoo.iter().find(|p| p.name == "OPT").unwrap();
        assert!(!opt.online, "Belady looks ahead");
    }
}
