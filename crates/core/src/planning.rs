//! Communication-group (CG) planning (paper §3.1, Fig. 7).
//!
//! When logical groups split across PCBs, their per-batch intra-group
//! synchronizations contend for the shared board NICs. SoCFlow divides the
//! logical groups into communication groups such that groups inside one CG
//! never contend, then lets the (at most two) CGs take turns on the network
//! while the other CG computes — hiding synchronization behind compute.
//!
//! Theorem 2 of the integrity-greedy mapping guarantees the conflict graph
//! is a union of paths (each split group contends with ≤ 2 others), hence
//! bipartite, hence 2-colorable by a simple DFS — the general minimum graph
//! coloring being NP-hard (paper cites [Pardalos et al.]).

use crate::mapping::{integrity_greedy, GroupId, Mapping};
use crate::Breakdown;
use serde::{Deserialize, Serialize};
use socflow_cluster::{ClusterSpec, Seconds};

/// A division of logical groups into communication groups.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommunicationGroups {
    /// Logical groups of each CG. Non-conflicting (whole) logical groups
    /// all live in CG 0.
    pub cgs: Vec<Vec<GroupId>>,
}

impl CommunicationGroups {
    /// Number of CGs (1 or 2 for integrity-greedy mappings).
    pub fn len(&self) -> usize {
        self.cgs.len()
    }

    /// `true` if there are no CGs (degenerate empty mapping).
    pub fn is_empty(&self) -> bool {
        self.cgs.is_empty()
    }

    /// The CG index of a logical group.
    ///
    /// # Panics
    /// Panics if the group is in no CG.
    pub fn cg_of(&self, g: GroupId) -> usize {
        self.cgs
            .iter()
            .position(|cg| cg.contains(&g))
            .expect("group not in any communication group")
    }
}

/// Errors from CG planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The conflict graph contains an odd cycle, so two CGs do not suffice.
    /// Integrity-greedy mappings never produce this (Theorem 2); ad-hoc
    /// mappings can.
    NotBipartite {
        /// A group on the offending cycle.
        witness: GroupId,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NotBipartite { witness } => {
                write!(
                    f,
                    "conflict graph is not bipartite (odd cycle through {witness})"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Divides logical groups into CGs by DFS 2-coloring of the conflict graph.
///
/// Groups without conflicts join CG 0. Returns one CG when nothing
/// conflicts.
///
/// # Errors
/// Returns [`PlanError::NotBipartite`] if the conflict graph has an odd
/// cycle (cannot happen for integrity-greedy mappings).
pub fn divide_communication_groups(mapping: &Mapping) -> Result<CommunicationGroups, PlanError> {
    let n = mapping.num_groups();
    let edges = mapping.conflict_edges();
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in &edges {
        adj[a.0].push(b.0);
        adj[b.0].push(a.0);
    }
    let mut color = vec![usize::MAX; n];
    for start in 0..n {
        if color[start] != usize::MAX || adj[start].is_empty() {
            continue;
        }
        // iterative DFS
        color[start] = 1; // conflicting groups get CG 1/2… see below
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if color[v] == usize::MAX {
                    color[v] = 3 - color[u]; // alternate 1 <-> 2
                    stack.push(v);
                } else if color[v] == color[u] {
                    return Err(PlanError::NotBipartite {
                        witness: GroupId(v),
                    });
                }
            }
        }
    }
    // isolated (conflict-free) groups: CG 0 == color 1
    let uses_two = color.contains(&2);
    let mut cgs = vec![Vec::new(); if uses_two { 2 } else { 1 }];
    for (g, &col) in color.iter().enumerate() {
        let c = if col == usize::MAX { 1 } else { col };
        cgs[c - 1].push(GroupId(g));
    }
    Ok(CommunicationGroups { cgs })
}

/// [`divide_communication_groups`] with the serialized fallback: when the
/// conflict graph is not bipartite (ad-hoc mappings only) every logical
/// group becomes its own CG — correct, just slower. The error comes back
/// alongside so callers with a telemetry sink can say why sync serialized.
pub fn divide_or_serialize(mapping: &Mapping) -> (CommunicationGroups, Option<PlanError>) {
    match divide_communication_groups(mapping) {
        Ok(cgs) => (cgs, None),
        Err(e) => {
            let cgs = (0..mapping.num_groups())
                .map(|g| vec![GroupId(g)])
                .collect();
            (CommunicationGroups { cgs }, Some(e))
        }
    }
}

/// The topology of `groups` logical groups on a `socs`-SoC server: the
/// integrity-greedy mapping and its CGs, with the serialized fallback of
/// [`divide_or_serialize`] and its reason. The counts are clamped to a
/// real topology: at least one SoC, and between one group and one per SoC.
pub fn topology(socs: usize, groups: usize) -> (Mapping, CommunicationGroups, Option<PlanError>) {
    let socs = socs.max(1);
    let mapping = integrity_greedy(&ClusterSpec::for_socs(socs), socs, groups.clamp(1, socs));
    let (cgs, fallback) = divide_or_serialize(&mapping);
    (mapping, cgs, fallback)
}

/// Steady-state wall-clock time of one training iteration under the Fig. 7
/// schedule, plus the visible-time breakdown.
///
/// - Without planning, every logical group synchronizes simultaneously
///   right after computing: iteration = `compute + sync_all`.
/// - With planning, the CGs alternate on the network while the others
///   compute; communication is fully hidden once compute dominates:
///   iteration = `max(compute, Σ_k sync_cg[k]) + update`.
pub fn iteration_time(
    compute: Seconds,
    cg_syncs: &[Seconds],
    update: Seconds,
    planning: bool,
) -> (Seconds, Breakdown) {
    let sync_total: Seconds = cg_syncs.iter().sum();
    if planning {
        let period = compute.max(sync_total) + update;
        let visible_sync = (sync_total - compute).max(0.0);
        (
            period,
            Breakdown {
                compute,
                sync: visible_sync,
                update,
            },
        )
    } else {
        (
            compute + sync_total + update,
            Breakdown {
                compute,
                sync: sync_total,
                update,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{integrity_greedy, sequential};
    use socflow_cluster::ClusterSpec;

    fn spec(boards: usize, per: usize) -> ClusterSpec {
        let mut s = ClusterSpec::paper_server();
        s.boards = boards;
        s.socs_per_board = per;
        s
    }

    #[test]
    fn perfect_fit_needs_one_cg() {
        let s = spec(6, 5);
        let m = integrity_greedy(&s, 30, 6);
        let cg = divide_communication_groups(&m).unwrap();
        assert_eq!(cg.len(), 1);
        assert_eq!(cg.cgs[0].len(), 6);
    }

    #[test]
    fn paper_example_needs_two_cgs() {
        // Fig. 5(c): 15 SoCs / 3 boards / 5 groups of 3 → LG4, LG5 conflict
        let s = spec(3, 5);
        let m = integrity_greedy(&s, 15, 5);
        let cg = divide_communication_groups(&m).unwrap();
        assert_eq!(cg.len(), 2, "paper: exactly two CGs");
        // the two conflicting groups must be in different CGs
        for (a, b) in m.conflict_edges() {
            assert_ne!(cg.cg_of(a), cg.cg_of(b), "{a} and {b} share a CG");
        }
    }

    #[test]
    fn integrity_greedy_always_two_colorable() {
        for (boards, per, socs, groups) in [
            (7usize, 5usize, 32usize, 8usize),
            (7, 5, 32, 6),
            (12, 5, 60, 9),
            (5, 4, 19, 7),
            (4, 5, 18, 5),
        ] {
            let s = spec(boards, per);
            let m = integrity_greedy(&s, socs, groups);
            let cg = divide_communication_groups(&m)
                .unwrap_or_else(|e| panic!("({boards},{per},{socs},{groups}): {e}"));
            assert!(cg.len() <= 2);
        }
    }

    #[test]
    fn sequential_mapping_also_colorable_here() {
        // Sequential packing also yields contiguous ranges, hence paths.
        let s = spec(7, 5);
        let m = sequential(&s, 32, 8);
        let cg = divide_communication_groups(&m).unwrap();
        for (a, b) in m.conflict_edges() {
            assert_ne!(cg.cg_of(a), cg.cg_of(b));
        }
    }

    #[test]
    fn iteration_time_hides_comm_when_compute_dominates() {
        let (t, bd) = iteration_time(1.0, &[0.3, 0.4], 0.1, true);
        assert!((t - 1.1).abs() < 1e-12);
        assert_eq!(bd.sync, 0.0, "fully hidden");
        let (t2, bd2) = iteration_time(1.0, &[0.3, 0.4], 0.1, false);
        assert!((t2 - 1.8).abs() < 1e-12);
        assert!((bd2.sync - 0.7).abs() < 1e-12);
    }

    #[test]
    fn iteration_time_partially_hidden() {
        let (t, bd) = iteration_time(0.5, &[0.4, 0.4], 0.0, true);
        assert!((t - 0.8).abs() < 1e-12);
        assert!((bd.sync - 0.3).abs() < 1e-12);
    }
}
