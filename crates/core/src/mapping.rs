//! Integrity-greedy mapping of logical groups onto PCB boards (paper §3.1).
//!
//! Splitting a logical group across PCBs forces its per-batch Ring-AllReduce
//! through the board NICs, so the mapper minimizes `C` — the maximum, over
//! boards, of the number of *split* groups touching the board (paper
//! Eqs. 2–3). The paper's integrity-greedy algorithm:
//!
//! 1. place as many logical groups as possible *whole* on a board
//!    (integrity), board by board;
//! 2. squeeze the remaining groups contiguously into the leftover slots in
//!    1-D order.
//!
//! **Theorem 1** (optimality): integrity-greedy minimizes `C` — verified
//! against brute force in the property tests. **Theorem 2**: every split
//! group shares boards with at most two other split groups — after step 1
//! each board's residual capacity is smaller than a group, so a board's
//! residual can host at most one group tail and one group head; the
//! conflict graph is therefore a union of paths, which is what makes the
//! communication-group division (see [`crate::planning`]) a bipartite
//! 2-coloring.

use serde::{Deserialize, Serialize};
use socflow_cluster::{ClusterSpec, SocId};

/// Identifier of a logical group (index into the mapping's group list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GroupId(pub usize);

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LG{}", self.0)
    }
}

/// A placement of logical groups onto SoCs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    /// SoCs of each logical group, in ring order.
    members: Vec<Vec<SocId>>,
    socs_per_board: usize,
}

impl Mapping {
    /// Builds a mapping from explicit group member lists.
    ///
    /// # Panics
    /// Panics if any SoC appears in two groups.
    pub fn from_members(members: Vec<Vec<SocId>>, spec: &ClusterSpec) -> Self {
        let mut seen = std::collections::HashSet::new();
        for g in &members {
            for s in g {
                assert!(seen.insert(*s), "{s} assigned to two groups");
            }
        }
        Mapping {
            members,
            socs_per_board: spec.socs_per_board,
        }
    }

    /// Number of logical groups.
    pub fn num_groups(&self) -> usize {
        self.members.len()
    }

    /// Members of a group, in ring order.
    pub fn group(&self, g: GroupId) -> &[SocId] {
        &self.members[g.0]
    }

    /// All groups' member lists.
    pub fn groups(&self) -> &[Vec<SocId>] {
        &self.members
    }

    /// The leader SoC of a group (first member), which participates in the
    /// inter-group aggregation ring.
    pub fn leader(&self, g: GroupId) -> SocId {
        self.members[g.0][0]
    }

    /// All leaders, in group order.
    pub fn leaders(&self) -> Vec<SocId> {
        (0..self.num_groups())
            .map(|g| self.leader(GroupId(g)))
            .collect()
    }

    fn board_of(&self, s: SocId) -> usize {
        s.0 / self.socs_per_board
    }

    /// `true` if the group has members on more than one board (its ring
    /// traffic must cross the shared NICs).
    pub fn is_split(&self, g: GroupId) -> bool {
        let m = &self.members[g.0];
        m.iter().any(|&s| self.board_of(s) != self.board_of(m[0]))
    }

    /// The set of boards a group touches.
    pub fn boards_of(&self, g: GroupId) -> Vec<usize> {
        let mut b: Vec<usize> = self.members[g.0]
            .iter()
            .map(|&s| self.board_of(s))
            .collect();
        b.sort_unstable();
        b.dedup();
        b
    }

    /// The paper's conflict metric `C`: the maximum over boards of the
    /// number of split groups with members on that board (Eq. 3).
    pub fn conflict_count(&self) -> usize {
        let max_board = self
            .members
            .iter()
            .flatten()
            .map(|&s| self.board_of(s))
            .max()
            .map_or(0, |b| b + 1);
        let mut per_board = vec![0usize; max_board];
        for g in 0..self.num_groups() {
            if self.is_split(GroupId(g)) {
                for b in self.boards_of(GroupId(g)) {
                    per_board[b] += 1;
                }
            }
        }
        per_board.into_iter().max().unwrap_or(0)
    }

    /// Edges of the NIC-contention conflict graph: pairs of *split* groups
    /// sharing at least one board.
    pub fn conflict_edges(&self) -> Vec<(GroupId, GroupId)> {
        let split: Vec<GroupId> = (0..self.num_groups())
            .map(GroupId)
            .filter(|&g| self.is_split(g))
            .collect();
        let mut edges = Vec::new();
        for (i, &a) in split.iter().enumerate() {
            let ba = self.boards_of(a);
            for &b in &split[i + 1..] {
                let bb = self.boards_of(b);
                if ba.iter().any(|x| bb.contains(x)) {
                    edges.push((a, b));
                }
            }
        }
        edges
    }
}

/// Splits `socs` SoCs into `n_groups` groups of near-equal size (sizes
/// differ by at most one; larger groups first).
///
/// # Panics
/// Panics if `n_groups == 0` or `n_groups > socs`.
pub fn group_sizes(socs: usize, n_groups: usize) -> Vec<usize> {
    assert!(n_groups > 0, "need at least one group");
    assert!(n_groups <= socs, "more groups than SoCs");
    let base = socs / n_groups;
    let extra = socs % n_groups;
    (0..n_groups)
        .map(|g| if g < extra { base + 1 } else { base })
        .collect()
}

/// The paper's integrity-greedy mapping: pack whole groups per board first,
/// then squeeze the remainder contiguously into the leftover slots.
///
/// Uses the first `socs` SoCs of the cluster (board-major order).
///
/// # Panics
/// Panics if `socs` exceeds the cluster or `n_groups` is invalid.
pub fn integrity_greedy(spec: &ClusterSpec, socs: usize, n_groups: usize) -> Mapping {
    assert!(socs <= spec.total_socs(), "not enough SoCs in cluster");
    let alive: Vec<SocId> = (0..socs).map(SocId).collect();
    integrity_greedy_over(spec, &alive, n_groups)
}

/// Integrity-greedy over an explicit set of surviving SoCs — the elastic
/// remapping entry point: after reclaims/crashes the engine re-runs the
/// same §3.1 algorithm over whatever SoCs are actually left, which may be
/// an arbitrary subset with holes on every board.
///
/// # Panics
/// Panics if a SoC is outside the cluster or `n_groups` is invalid.
pub fn integrity_greedy_over(spec: &ClusterSpec, alive: &[SocId], n_groups: usize) -> Mapping {
    let alive_set: std::collections::HashSet<SocId> = alive.iter().copied().collect();
    assert!(
        alive.iter().all(|s| s.0 < spec.total_socs()),
        "SoC outside cluster"
    );
    let sizes = group_sizes(alive.len(), n_groups);
    // per-board free slot lists (only surviving SoCs participate)
    let mut board_free: Vec<Vec<SocId>> = Vec::new();
    for b in 0..spec.boards {
        let slots: Vec<SocId> = spec
            .socs_on(socflow_cluster::BoardId(b))
            .into_iter()
            .filter(|s| alive_set.contains(s))
            .collect();
        if !slots.is_empty() {
            board_free.push(slots);
        }
    }

    let mut members: Vec<Option<Vec<SocId>>> = vec![None; n_groups];
    // Step 1: whole-group packing. Groups are interchangeable except for
    // size, so fill with the largest still-unplaced group that fits.
    let mut unplaced: Vec<usize> = (0..n_groups).collect();
    for free in board_free.iter_mut() {
        loop {
            // largest unplaced group fitting in this board's free slots
            let fit = unplaced
                .iter()
                .copied()
                .filter(|&g| sizes[g] <= free.len())
                .max_by_key(|&g| sizes[g]);
            match fit {
                Some(g) => {
                    let taken: Vec<SocId> = free.drain(..sizes[g]).collect();
                    members[g] = Some(taken);
                    unplaced.retain(|&x| x != g);
                }
                None => break,
            }
        }
    }
    // Step 2: squeeze the rest into the 1-D order of remaining slots.
    let mut rest: Vec<SocId> = board_free.into_iter().flatten().collect();
    rest.sort_unstable();
    let mut cursor = 0;
    for g in unplaced {
        let taken = rest[cursor..cursor + sizes[g]].to_vec();
        cursor += sizes[g];
        members[g] = Some(taken);
    }
    debug_assert_eq!(cursor, rest.len());

    Mapping::from_members(
        members
            .into_iter()
            .map(|m| m.expect("all groups placed"))
            .collect(),
        spec,
    )
}

/// Naive sequential mapping: groups take consecutive SoCs in id order,
/// ignoring board boundaries (the "+Group" ablation arm, before the
/// mapping technique is added).
///
/// # Panics
/// Panics if `socs` exceeds the cluster or `n_groups` is invalid.
pub fn sequential(spec: &ClusterSpec, socs: usize, n_groups: usize) -> Mapping {
    assert!(socs <= spec.total_socs(), "not enough SoCs in cluster");
    let mut members = Vec::with_capacity(n_groups);
    let mut next = 0;
    for size in group_sizes(socs, n_groups) {
        members.push((next..next + size).map(SocId).collect());
        next += size;
    }
    Mapping::from_members(members, spec)
}

/// Exhaustive minimum conflict count for small instances (test oracle for
/// Theorem 1). Searches over per-board member-count matrices.
pub fn brute_force_min_conflicts(board_caps: &[usize], group_sizes_in: &[usize]) -> usize {
    // state: per-board remaining capacity; recurse over groups, distributing
    // each group's size across boards in all ways.
    fn distribute(
        g: usize,
        sizes: &[usize],
        remaining: &mut Vec<usize>,
        split_on_board: &mut Vec<usize>,
        best: &mut usize,
    ) {
        // prune: current max already >= best
        let cur_max = split_on_board.iter().copied().max().unwrap_or(0);
        if cur_max >= *best {
            return;
        }
        if g == sizes.len() {
            *best = cur_max;
            return;
        }
        // enumerate compositions of sizes[g] over boards
        fn comps(
            b: usize,
            left: usize,
            remaining: &mut Vec<usize>,
            used: &mut Vec<usize>,
            out: &mut Vec<Vec<usize>>,
        ) {
            if b == remaining.len() {
                if left == 0 {
                    out.push(used.clone());
                }
                return;
            }
            let max_here = remaining[b].min(left);
            for take in 0..=max_here {
                used.push(take);
                comps(b + 1, left - take, remaining, used, out);
                used.pop();
            }
        }
        let mut options = Vec::new();
        comps(0, sizes[g], remaining, &mut Vec::new(), &mut options);
        for opt in options {
            let boards_touched: Vec<usize> = (0..opt.len()).filter(|&b| opt[b] > 0).collect();
            let is_split = boards_touched.len() > 1;
            for (b, &take) in opt.iter().enumerate() {
                remaining[b] -= take;
                if is_split && take > 0 {
                    split_on_board[b] += 1;
                }
            }
            distribute(g + 1, sizes, remaining, split_on_board, best);
            for (b, &take) in opt.iter().enumerate() {
                remaining[b] += take;
                if is_split && take > 0 {
                    split_on_board[b] -= 1;
                }
            }
        }
    }
    let mut best = usize::MAX;
    let mut remaining = board_caps.to_vec();
    let mut split = vec![0usize; board_caps.len()];
    distribute(0, group_sizes_in, &mut remaining, &mut split, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(boards: usize, per: usize) -> ClusterSpec {
        let mut s = ClusterSpec::paper_server();
        s.boards = boards;
        s.socs_per_board = per;
        s
    }

    #[test]
    fn group_sizes_balanced() {
        assert_eq!(group_sizes(32, 8), vec![4; 8]);
        assert_eq!(group_sizes(10, 3), vec![4, 3, 3]);
        assert_eq!(group_sizes(5, 5), vec![1; 5]);
    }

    #[test]
    fn paper_figure5c_example() {
        // Figure 5(c): 15 SoCs on 3 boards of 5, logical groups of size 3:
        // LG1-3 placed whole, LG4 and LG5 split across boards.
        let s = spec(3, 5);
        let m = integrity_greedy(&s, 15, 5);
        let whole: usize = (0..5).filter(|&g| !m.is_split(GroupId(g))).count();
        assert_eq!(whole, 3, "three groups should be whole");
        assert_eq!(m.conflict_count(), 2, "each residual board hosts ≤2 splits");
    }

    #[test]
    fn aligned_groups_have_no_conflicts() {
        // 32 SoCs? use 30 SoCs in groups of 5 on boards of 5: perfect fit
        let s = spec(6, 5);
        let m = integrity_greedy(&s, 30, 6);
        assert_eq!(m.conflict_count(), 0);
        for g in 0..6 {
            assert!(!m.is_split(GroupId(g)));
        }
    }

    #[test]
    fn paper_default_32_socs_8_groups() {
        // 32 SoCs on 7 boards (6 full + 2 on the last), groups of 4.
        let s = spec(7, 5);
        let m = integrity_greedy(&s, 32, 8);
        assert_eq!(m.num_groups(), 8);
        // every SoC used exactly once
        let mut all: Vec<usize> = m.groups().iter().flatten().map(|s| s.0).collect();
        all.sort_unstable();
        assert_eq!(all, (0..32).collect::<Vec<_>>());
        // greedy packs 6 whole groups (one per full board), splits the rest
        let whole = (0..8).filter(|&g| !m.is_split(GroupId(g))).count();
        assert!(whole >= 6, "at least 6 whole groups, got {whole}");
    }

    #[test]
    fn integrity_greedy_beats_sequential() {
        let s = spec(3, 5);
        let greedy = integrity_greedy(&s, 15, 5);
        let naive = sequential(&s, 15, 5);
        assert!(greedy.conflict_count() <= naive.conflict_count());
    }

    #[test]
    fn theorem2_at_most_two_contenders() {
        // across a spread of instances, every split group conflicts with ≤2
        for (boards, per, socs, groups) in [
            (3usize, 5usize, 15usize, 5usize),
            (7, 5, 32, 8),
            (7, 5, 32, 6),
            (4, 5, 18, 4),
            (12, 5, 60, 9),
            (5, 4, 19, 7),
        ] {
            let s = spec(boards, per);
            let m = integrity_greedy(&s, socs, groups);
            let edges = m.conflict_edges();
            for g in 0..groups {
                let deg = edges.iter().filter(|(a, b)| a.0 == g || b.0 == g).count();
                assert!(
                    deg <= 2,
                    "LG{g} has {deg} contenders in ({boards},{per},{socs},{groups})"
                );
            }
        }
    }

    #[test]
    fn theorem1_optimality_small_instances() {
        for (boards, per, socs, groups) in [
            (2usize, 4usize, 8usize, 2usize),
            (2, 4, 8, 3),
            (3, 3, 9, 4),
            (3, 4, 10, 3),
            (2, 5, 9, 2),
        ] {
            let s = spec(boards, per);
            let m = integrity_greedy(&s, socs, groups);
            let caps: Vec<usize> = (0..boards)
                .map(|b| per.min(socs.saturating_sub(b * per)))
                .collect();
            let optimal = brute_force_min_conflicts(&caps, &group_sizes(socs, groups));
            assert_eq!(
                m.conflict_count(),
                optimal,
                "({boards},{per},{socs},{groups}): greedy {} vs optimal {optimal}",
                m.conflict_count()
            );
        }
    }

    #[test]
    fn leaders_are_first_members() {
        let s = spec(3, 5);
        let m = integrity_greedy(&s, 15, 5);
        assert_eq!(m.leaders().len(), 5);
        for g in 0..5 {
            assert_eq!(m.leader(GroupId(g)), m.group(GroupId(g))[0]);
        }
    }

    #[test]
    fn mapping_over_survivor_set_with_holes() {
        // 3 boards of 5, but SoCs 2, 6 and 11 died: 12 survivors, 4 groups
        let s = spec(3, 5);
        let alive: Vec<SocId> = (0..15)
            .filter(|i| ![2usize, 6, 11].contains(i))
            .map(SocId)
            .collect();
        let m = integrity_greedy_over(&s, &alive, 4);
        assert_eq!(m.num_groups(), 4);
        let mut used: Vec<SocId> = m.groups().iter().flatten().copied().collect();
        used.sort_unstable();
        assert_eq!(used, alive, "exactly the survivors are placed");
        // 4 survivors per board, groups of 3: each board hosts one whole
        // group; the residual slots carry the fourth → conflict stays ≤2
        assert!(m.conflict_count() <= 2);
    }

    #[test]
    fn over_variants_match_prefix_forms_on_a_full_topology() {
        let s = spec(7, 5);
        let alive: Vec<SocId> = (0..32).map(SocId).collect();
        assert_eq!(
            integrity_greedy(&s, 32, 8),
            integrity_greedy_over(&s, &alive, 8)
        );
    }

    #[test]
    #[should_panic(expected = "two groups")]
    fn duplicate_member_rejected() {
        let s = spec(2, 5);
        Mapping::from_members(vec![vec![SocId(0)], vec![SocId(0)]], &s);
    }
}
