//! Physical structure of a SoC-Cluster server.

use serde::{Deserialize, Serialize};

/// Identifier of one mobile SoC within the cluster (0-based, board-major:
/// SoCs `0..socs_per_board` live on board 0, and so on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SocId(pub usize);

/// Identifier of one PCB board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BoardId(pub usize);

impl std::fmt::Display for SocId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "soc{}", self.0)
    }
}

impl std::fmt::Display for BoardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pcb{}", self.0)
    }
}

/// Static description of a SoC-Cluster server.
///
/// The default matches the paper's hardware (§2.1): 12 PCBs × 5 Snapdragon
/// 865, 1 Gb/s per-SoC SAS link, one shared 1 Gb/s NIC per PCB, and a
/// 20 Gb/s switch connecting the PCBs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of PCB boards (physical groups).
    pub boards: usize,
    /// SoCs per PCB board.
    pub socs_per_board: usize,
    /// Per-SoC link rate to the PCB fabric, bits/s.
    pub soc_link_bps: f64,
    /// Shared PCB NIC uplink rate to the switch, bits/s.
    pub board_uplink_bps: f64,
    /// Switch backplane aggregate rate, bits/s.
    pub switch_bps: f64,
}

impl ClusterSpec {
    /// The paper's 60-SoC server: 12 boards × 5 SoCs.
    pub fn paper_server() -> Self {
        ClusterSpec {
            boards: 12,
            socs_per_board: 5,
            soc_link_bps: 1e9,
            board_uplink_bps: 1e9,
            switch_bps: 20e9,
        }
    }

    /// A spec with just enough boards for `socs` SoCs (5 per board), used by
    /// the scalability experiments that enlist 8–32 SoCs.
    pub fn for_socs(socs: usize) -> Self {
        let mut spec = Self::paper_server();
        spec.boards = socs.div_ceil(spec.socs_per_board);
        spec
    }

    /// Total number of SoCs.
    pub fn total_socs(&self) -> usize {
        self.boards * self.socs_per_board
    }

    /// Board hosting a SoC.
    ///
    /// # Panics
    /// Panics if the SoC id is out of range.
    pub fn board_of(&self, soc: SocId) -> BoardId {
        assert!(soc.0 < self.total_socs(), "{soc} out of range");
        BoardId(soc.0 / self.socs_per_board)
    }

    /// All SoC ids on a board.
    ///
    /// # Panics
    /// Panics if the board id is out of range.
    pub fn socs_on(&self, board: BoardId) -> Vec<SocId> {
        assert!(board.0 < self.boards, "{board} out of range");
        (0..self.socs_per_board)
            .map(|i| SocId(board.0 * self.socs_per_board + i))
            .collect()
    }

    /// `true` if two SoCs share a PCB (their traffic avoids the board NIC).
    pub fn same_board(&self, a: SocId, b: SocId) -> bool {
        self.board_of(a) == self.board_of(b)
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self::paper_server()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_server_has_60_socs() {
        let s = ClusterSpec::paper_server();
        assert_eq!(s.total_socs(), 60);
        assert_eq!(s.boards, 12);
    }

    #[test]
    fn board_major_layout() {
        let s = ClusterSpec::paper_server();
        assert_eq!(s.board_of(SocId(0)), BoardId(0));
        assert_eq!(s.board_of(SocId(4)), BoardId(0));
        assert_eq!(s.board_of(SocId(5)), BoardId(1));
        assert_eq!(s.board_of(SocId(59)), BoardId(11));
        assert!(s.same_board(SocId(0), SocId(4)));
        assert!(!s.same_board(SocId(4), SocId(5)));
    }

    #[test]
    fn socs_on_board() {
        let s = ClusterSpec::paper_server();
        assert_eq!(
            s.socs_on(BoardId(1)),
            vec![SocId(5), SocId(6), SocId(7), SocId(8), SocId(9)]
        );
    }

    #[test]
    fn for_socs_rounds_boards_up() {
        assert_eq!(ClusterSpec::for_socs(32).boards, 7);
        assert_eq!(ClusterSpec::for_socs(8).boards, 2);
        assert_eq!(ClusterSpec::for_socs(5).boards, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn board_of_checks_range() {
        ClusterSpec::paper_server().board_of(SocId(60));
    }
}
