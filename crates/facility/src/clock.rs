//! The clock-signal distribution tree.
//!
//! Not every Blue Gene/Q rack has its own clock card. Racks without one
//! receive their clock through a leader rack, and every leader is fed by
//! the clock master — rack `(1, 4)` on Mira. The paper's two concrete
//! examples are encoded here: `(0, 9)` hangs off `(0, A)`, and a failure
//! of `(1, 4)` takes down the entire system. Crucially, the leader
//! assignment is *not* spatially correlated — which is why post-CMF
//! cascades land on racks far from the epicenter (Fig. 15).

use serde::{Deserialize, Serialize};

use mira_units::convert;

use crate::rack::RackId;

/// Clock-signal dependency tree over the 48 compute racks.
///
/// ```
/// use mira_facility::{ClockTree, RackId};
///
/// let tree = ClockTree::mira();
/// // (0, 9) has no clock card of its own; it fails with (0, A).
/// let a = RackId::parse("(0, A)").unwrap();
/// let nine = RackId::parse("(0, 9)").unwrap();
/// assert!(tree.affected_by(a).contains(&nine));
/// // The clock master takes everything down.
/// assert_eq!(tree.affected_by(tree.master()).len(), 48);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClockTree {
    /// `parent[i]` is the rack that rack `i` receives its clock from;
    /// `None` for the master.
    parents: Vec<Option<RackId>>,
    master: RackId,
}

impl ClockTree {
    /// Builds Mira's clock tree: master `(1, 4)`, a deterministic
    /// non-spatial set of leader racks with their own clock cards, and
    /// the remaining racks distributed across the leaders.
    #[must_use]
    pub fn mira() -> Self {
        let master = RackId::new(1, 4);
        // Leader racks own a clock card and are fed directly by the
        // master. The set is fixed (it is machine wiring, not policy) and
        // includes (0, A) so the paper's (0, A) -> (0, 9) example holds.
        let leaders = [
            RackId::new(0, 10), // (0, A)
            RackId::new(0, 3),
            RackId::new(0, 14),
            RackId::new(1, 0),
            RackId::new(1, 11),
            RackId::new(2, 5),
            RackId::new(2, 9),
            RackId::new(2, 15),
        ];

        let mut parents: Vec<Option<RackId>> = vec![None; RackId::COUNT];
        for leader in leaders {
            parents[leader.index()] = Some(master);
        }

        // Followers are assigned to leaders via a fixed multiplicative
        // hash: deliberately uncorrelated with floor position.
        let mut leader_cursor = 0usize;
        for rack in RackId::all() {
            if rack == master || leaders.contains(&rack) {
                continue;
            }
            if rack == RackId::new(0, 9) {
                // Paper example: (0, 9) gets its clock through (0, A).
                parents[rack.index()] = Some(RackId::new(0, 10));
                continue;
            }
            let h = (rack.index() as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17);
            let pick = convert::usize_from_u64(h).wrapping_add(leader_cursor) % leaders.len();
            leader_cursor += 1;
            // pick is reduced mod leaders.len(), which is non-zero:
            // row 0 always has leaders. mira-lint: allow(panic-reachability)
            parents[rack.index()] = Some(leaders[pick]);
        }
        parents[master.index()] = None;

        Self { parents, master }
    }

    /// The clock master rack (`(1, 4)` on Mira).
    #[must_use]
    pub fn master(&self) -> RackId {
        self.master
    }

    /// The rack that `rack` receives its clock from, or `None` for the
    /// master.
    #[must_use]
    pub fn parent(&self, rack: RackId) -> Option<RackId> {
        self.parents[rack.index()]
    }

    /// Whether `dependent`'s clock path passes through `source`.
    #[must_use]
    pub fn depends_on(&self, dependent: RackId, source: RackId) -> bool {
        let mut cur = dependent;
        loop {
            if cur == source {
                return true;
            }
            match self.parent(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// All racks that lose their clock when `rack` goes down, including
    /// `rack` itself.
    #[must_use]
    pub fn affected_by(&self, rack: RackId) -> Vec<RackId> {
        RackId::all()
            .filter(|&r| self.depends_on(r, rack))
            .collect()
    }

    /// Depth of `rack` in the tree (master = 0).
    #[must_use]
    pub fn depth(&self, rack: RackId) -> usize {
        let mut depth = 0;
        let mut cur = rack;
        while let Some(p) = self.parent(cur) {
            depth += 1;
            cur = p;
        }
        depth
    }
}

impl Default for ClockTree {
    fn default() -> Self {
        Self::mira()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_is_one_four() {
        let t = ClockTree::mira();
        assert_eq!(t.master(), RackId::new(1, 4));
        assert_eq!(t.parent(t.master()), None);
        assert_eq!(t.depth(t.master()), 0);
    }

    #[test]
    fn master_failure_kills_everything() {
        let t = ClockTree::mira();
        assert_eq!(t.affected_by(RackId::new(1, 4)).len(), 48);
    }

    #[test]
    fn paper_example_zero_nine_via_zero_a() {
        let t = ClockTree::mira();
        let nine = RackId::new(0, 9);
        let a = RackId::new(0, 10);
        assert_eq!(t.parent(nine), Some(a));
        assert!(t.affected_by(a).contains(&nine));
        assert!(t.depends_on(nine, a));
        assert!(!t.depends_on(a, nine));
    }

    #[test]
    fn every_rack_reaches_the_master() {
        let t = ClockTree::mira();
        for r in RackId::all() {
            assert!(t.depends_on(r, t.master()), "{r} must reach master");
            assert!(t.depth(r) <= 2, "{r} depth {} too deep", t.depth(r));
        }
    }

    #[test]
    fn leaf_failure_is_isolated() {
        let t = ClockTree::mira();
        // Find a depth-2 rack (a follower); its failure affects only
        // itself.
        let leaf = RackId::all().find(|&r| t.depth(r) == 2).expect("a leaf");
        assert_eq!(t.affected_by(leaf), vec![leaf]);
    }

    #[test]
    fn leader_failure_affects_followers_not_master() {
        let t = ClockTree::mira();
        let leader = RackId::new(0, 10);
        let affected = t.affected_by(leader);
        assert!(affected.len() > 1, "leaders have followers");
        assert!(!affected.contains(&t.master()));
    }

    #[test]
    fn follower_assignment_is_not_spatial() {
        // At least one follower must be assigned to a leader in a
        // different row: the paper stresses links are not proximity-based.
        let t = ClockTree::mira();
        let cross_row = RackId::all()
            .any(|r| matches!(t.parent(r), Some(p) if p != t.master() && p.row() != r.row()));
        assert!(cross_row);
    }

    #[test]
    fn tree_is_deterministic() {
        assert_eq!(ClockTree::mira(), ClockTree::mira());
    }
}
