//! Machine-level constants and description.

use mira_units::convert;
use serde::{Deserialize, Serialize};

use crate::airflow::AirflowMap;
use crate::clock::ClockTree;
use crate::queues::QueueMap;
use crate::rack::RackId;

/// Midplanes per rack.
pub const MIDPLANES_PER_RACK: u32 = 2;

/// Node boards per midplane.
pub const NODE_BOARDS_PER_MIDPLANE: u32 = 16;

/// Compute cards (nodes) per node board.
pub const NODES_PER_BOARD: u32 = 32;

/// Nodes per rack (2 × 16 × 32).
pub const NODES_PER_RACK: u32 = MIDPLANES_PER_RACK * NODE_BOARDS_PER_MIDPLANE * NODES_PER_BOARD;

/// Nodes in the whole system (48 racks).
pub const TOTAL_NODES: u32 = NODES_PER_RACK * convert::u32_from_usize(RackId::COUNT);

/// Cores usable for computation per node (18 on the A2 die, 16 active).
pub const ACTIVE_CORES_PER_NODE: u32 = 16;

/// Memory per node in GiB of DDR3.
pub const MEMORY_PER_NODE_GIB: u32 = 16;

/// I/O-forwarding-node racks (air-cooled), two at the end of each row.
pub const ION_RACKS: u32 = 6;

/// Static description of the machine: rack grid, clock-signal tree,
/// queue→row affinities, and the underfloor airflow map.
///
/// `Machine` is immutable configuration; the dynamic state (utilization,
/// temperatures, failures) lives in the simulator crates layered on top.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Machine {
    clock_tree: ClockTree,
    queues: QueueMap,
    airflow: AirflowMap,
}

impl Machine {
    /// The Mira configuration described in the paper.
    #[must_use]
    pub fn mira() -> Self {
        Self {
            clock_tree: ClockTree::mira(),
            queues: QueueMap::mira(),
            airflow: AirflowMap::mira(),
        }
    }

    /// Iterates over all 48 compute racks.
    pub fn compute_racks(&self) -> impl Iterator<Item = RackId> {
        RackId::all()
    }

    /// Total compute nodes (49,152 for Mira).
    #[must_use]
    pub fn total_nodes(&self) -> u32 {
        TOTAL_NODES
    }

    /// Total active compute cores (786,432 for Mira).
    #[must_use]
    pub fn total_cores(&self) -> u32 {
        TOTAL_NODES * ACTIVE_CORES_PER_NODE
    }

    /// Total memory in TiB (768 for Mira).
    #[must_use]
    pub fn total_memory_tib(&self) -> u32 {
        TOTAL_NODES * MEMORY_PER_NODE_GIB / 1024
    }

    /// The clock-signal distribution tree.
    #[must_use]
    pub fn clock_tree(&self) -> &ClockTree {
        &self.clock_tree
    }

    /// Queue definitions and rack affinities.
    #[must_use]
    pub fn queues(&self) -> &QueueMap {
        &self.queues
    }

    /// The underfloor airflow map.
    #[must_use]
    pub fn airflow(&self) -> &AirflowMap {
        &self.airflow
    }
}

impl Default for Machine {
    fn default() -> Self {
        Self::mira()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_the_paper() {
        assert_eq!(NODES_PER_RACK, 1024);
        assert_eq!(TOTAL_NODES, 49_152);
        let m = Machine::mira();
        assert_eq!(m.total_cores(), 786_432);
        assert_eq!(m.total_memory_tib(), 768);
        assert_eq!(m.compute_racks().count(), 48);
    }

    #[test]
    fn default_is_mira() {
        let m = Machine::default();
        assert_eq!(m.total_nodes(), 49_152);
    }
}
