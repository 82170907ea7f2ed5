//! Node identity. A [`NodeId`] names one simulated machine — a cache shard
//! or storage replica, by the embedding layer's numbering — in the network
//! and fault models.

use std::fmt;

/// Stable identifier for a node within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}
