//! Network model with fault injection.
//!
//! The paper's deployments are intra-datacenter: application servers, cache
//! servers and storage pods connected by a low-latency fabric. We model each
//! hop with a base propagation latency per link class plus a serialization
//! (wire) delay proportional to message size, and we support fault injection
//! — random drops, deterministic extra delay for selected messages, and
//! pairwise partitions. Fault injection is what lets the Figure 8
//! delayed-writes scenario reproduce deterministically.

use crate::metrics::MetricSet;
use crate::node::NodeId;
use crate::time::SimDuration;
use rand::Rng;
use std::collections::HashSet;

/// Coarse link classification. Latencies follow typical intra-DC numbers;
/// they are configurable because the paper's cost results depend on CPU, not
/// latency, but we also report latency distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Same machine (linked cache access path) — no network at all.
    Local,
    /// Same rack / same zone pod-to-pod hop.
    SameZone,
}

/// Static description of link performance.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// One-way propagation + switching latency.
    pub base_latency: SimDuration,
    /// Sustained bandwidth in bytes per second (wire delay = size / bw).
    pub bandwidth_bytes_per_sec: u64,
}

impl LinkSpec {
    /// Total one-way delivery time for a message of `bytes`.
    pub fn delivery_time(&self, bytes: u64) -> SimDuration {
        let wire = if self.bandwidth_bytes_per_sec == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec as f64)
        };
        self.base_latency + wire
    }
}

/// Fault-injection plan. All probabilities are evaluated against the seeded
/// RNG passed to [`Network::send`], so a seeded run replays the same faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that any message is silently dropped.
    pub drop_prob: f64,
    /// Extra delay added to every message (e.g. to model congestion).
    pub extra_delay: SimDuration,
    /// Ordered pairs (from, to) that cannot currently communicate.
    pub partitions: HashSet<(NodeId, NodeId)>,
}

impl FaultPlan {
    /// Partition traffic in both directions between `a` and `b`.
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.partitions.insert((a, b));
        self.partitions.insert((b, a));
    }

    /// Heal a bidirectional partition.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.partitions.remove(&(a, b));
        self.partitions.remove(&(b, a));
    }

    pub fn is_partitioned(&self, from: NodeId, to: NodeId) -> bool {
        self.partitions.contains(&(from, to))
    }
}

/// The outcome of attempting to send one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Message arrives after this one-way delay.
    After(SimDuration),
    /// Message is lost (drop or partition).
    Dropped,
}

/// Topology + faults. Placement is expressed as a function from node pairs to
/// link classes, registered per deployment.
#[derive(Debug, Clone)]
pub struct Network {
    local: LinkSpec,
    same_zone: LinkSpec,
    pub faults: FaultPlan,
    /// Liveness per node id: a crashed node neither sends nor receives.
    /// Ids beyond the vector are up (the common case — nothing crashed).
    node_down: Vec<bool>,
    /// Messages delivered / dropped, for reporting.
    pub delivered: u64,
    pub dropped: u64,
}

impl Default for Network {
    fn default() -> Self {
        Network::new()
    }
}

impl Network {
    /// A network with typical intra-DC parameters: 25 µs same-zone one-way,
    /// 10 Gbps effective per-flow bandwidth.
    pub fn new() -> Self {
        Network {
            local: LinkSpec {
                base_latency: SimDuration::ZERO,
                bandwidth_bytes_per_sec: 0,
            },
            same_zone: LinkSpec {
                base_latency: SimDuration::from_micros(25),
                bandwidth_bytes_per_sec: 1_250_000_000,
            },
            faults: FaultPlan::default(),
            node_down: Vec::new(),
            delivered: 0,
            dropped: 0,
        }
    }

    pub fn link(&self, class: LinkClass) -> LinkSpec {
        match class {
            LinkClass::Local => self.local,
            LinkClass::SameZone => self.same_zone,
        }
    }

    /// Classify the link between two nodes.
    pub fn classify(&self, from: NodeId, to: NodeId) -> LinkClass {
        if from == to {
            LinkClass::Local
        } else {
            LinkClass::SameZone
        }
    }

    /// Mark a node crashed (`down = true`) or restarted (`down = false`).
    /// While down, every message to or from it is dropped.
    pub fn set_node_down(&mut self, node: NodeId, down: bool) {
        let idx = node.0 as usize;
        if self.node_down.len() <= idx {
            if !down {
                return; // already implicitly up
            }
            self.node_down.resize(idx + 1, false);
        }
        self.node_down[idx] = down;
    }

    pub fn is_node_up(&self, node: NodeId) -> bool {
        !self.node_down.get(node.0 as usize).copied().unwrap_or(false)
    }

    /// Decide whether one message from `from` to `to` gets through, for a
    /// caller that does not need its delay: the liveness, partition and
    /// loss checks of [`Network::send`], with the same draws from `rng`.
    /// Updates delivery counters.
    pub fn deliver(&mut self, rng: &mut impl Rng, from: NodeId, to: NodeId) -> bool {
        let lost = !self.is_node_up(from)
            || !self.is_node_up(to)
            || self.faults.is_partitioned(from, to)
            || (self.faults.drop_prob > 0.0 && rng.gen_bool(self.faults.drop_prob.clamp(0.0, 1.0)));
        if lost {
            self.dropped += 1;
        } else {
            self.delivered += 1;
        }
        !lost
    }

    /// Decide the fate of one message of `bytes` from `from` to `to`,
    /// consuming randomness from `rng`: [`Network::deliver`], then the
    /// link's delay. Updates delivery counters.
    pub fn send(&mut self, rng: &mut impl Rng, from: NodeId, to: NodeId, bytes: u64) -> Delivery {
        if !self.deliver(rng, from, to) {
            return Delivery::Dropped;
        }
        let class = self.classify(from, to);
        Delivery::After(self.link(class).delivery_time(bytes) + self.faults.extra_delay)
    }

    /// Pure latency query (no faults, no counters) — used by cost paths that
    /// only need to know how long a hop takes.
    pub fn one_way_latency(&self, from: NodeId, to: NodeId, bytes: u64) -> SimDuration {
        self.link(self.classify(from, to)).delivery_time(bytes)
    }

    /// Zero the delivery counters (e.g. at the warmup/measurement boundary).
    pub fn reset_counters(&mut self) {
        self.delivered = 0;
        self.dropped = 0;
    }

    /// Publish the delivery counters into a metrics registry.
    pub fn export_metrics(&self, metrics: &mut MetricSet) {
        metrics.counter("net_delivered").add(self.delivered);
        metrics.counter("net_dropped").add(self.dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn delivery_time_includes_wire_delay() {
        let spec = LinkSpec {
            base_latency: SimDuration::from_micros(25),
            bandwidth_bytes_per_sec: 1_000_000_000, // 1 GB/s
        };
        // 1 MB at 1 GB/s = 1 ms wire + 25 us base.
        let d = spec.delivery_time(1_000_000);
        assert_eq!(d.as_micros(), 1_025);
    }

    #[test]
    fn zero_bandwidth_means_no_wire_delay() {
        let spec = LinkSpec {
            base_latency: SimDuration::from_micros(5),
            bandwidth_bytes_per_sec: 0,
        };
        assert_eq!(spec.delivery_time(u64::MAX).as_micros(), 5);
    }

    #[test]
    fn same_node_is_local_and_free() {
        let net = Network::new();
        let n = NodeId(3);
        assert_eq!(net.classify(n, n), LinkClass::Local);
        assert_eq!(net.one_way_latency(n, n, 1 << 20), SimDuration::ZERO);
    }

    #[test]
    fn partition_drops_both_directions_until_healed() {
        let mut net = Network::new();
        let (a, b) = (NodeId(0), NodeId(1));
        net.faults.partition(a, b);
        assert_eq!(net.send(&mut rng(), a, b, 10), Delivery::Dropped);
        assert_eq!(net.send(&mut rng(), b, a, 10), Delivery::Dropped);
        net.faults.heal(a, b);
        assert!(matches!(net.send(&mut rng(), a, b, 10), Delivery::After(_)));
        assert_eq!(net.dropped, 2);
        assert_eq!(net.delivered, 1);
    }

    #[test]
    fn drop_probability_one_drops_everything() {
        let mut net = Network::new();
        net.faults.drop_prob = 1.0;
        for _ in 0..10 {
            assert_eq!(net.send(&mut rng(), NodeId(0), NodeId(1), 1), Delivery::Dropped);
        }
    }

    #[test]
    fn crashed_node_neither_sends_nor_receives() {
        let mut net = Network::new();
        let (a, b) = (NodeId(0), NodeId(5));
        assert!(net.is_node_up(b));
        net.set_node_down(b, true);
        assert!(!net.is_node_up(b));
        assert_eq!(net.send(&mut rng(), a, b, 10), Delivery::Dropped);
        assert_eq!(net.send(&mut rng(), b, a, 10), Delivery::Dropped);
        net.set_node_down(b, false);
        assert!(matches!(net.send(&mut rng(), a, b, 10), Delivery::After(_)));
        // Restarting an id never marked down is a no-op.
        net.set_node_down(NodeId(1_000), false);
        assert!(net.is_node_up(NodeId(1_000)));
    }

    #[test]
    fn delivery_counters_export_and_reset() {
        let mut net = Network::new();
        net.set_node_down(NodeId(1), true);
        let _ = net.send(&mut rng(), NodeId(0), NodeId(1), 1);
        let _ = net.send(&mut rng(), NodeId(0), NodeId(2), 1);
        let mut m = crate::metrics::MetricSet::new();
        net.export_metrics(&mut m);
        assert_eq!(m.counter_value("net_delivered"), 1);
        assert_eq!(m.counter_value("net_dropped"), 1);
        net.reset_counters();
        assert_eq!(net.delivered, 0);
        assert_eq!(net.dropped, 0);
    }

    #[test]
    fn deliver_decides_as_send_does() {
        // Loss, a partition and a crashed node, over one message stream:
        // the same outcomes, counters and random draws either way.
        let setup = || {
            let mut net = Network::new();
            net.faults.drop_prob = 0.3;
            net.faults.partition(NodeId(0), NodeId(2));
            net.set_node_down(NodeId(3), true);
            net
        };
        let (mut by_send, mut by_deliver) = (setup(), setup());
        let (mut send_rng, mut deliver_rng) = (rng(), rng());
        for i in 0..400u32 {
            let (from, to) = (NodeId(i % 2), NodeId(1 + i % 3));
            let sent = by_send.send(&mut send_rng, from, to, 32);
            let delivered = by_deliver.deliver(&mut deliver_rng, from, to);
            assert_eq!(matches!(sent, Delivery::After(_)), delivered, "message {i}");
        }
        assert_eq!(
            (by_deliver.delivered, by_deliver.dropped),
            (by_send.delivered, by_send.dropped)
        );
        assert!(by_send.delivered > 0 && by_send.dropped > 0);
        assert_eq!(send_rng.gen::<u64>(), deliver_rng.gen::<u64>());
    }

    #[test]
    fn extra_delay_is_added_to_every_message() {
        let mut net = Network::new();
        net.faults.extra_delay = SimDuration::from_millis(7);
        match net.send(&mut rng(), NodeId(0), NodeId(1), 0) {
            Delivery::After(d) => assert!(d >= SimDuration::from_millis(7)),
            Delivery::Dropped => panic!("should deliver"),
        }
    }
}
