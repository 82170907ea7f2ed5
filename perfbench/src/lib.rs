//! Repository benchmark: simulator speed and modelled cost on four
//! workloads, with a per-layer wall-clock ledger. See README.md.

pub mod layers;
pub mod ledger;
pub mod metrics;
pub mod reference;
pub mod replay;
pub mod run;
pub mod workload;
