//! The four benchmark workloads.

pub mod charact;
pub mod nuts;
pub mod serve;
