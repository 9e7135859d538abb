//! The six named workloads.

pub mod campaign;
pub mod service;
pub mod spacegen;
pub mod tune;

/// Workload names in suite order.
pub const NAMES: [&str; 6] = [
    "spacegen_xgemm",
    "tune_mem",
    "tune_journal",
    "service_steady",
    "service_churn",
    "campaign_journal",
];
