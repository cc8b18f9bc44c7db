//! Federated FaaS (FuncX-style) and batch-scheduler simulation.
//!
//! Ocelot orchestrates remote (de)compression through a federated
//! function-as-a-service fabric: functions are dispatched to endpoints
//! deployed at each site, which provision compute nodes through the site's
//! batch scheduler. This crate models the pieces of that stack the paper's
//! optimizations depend on:
//!
//! * **node waiting time** (§VII-B) — a compression job may sit in the batch
//!   queue from seconds to hours; the sentinel optimization transfers
//!   uncompressed data while waiting;
//! * **parallel task placement** — files are assigned to cores with
//!   longest-processing-time-first scheduling; compression stops scaling
//!   once cores ≥ files (Fig 9 left).
//!
//! ```
//! use ocelot_faas::{Cluster, WaitTimeModel};
//!
//! let cluster = Cluster::new(16, 128, 3.0);
//! let works = vec![2.0_f64; 768]; // single-core seconds per file
//! let makespan = cluster.parallel_makespan(&works, 2048);
//! assert!(makespan < 2.0 * 768.0);
//! ```

pub mod cluster;
pub mod queue;

pub use cluster::Cluster;
pub use queue::WaitTimeModel;
