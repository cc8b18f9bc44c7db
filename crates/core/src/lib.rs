//! # Ocelot — wide-area data transfer with error-bounded lossy compression
//!
//! Reproduction of *"Optimizing Scientific Data Transfer on Globus with
//! Error-bounded Lossy Compression"* (Liu, Di, Chard, Foster, Cappello —
//! ICDCS 2023). Ocelot inserts transparent error-bounded lossy compression
//! into the Globus transfer pipeline:
//!
//! 1. a **quality predictor** (decision-tree model over cheap features)
//!    chooses a compressor configuration meeting the user's distortion or
//!    ratio requirement without trial compression;
//! 2. **parallel compression** on source-side compute nodes (provisioned via
//!    a FuncX-style FaaS fabric) shrinks the data before it crosses the WAN;
//! 3. a **sentinel** transfers data uncompressed while compression jobs wait
//!    in the batch queue, so queueing can never make Ocelot slower than a
//!    plain transfer;
//! 4. **file grouping** packs many small compressed files into a few large
//!    archives, recovering the per-file handling costs that would otherwise
//!    erase the benefit of smaller files.
//!
//! # Quickstart
//!
//! ```
//! use ocelot::executor::{ParallelExecutor};
//! use ocelot_datagen::{Application, FieldSpec};
//! use ocelot_sz::LossyConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Compress a small Miranda-like dataset on 4 threads.
//! let files: Vec<_> = (0..8)
//!     .map(|i| FieldSpec::new(Application::Miranda, "density").with_scale(32).with_seed(i).generate())
//!     .collect();
//! let executor = ParallelExecutor::new(4);
//! let blobs = executor.compress_all(&files, &LossyConfig::sz3(1e-3))?;
//! assert_eq!(blobs.len(), 8);
//! # Ok(())
//! # }
//! ```
//!
//! The [`orchestrator`] module runs the full compress → transfer →
//! decompress pipeline on the simulated three-site testbed and produces the
//! time breakdowns reported in the paper's Table VIII and Fig 16.

pub mod executor;
pub mod grouping;
pub mod loader;
pub mod orchestrator;
pub mod planner;
pub mod predictor;
pub mod report;
pub mod sentinel;
pub mod session;
pub mod verify;
pub mod workload;

pub use executor::{ParallelExecutor, StreamedRoundTrip};
pub use grouping::{group_blobs, ungroup_blobs, GroupManifest};
pub use orchestrator::{Orchestrator, PipelineOptions, PipelineOutcome, Strategy};
pub use planner::{TransferPlan, TransferPlanner};
pub use predictor::{AutoConfigurator, Requirement};
pub use report::TimeBreakdown;
pub use session::{ArchiveSet, TransferSession};
pub use verify::{verify, AcceptancePolicy, Verdict};
pub use workload::{Workload, WorkloadFile};
