//! Discrete-event wide-area transfer simulator with GridFTP semantics.
//!
//! Stands in for the Globus transfer service between the paper's three
//! sites (Purdue Anvil, NERSC Cori, Argonne Bebop). The simulator models the
//! mechanisms that produce the paper's transfer phenomenology:
//!
//! * shared link bandwidth with max–min fair sharing across concurrent file
//!   transfers (GridFTP *concurrency*),
//! * a per-file throughput cap from TCP streams (*parallelism* × per-stream
//!   rate — a few large files cannot fill a fat link, Table VIII's Miranda
//!   grouping regression),
//! * per-file handling overhead, partly serialized on the control channel —
//!   many small files collapse effective throughput (Table II),
//! * a shared parallel-filesystem model with writer contention
//!   (the non-monotonic decompression scaling of Fig 9).
//!
//! All behaviour is deterministic given the seed.
//!
//! ```
//! use ocelot_netsim::{simulate_transfer, GridFtpConfig, LinkProfile};
//!
//! let link = LinkProfile::new(1.0e9, 0.05, 0.03, 0.01);
//! let files = vec![100_000_000u64; 30];
//! let report = simulate_transfer(&files, &link, &GridFtpConfig::default(), 7);
//! assert!(report.duration_s > 0.0);
//! ```

pub mod faults;
pub mod gridftp;
pub mod link;
pub mod site;
pub mod storage;
pub mod time;

pub use faults::{draw_faults, simulate_transfer_with_faults, FaultDraw, FaultModel, FaultyTransferReport};
pub use gridftp::{
    simulate_transfer, simulate_transfer_detailed, simulate_transfer_released, simulate_transfer_windowed,
    DetailedTransferReport, GridFtpConfig, TransferReport,
};
pub use link::LinkProfile;
pub use site::{Route, Site, SiteId, Topology};
pub use storage::SharedFilesystem;
pub use time::SimTime;
