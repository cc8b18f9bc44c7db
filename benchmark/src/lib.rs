//! The Ocelot benchmark: four dataset-in → dataset-out workloads measured
//! end to end, and a layer walk that prices every stage in bytes/s/core
//! against a memcpy roofline. See `README.md` for the metric tables.

pub mod adapter;
pub mod cli;
pub mod compare;
pub mod result;
pub mod run;
pub mod stats;
pub mod trace;
pub mod walk;
pub mod workloads;
