//! # fib-video — the demo's video-delivery workload
//!
//! The demo streams videos from servers to playback clients across the
//! Fibbing-controlled network; its success criterion is *smooth
//! playback*. This crate provides:
//!
//! * [`catalog`] — assets and encoding ladders;
//! * [`client`] — the playback buffer model (startup, drain, stalls);
//! * [`abr`] — adaptive-bitrate policies (constant, rate-based,
//!   BBA-style buffer-based);
//! * [`qoe`] — per-session reports and aggregates (stalls, startup
//!   delay, mean bitrate, MOS-like score);
//! * [`workload`] — the netsim application driving a schedule of
//!   viewer waves: server-paced flows feed players, ABR runs at
//!   segment granularity, QoE is published through a shared handle;
//! * [`flashcrowd`] — arrival processes, and the paper's exact
//!   schedule (1 flow at t=0, +30 at t=15, +31 from a second source at
//!   t=35).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod abr;
pub mod catalog;
pub mod client;
pub mod flashcrowd;
pub mod qoe;
pub mod workload;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::abr::{AbrInput, AbrPolicy};
    pub use crate::catalog::{Ladder, Video};
    pub use crate::client::{Player, PlayerConfig, PlayerState};
    pub use crate::flashcrowd::{batch_starts, diurnal_starts, paper_schedule, poisson_starts};
    pub use crate::qoe::{summarize, QoeReport, QoeSummary};
    pub use crate::workload::{QoeHandle, VideoWorkload, Wave};
}
