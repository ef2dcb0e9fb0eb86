//! # fib-video — the demo's video-delivery workload
//!
//! The demo streams constant-bitrate videos from servers to playback
//! clients across the Fibbing-controlled network; its success criterion
//! is *smooth playback*. This crate provides:
//!
//! * [`catalog`] — assets: a clip's duration and bitrate;
//! * [`client`] — the playback buffer model (startup, drain, stalls);
//! * [`qoe`] — per-session reports and aggregates (stalls, startup
//!   delay, mean bitrate, MOS-like score);
//! * [`workload`] — the netsim application driving a schedule of
//!   viewer waves: server-paced flows feed players, QoE is published
//!   through a shared handle;
//! * [`flashcrowd`] — arrival processes, and the paper's exact
//!   schedule (1 flow at t=0, +30 at t=15, +31 from a second source at
//!   t=35).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod client;
pub mod flashcrowd;
pub mod qoe;
pub mod workload;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::catalog::Video;
    pub use crate::client::{Player, PlayerConfig, PlayerState};
    pub use crate::flashcrowd::{batch_starts, diurnal_starts, paper_schedule, poisson_starts};
    pub use crate::qoe::{summarize, QoeReport, QoeSummary};
    pub use crate::workload::{QoeHandle, VideoWorkload, Wave};
}
