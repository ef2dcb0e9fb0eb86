//! # fibbing — on-demand load-balancing by lying to routers
//!
//! A full reproduction of *"Fibbing in action: On-demand
//! load-balancing for better video delivery"* (Tilmans, Vissicchio,
//! Vanbever, Rexford — SIGCOMM 2016 demo), built on the Fibbing system
//! of Vissicchio et al. (SIGCOMM 2015).
//!
//! This facade crate re-exports the whole stack and names the paper's
//! demo network ([`demo`]); the experiment itself is
//! `scenarios/paper_demo.toml`, run by the scenario engine:
//!
//! | crate | role |
//! |-------|------|
//! | [`igp`] | link-state IGP substrate: LSAs, flooding, neighbor FSM, ECMP SPF, wire codec |
//! | [`netsim`] | deterministic co-simulation: capacitated links, ECMP FIBs, max-min fluid flows, SNMP-fed counters |
//! | [`telemetry`] | SNMP-style monitoring: ifTable counters, a MIB to walk, EWMA rates, hysteresis alarms |
//! | [`core`] | Fibbing itself: lies, augmentation, uneven splits, optimizer, verification, the controller |
//! | [`te`] | baselines: RSVP-TE tunnels, Fortz–Thorup weight search, ECMP optimality bounds |
//! | [`video`] | the workload: constant-bitrate sessions, playback buffers, QoE, flash crowds |
//! | [`scenario`] | declarative what-if harness: topology × workload × fault-script specs, runner, reports |
//!
//! ## Quickstart
//!
//! ```
//! use fibbing::scenario::prelude::*;
//!
//! // Run the paper's experiment for 12 simulated seconds with the
//! // controller enabled (the full run is `fig2_timeseries`).
//! let spec = load_scenario("paper_demo").unwrap();
//! let mut run = build(&spec, RunOptions::default()).unwrap();
//! run.run_until_secs(12.0);
//! // The three links of Fig. 2 are recorded as named series; B-R2 is
//! // `r2-r4`.
//! assert!(run.sim.recorder().max("r2-r4").unwrap() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use fib_core as core;
pub use fib_igp as igp;
pub use fib_netsim as netsim;
pub use fib_scenario as scenario;
pub use fib_te as te;
pub use fib_telemetry as telemetry;
pub use fib_video as video;

pub mod demo;

/// One-stop prelude for applications using the stack.
pub mod prelude {
    pub use fib_core::prelude::*;
    pub use fib_igp::prelude::*;
    pub use fib_netsim::prelude::*;
    pub use fib_scenario::prelude::*;
    pub use fib_te::prelude::*;
    pub use fib_telemetry::prelude::*;
    pub use fib_video::prelude::*;
}
