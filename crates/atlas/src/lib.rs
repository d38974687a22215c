//! # dynaddr-atlas
//!
//! A deterministic discrete-event simulator of the RIPE Atlas measurement
//! plane, standing in for the proprietary 2015 connection-log, k-root-ping,
//! and SOS-uptime datasets the paper analyzes (§3).
//!
//! The simulator builds a world of ISPs (via `dynaddr-ispnet`), attaches
//! probes behind CPEs, and replays a full measurement year: address
//! assignments, session caps, scheduled reconnects, network and power
//! outages, firmware pushes, controller drops, probe moves, and one optional
//! administrative renumbering. It emits:
//!
//! * an [`logs::AtlasDataset`] — the three log datasets plus probe metadata,
//!   in exactly the shape the analysis pipeline (`dynaddr-core`) consumes,
//!   stored on disk as one columnar `dataset.store` file;
//! * a [`truth::GroundTruth`] — what actually happened, for validating the
//!   pipeline's inferences.
//!
//! Worlds are described by a [`config::WorldConfig`]; [`world::paper_world`]
//! builds the scripted deployment that mirrors the paper's Tables 5–7
//! populations, scalable from unit-test size to full 10,977-probe scale.
//!
//! The simulation runs sharded: independent ISP components get their own
//! event queues and execute concurrently on the `dynaddr-exec` executor,
//! with output byte-identical at any worker count (see [`sim`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod fill;
pub mod logs;
mod shard;
pub mod sim;
pub mod store;
pub mod stream;
pub mod truth;
pub mod world;

pub use config::{FillerSpec, IspSpec, OutageSpec, WorldConfig};
/// The store's error type, which every dataset reader returns.
pub use dynaddr_store::StoreError;
pub use logs::{
    AtlasDataset, ConnectionLogEntry, KrootPingRecord, LoadError, PeerAddr, ProbeMeta,
    SosUptimeRecord,
};
pub use sim::{
    simulate, simulate_to_store, simulate_with_options, QueueTelemetry, SimOptions, SimOutput,
    SimStats,
};
pub use stream::DatasetStream;
pub use truth::{ChangeCause, GroundTruth, TruthOutage, TruthOutageKind};
pub use world::{paper_route_tables, paper_world};
