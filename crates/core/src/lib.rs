//! # dynaddr-core
//!
//! The analysis pipeline of *"Reasons Dynamic Addresses Change"*
//! (Padmanabhan et al., IMC 2016) — the paper's primary contribution,
//! reimplemented as a library over the three RIPE-Atlas-style log datasets
//! (`dynaddr-atlas`) and the IP-to-AS substrate (`dynaddr-ip2as`).
//!
//! Stages, in paper order:
//!
//! * [`filtering`] — the Table 2 probe funnel (IPv6-only, dual-stack,
//!   tagged/behavioural multihoming, testing addresses, never-changed,
//!   multi-AS handling);
//! * [`changes`] — address changes, spans, durations, and gaps from
//!   connection logs (§3.1);
//! * [`ttf`] — the total-time-fraction metric and duration clustering
//!   (§4.1);
//! * [`periodic`] — periodic-renumbering classification and Table 5 (§4.4);
//! * [`geo`] — continent/country rollups (Figs. 1 and 3);
//! * [`hourly`] — renumbering synchronization by hour (Figs. 4–5);
//! * [`outages`] — network-outage, reboot, and power-outage detection from
//!   k-root pings and SOS uptime (§3.4–3.6);
//! * [`firmware`] — firmware-reboot spike filtering (Fig. 6, §5.2);
//! * [`assoc`] — outage-to-gap association, conditional change
//!   probabilities, and duration buckets (Figs. 7–9, Table 6);
//! * [`prefixes`] — cross-prefix analysis (Table 7, §6);
//! * [`live`] — the pipeline as incremental per-probe state machines over
//!   an append-only stream, with batch-replay equivalence (the `dynaddrd`
//!   backend);
//! * [`admin`] — administrative-renumbering detection and churn
//!   attribution (the §8 future work, implemented);
//! * [`advisor`] — per-AS address-lifetime advisories, the operational
//!   takeaway for blacklist maintainers and host-tracking researchers;
//! * [`churn`] — daily address-set churn estimation (the CDN-side statistic
//!   the paper's conclusion relates to);
//! * [`pipeline`] — [`pipeline::analyze`], one call from dataset to a full
//!   [`pipeline::AnalysisReport`];
//! * [`report`] — text rendering of every table and figure;
//! * [`stats`] — the small statistics kit underneath.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod advisor;
pub mod assoc;
pub mod changes;
pub mod churn;
pub mod filtering;
pub mod firmware;
pub mod geo;
pub mod hourly;
pub mod live;
pub mod outages;
pub mod periodic;
pub mod pipeline;
pub mod prefixes;
pub mod report;
pub mod stats;
pub mod ttf;

pub use filtering::{filter_probes, FilterCounts, FilterReport, ProbeClass, ProbeMachine};
pub use live::{
    batch_ranges, build_probes, replay_plan, IncrementalAnalyzer, IngestStats, ProbeBatch,
    ProbeView, ReplayRow, ReplayStep, SealedProbes,
};
pub use pipeline::{
    analyze, analyze_streamed, analyze_streamed_batched, AnalysisConfig, AnalysisReport,
};
