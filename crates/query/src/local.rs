//! The independent oracle: answers queries from a batch-loaded dataset.
//!
//! [`LocalAnswerer`] holds a fully-decoded [`AtlasDataset`] and answers the
//! same [`Request`]s the engine does — through the dataset's own per-probe
//! slices, never the store reader, the probe cache, or the footer index.
//! The only shared code is the reply builders in [`crate::engine`], which
//! copy a probe's rows into a reply or derive its events from them;
//! everything upstream of them (decode path, row lookup, aggregation
//! source) is disjoint. That makes
//! `engine bytes == local bytes` a meaningful end-to-end check, and it is
//! exactly the diff the CI query smoke and the crate tests run.

use crate::engine::{records_reply, series_reply, TruthIndex};
use crate::index::StatsIndex;
use crate::proto::{Request, Response};
use dynaddr_atlas::{store as atlas_store, AtlasDataset, GroundTruth};
use dynaddr_ip2as::MonthlySnapshots;
use dynaddr_store::ReadMode;
use dynaddr_types::Asn;
use std::path::Path;

/// Failure opening a local answerer.
#[derive(Debug)]
pub enum LocalError {
    /// Filesystem error, with the path that failed.
    Io(String, std::io::Error),
    /// Dataset failed to load or parse.
    Load(String),
}

impl std::fmt::Display for LocalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocalError::Io(path, e) => write!(f, "{path}: {e}"),
            LocalError::Load(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for LocalError {}

/// Batch-loaded query answerer; see the module docs.
pub struct LocalAnswerer {
    ds: AtlasDataset,
    stats: StatsIndex,
    truth: Option<TruthIndex>,
}

impl LocalAnswerer {
    /// Loads a dataset directory the batch way ([`AtlasDataset::load_dir`])
    /// plus optional `truth.store` and `ip2as/` snapshots, mirroring
    /// [`crate::engine::QueryEngine::open_dir`]'s inputs.
    pub fn open_dir(dir: &Path) -> Result<LocalAnswerer, LocalError> {
        let ds = AtlasDataset::load_dir(dir)
            .map_err(|e| LocalError::Load(format!("{}: {e:?}", dir.display())))?;
        let ip2as = dir.join("ip2as");
        let snaps = if ip2as.is_dir() {
            MonthlySnapshots::load_dir(&ip2as)
                .map_err(|e| LocalError::Io(ip2as.display().to_string(), e))?
        } else {
            MonthlySnapshots::uniform(dynaddr_ip2as::RouteTable::new())
        };
        let truth_path = dir.join("truth.store");
        let truth = if truth_path.is_file() {
            let bytes = std::fs::read(&truth_path)
                .map_err(|e| LocalError::Io(truth_path.display().to_string(), e))?;
            let (truth, _) = atlas_store::truth_from_bytes(&bytes, ReadMode::Strict)
                .map_err(|e| LocalError::Load(format!("truth.store: {e}")))?;
            Some(truth)
        } else {
            None
        };
        Ok(LocalAnswerer::from_parts(ds, &snaps, truth.as_ref()))
    }

    /// Builds the answerer from in-memory parts.
    pub fn from_parts(
        ds: AtlasDataset,
        snaps: &MonthlySnapshots,
        truth: Option<&GroundTruth>,
    ) -> LocalAnswerer {
        let stats = StatsIndex::from_dataset(&ds, snaps);
        LocalAnswerer {
            ds,
            stats,
            truth: truth.map(TruthIndex::new),
        }
    }

    /// The secondary indexes (also the workload operand universe).
    pub fn stats(&self) -> &StatsIndex {
        &self.stats
    }

    /// Whether a ground truth is loaded.
    pub fn truth_available(&self) -> bool {
        self.truth.is_some()
    }

    /// The loaded dataset.
    pub fn dataset(&self) -> &AtlasDataset {
        &self.ds
    }

    /// Answers one request from the batch-loaded rows.
    pub fn answer(&self, req: &Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::ProbeRecords(p) => Response::ProbeRecords(records_reply(
                p.0,
                self.ds.meta_of(*p),
                self.ds.connections_of(*p),
                self.ds.kroot_of(*p),
                self.ds.uptime_of(*p),
            )),
            Request::ProbeSeries(p) => Response::ProbeSeries(series_reply(
                p.0,
                self.ds.meta_of(*p),
                self.ds.connections_of(*p),
                self.ds.kroot_of(*p),
                self.ds.uptime_of(*p),
            )),
            Request::AsSummary(Asn(a)) => Response::AsSummary(self.stats.as_summary(*a)),
            Request::CountrySummary(cc) => Response::CountrySummary(self.stats.country_summary(cc)),
            Request::TopMovers(n) => Response::TopMovers(self.stats.top_movers(*n)),
            Request::ProbeTruth(p) => {
                Response::ProbeTruth(self.truth.as_ref().and_then(|t| t.probe(p.0)).cloned())
            }
            Request::ServerStats => {
                Response::Error("ServerStats is answered by the serving front-end".into())
            }
            Request::DaemonSnapshot | Request::DaemonProbe(_) | Request::IngestStats => {
                Response::Error("daemon-only request; this is a batch query backend".into())
            }
        }
    }
}
