//! The discrete-event simulation of analyzable probes.
//!
//! Each analyzable probe sits behind a CPE attached to one ISP
//! ([`dynaddr_ispnet::IspNetwork`]). An event loop advances a clock through
//! 2015, processing per-probe events:
//!
//! * **outages** (network / power, Poisson arrivals with per-probe rate
//!   multipliers and heavy-tailed durations) — processed atomically: the
//!   window is recorded, k-root evidence emitted, and the ISP asked what the
//!   address looks like after recovery;
//! * **session-cap expiries** — the ISP-side periodic renumbering;
//! * **scheduled reconnects** — the CPE-side nightly privacy reconnect;
//! * **firmware pushes** — probe-only reboots that look like power outages
//!   until the pipeline's spike filter removes them;
//! * **controller drops** — TCP breaks with no outage and no change;
//! * **moves** — probes that switch ISP mid-year (multi-AS probes);
//! * **administrative renumbering** — one ISP migrating its pool.
//!
//! ## Sharding
//!
//! There is no single global event loop. `World::build` computes only the
//! cheap partition plan: per-net construction recipes (`NetPlan`) and
//! per-probe placements (`ProbePlan`) under stable global ids, which
//! `World::into_shards` groups into connected components (see
//! `crate::shard`): each share-net is its own unit — share pools are
//! independent, so nets of one ASN are only coupled (and unified) when an
//! administrative-renumbering event targets that ASN — and mover probes add
//! the only cross-ISP edges. The expensive half of construction — pools,
//! servers, probe state — happens *inside* the shard map
//! (`Sim::materialize`), so it parallelizes like the event loops
//! themselves. Each shard owns its nets, its probes, and its own
//! [`EventQueue`] (a binary heap that pops by time, then push order), so
//! shards run concurrently on the `dynaddr-exec` executor with no shared
//! mutable state. Every random draw comes from a
//! [`SeedTree`] stream keyed by entity (`("probe", id)`,
//! `("world", asn)` → `("pool", net)`, `("admin", asn)`, …), never from a
//! shared world stream, so a shard replays exactly the event subsequence
//! the unsharded loop would give its entities — and the merged, canonically
//! sorted output is byte-identical at any thread count and any forced shard
//! count.
//!
//! ## Log thinning
//!
//! A real probe pings k-root every 4 minutes (~131 k records per probe per
//! year). Materializing all of them would dominate memory without adding
//! information: the pipeline only reads k-root records (a) inside outage
//! windows and (b) immediately around them. We therefore always emit the
//! 4-minute-grid records *inside and bracketing* every outage window (with
//! long loss runs thinned to an hourly grid after the first hour — first and
//! last loss records are always present, which is all the detector uses),
//! plus all-OK heartbeats at a configurable cadence elsewhere. An
//! equivalence test in `dynaddr-core` verifies detection output is identical
//! on full vs thinned grids.

use crate::config::{CpeSchedule, IspSpec, WorldConfig};
use crate::engine::EventQueue;
use crate::logs::{
    AtlasDataset, ConnectionLogEntry, KrootPingRecord, PeerAddr, ProbeMeta, SosUptimeRecord,
};
use crate::shard::UnionFind;
use crate::truth::{
    ChangeCause, GroundTruth, IspPolicyTruth, TruthChange, TruthOutage, TruthOutageKind,
};
use dynaddr_ispnet::pool::{AddressPool, AllocationPolicy, ClientId};
use dynaddr_ispnet::{AccessConfig, IspNetwork, NextIspAction};
use dynaddr_store::{SegmentSink, StoreError, StreamWriter};
use dynaddr_types::dist::{poisson_gap, DurationDist};
use dynaddr_types::rng::SeedTree;
use dynaddr_types::time::DAY;
use dynaddr_types::{Asn, Country, Prefix, ProbeId, ProbeTag, ProbeVersion, SimDuration, SimTime};
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

/// k-root built-in measurement cadence: every four minutes (§3.4).
const KROOT_GRID: i64 = 240;
/// A network outage longer than this breaks the controller TCP connection.
const TCP_BREAK_SECS: i64 = 180;
/// After the first hour of a loss run, loss records are thinned to this.
const LOSS_THIN_SECS: i64 = 3_600;

/// Simulator output: the scraped-looking dataset plus ground truth.
pub struct SimOutput {
    /// The three log datasets plus probe metadata, normalized.
    pub dataset: AtlasDataset,
    /// What actually happened (never shown to the pipeline).
    pub truth: GroundTruth,
}

/// Runs a full-year simulation of the configured world.
///
/// The world is partitioned into independent shards (one per connected
/// component of nets; see the module docs) that run concurrently on the
/// `dynaddr-exec` executor. The output is byte-identical at any worker
/// count.
pub fn simulate(config: &WorldConfig) -> SimOutput {
    simulate_with_options(config, &SimOptions::default()).0
}

/// The shard layout. Every layout produces byte-identical output; the
/// determinism tests force a few to pin that equivalence.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOptions {
    /// Fold the world's components into at most this many shards
    /// (`None` keeps one shard per component). A cap of 1 puts the whole
    /// world in one shard, which materializes it before any event runs.
    pub shard_cap: Option<usize>,
}

/// Aggregate event-queue traffic across all shards of one simulation,
/// merged associatively so `par_fold` can carry it alongside the output.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueTelemetry {
    /// Events popped, summed over shards.
    pub pops: u64,
    /// Largest pending-event count of any single shard queue.
    pub max_queue_len: usize,
    /// Events popped by the busiest shard — `max_shard_pops` against
    /// `pops / shards` is the balance ratio.
    pub max_shard_pops: u64,
    /// Per-shard pop totals as a distribution: the shape of shard balance,
    /// not just its max.
    pub shard_pops: dynaddr_obs::Histogram,
}

impl QueueTelemetry {
    fn absorb(mut self, q: crate::engine::QueueStats) -> QueueTelemetry {
        self.pops += q.pops;
        self.max_queue_len = self.max_queue_len.max(q.max_len);
        self.max_shard_pops = self.max_shard_pops.max(q.pops);
        self.shard_pops.record(q.pops);
        self
    }

    fn merge(mut self, other: QueueTelemetry) -> QueueTelemetry {
        self.pops += other.pops;
        self.max_queue_len = self.max_queue_len.max(other.max_queue_len);
        self.max_shard_pops = self.max_shard_pops.max(other.max_shard_pops);
        self.shard_pops.merge(&other.shard_pops);
        self
    }

    /// Publish the aggregated telemetry into the global metrics registry.
    /// Called once per simulation from single-threaded control flow, with
    /// values that are already worker-count invariant.
    fn publish(&self, shards: usize) {
        dynaddr_obs::counter_add("sim.events_popped", self.pops);
        dynaddr_obs::gauge_max("sim.max_queue_len", self.max_queue_len as u64);
        dynaddr_obs::gauge_max("sim.shards", shards as u64);
        dynaddr_obs::hist_merge("sim.shard_pops", &self.shard_pops);
    }
}

/// Wall-clock breakdown of one simulation.
#[derive(Debug, Clone, Copy)]
pub struct SimStats {
    /// How many shards the world was partitioned into.
    pub shards: usize,
    /// Seconds spent constructing the world: the serial partition plan plus
    /// every shard's net/probe materialization. Materialization runs inside
    /// the shard map, so this is a CPU-seconds sum — at one worker it equals
    /// wall clock, at many it exceeds its wall-clock share.
    pub world_build_s: f64,
    /// Seconds spent running the sharded event loops, excluding
    /// [`SimStats::world_build_s`].
    pub event_loop_s: f64,
    /// Seconds spent generating filler probes.
    pub filler_s: f64,
    /// Seconds spent putting the rows in canonical order: the global sorts
    /// of [`simulate_with_options`], or the spill merge of
    /// [`simulate_to_store`].
    pub normalize_s: f64,
    /// Aggregate queue traffic across shards.
    pub queue: QueueTelemetry,
}

impl SimStats {
    /// Load-balance ratio of the shard partition: events in the busiest
    /// shard over the per-shard mean. 1.0 is perfect balance; `shards` is
    /// one shard doing all work. It describes how the world was cut into
    /// shards, not how the executor dealt them to workers: the partition
    /// is the same at any worker count, so this ratio is too.
    pub fn shard_balance(&self) -> f64 {
        if self.shards == 0 || self.queue.pops == 0 {
            return 1.0;
        }
        let mean = self.queue.pops as f64 / self.shards as f64;
        self.queue.max_shard_pops as f64 / mean
    }
}

/// [`simulate`] with explicit options, plus per-stage timings and queue
/// telemetry.
///
/// Collects every shard's and filler chunk's rows in memory and sorts
/// them once, globally, with `normalize()`: the reference the out-of-core
/// [`simulate_to_store`] is held to byte for byte.
pub fn simulate_with_options(config: &WorldConfig, opts: &SimOptions) -> (SimOutput, SimStats) {
    let pieces = Mutex::new(Vec::new());
    let (mut truth, mut stats) = run_world(config, opts, &|run, rows| {
        pieces.lock().expect("pieces lock").push((run, rows));
    });
    let sp = dynaddr_obs::span("sim_normalize");
    let mut pieces = pieces.into_inner().expect("pieces lock");
    // Run order, the sink merge's tie-break, so the stable sort below
    // keeps the reference deterministic even if two runs shared a probe.
    pieces.sort_by_key(|&(run, _)| run);
    let mut dataset = AtlasDataset::default();
    for (_, mut rows) in pieces {
        dataset.meta.append(&mut rows.meta);
        dataset.connections.append(&mut rows.connections);
        dataset.kroot.append(&mut rows.kroot);
        dataset.uptime.append(&mut rows.uptime);
    }
    dataset.normalize();
    truth.normalize();
    stats.normalize_s = sp.finish_secs();
    (SimOutput { dataset, truth }, stats)
}

/// Runs the simulation out-of-core, writing `dataset.store` at `out_path`.
///
/// Each shard and filler chunk sorts its rows with the canonical
/// `normalize()` keys and appends them to a [`SegmentSink`] run as it
/// completes; the sink's key-ordered merge then streams the file through
/// a [`StreamWriter`]. Because probes are partitioned across runs,
/// merging sorted runs by key reproduces the global stable sort exactly —
/// the file is byte-identical to
/// `simulate_with_options(config, opts).0.dataset.to_store_bytes()`, but the
/// full dataset never materializes: peak memory is the largest live shard
/// plus one decoded segment per run, not the dataset.
///
/// Returns the normalized ground truth and stats; on this path
/// [`SimStats::normalize_s`] times the k-way merge that replaces the
/// global sort, and [`SimStats::event_loop_s`] includes the per-shard
/// sort-and-encode work.
pub fn simulate_to_store(
    config: &WorldConfig,
    opts: &SimOptions,
    out_path: &std::path::Path,
) -> Result<(GroundTruth, SimStats), StoreError> {
    let spill_path = out_path.with_extension("spill");
    let sink = SegmentSink::create(&spill_path)?;
    // The fold must stay infallible, so the first append failure parks
    // here until the fold is done.
    let sink_err: Mutex<Option<StoreError>> = Mutex::new(None);
    let (mut truth, mut stats) = run_world(config, opts, &|run, mut rows| {
        // Run-local canonical sort: same keys, same stability as
        // AtlasDataset::normalize, restricted to this run's probes.
        rows.meta.sort_by_key(|m| m.probe);
        rows.connections.sort_by_key(|c| (c.probe, c.start, c.end));
        rows.kroot.sort_by_key(|k| (k.probe, k.timestamp));
        rows.uptime.sort_by_key(|u| (u.probe, u.timestamp));
        // Each append encodes on this worker and locks the sink only to
        // write the frames, so workers encode concurrently.
        let appended = sink
            .append(run, &rows.meta)
            .and_then(|_| sink.append(run, &rows.connections))
            .and_then(|_| sink.append(run, &rows.kroot))
            .and_then(|_| sink.append(run, &rows.uptime));
        if let Err(e) = appended {
            sink_err.lock().expect("sink error lock").get_or_insert(e);
        }
    });

    let sp_merge = dynaddr_obs::span("store_merge");
    let merged = match sink_err.into_inner().expect("sink error lock") {
        Some(e) => Err(e),
        None => merge_spill(sink, out_path),
    };
    let _ = std::fs::remove_file(&spill_path);
    merged?;
    truth.normalize();
    stats.normalize_s = sp_merge.finish_secs();
    Ok((truth, stats))
}

/// Merges a finished spill's runs into the store file at `out_path`, one
/// table at a time in file order.
fn merge_spill(sink: SegmentSink, out_path: &std::path::Path) -> Result<(), StoreError> {
    let mut merger = sink.finish()?;
    let file = std::fs::File::create(out_path)
        .map_err(|e| StoreError::io(format!("create {}", out_path.display()), e))?;
    let mut w = StreamWriter::new(std::io::BufWriter::new(file))?;
    merger.merge_table::<ProbeMeta, _>(&mut w)?;
    merger.merge_table::<ConnectionLogEntry, _>(&mut w)?;
    merger.merge_table::<KrootPingRecord, _>(&mut w)?;
    merger.merge_table::<SosUptimeRecord, _>(&mut w)?;
    w.finish()?;
    Ok(())
}

/// The one shard fold both entry points share. Plans and partitions the
/// world, runs every shard on the executor, then generates the filler
/// probes, handing each finished shard's and filler chunk's rows to
/// `emit` with its run id: the shard's position in the deterministic
/// shard order, filler chunks numbered after the last shard. Returns the
/// merged ground truth, not yet normalized, and the stats; the caller,
/// which puts the rows in order, fills in [`SimStats::normalize_s`].
fn run_world(
    config: &WorldConfig,
    opts: &SimOptions,
    emit: &(dyn Fn(u64, AtlasDataset) + Sync),
) -> (GroundTruth, SimStats) {
    // The world plan. The truth it returns is the part no shard owns,
    // merged after the fold like one more shard's: ISP policies, firmware
    // dates and, when there is no shard to replay it, the administrative
    // renumbering.
    let sp_plan = dynaddr_obs::span("world_plan");
    let mut world = World::build(config);
    let mut world_truth = std::mem::take(&mut world.truth);
    let admin = world.admin.as_ref().map(|(asn, when, _)| (*asn, *when));
    let shards = world.into_shards(opts);
    if shards.is_empty() {
        // No nets, so no shard replays the admin event; the unsharded loop
        // would still have popped it and recorded the fact.
        world_truth.admin_renumbering = admin.filter(|(_, when)| *when < SimTime::YEAR_END);
    }
    let plan_build_s = sp_plan.finish_secs();
    let n_shards = shards.len();

    let progress = dynaddr_obs::Progress::start("sim_shards", n_shards as u64);
    let sp_loop = dynaddr_obs::span("sim_event_loop");
    let runs: Vec<(u64, Sim)> = shards
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i as u64, s))
        .collect();
    let (truth, queue, shard_build_s, max_id) = dynaddr_exec::par_fold(
        runs,
        || {
            (
                GroundTruth::default(),
                QueueTelemetry::default(),
                0.0f64,
                0u32,
            )
        },
        |(acc, tel, build_s, max_id), (run, mut shard)| {
            let b = shard.run();
            let q = shard.queue.stats();
            progress.add(1);
            let shard_max = shard
                .dataset
                .meta
                .iter()
                .map(|m| m.probe.0)
                .max()
                .unwrap_or(0);
            emit(run, shard.dataset);
            (
                merge_truths(acc, shard.truth),
                tel.absorb(q),
                build_s + b,
                max_id.max(shard_max),
            )
        },
        |(a, ta, ba, ma), (b, tb, bb, mb)| (merge_truths(a, b), ta.merge(tb), ba + bb, ma.max(mb)),
    );
    let loop_wall_s = sp_loop.finish_secs();
    progress.finish();
    let truth = merge_truths(truth, world_truth);

    let sp_filler = dynaddr_obs::span("sim_filler");
    crate::fill::generate_filler(config, max_id + 1, n_shards as u64, emit);
    let filler_s = sp_filler.finish_secs();

    // Shards materialize inside the event-loop wall time, so their build
    // seconds move from the loop to `world_build_s`.
    queue.publish(n_shards);
    let stats = SimStats {
        shards: n_shards,
        world_build_s: plan_build_s + shard_build_s,
        event_loop_s: (loop_wall_s - shard_build_s).max(0.0),
        filler_s,
        normalize_s: 0.0,
        queue,
    };
    (truth, stats)
}

/// Concatenates two partial truths, left before right: the fold's merge,
/// also used to attach the world-level truth after it. `normalize` sorts
/// the result.
fn merge_truths(mut a: GroundTruth, mut b: GroundTruth) -> GroundTruth {
    a.changes.append(&mut b.changes);
    a.outages.append(&mut b.outages);
    a.firmware_reboots.append(&mut b.firmware_reboots);
    a.isp_policies.append(&mut b.isp_policies);
    a.admin_renumbering = a.admin_renumbering.or(b.admin_renumbering);
    if a.firmware_dates.is_empty() {
        a.firmware_dates = std::mem::take(&mut b.firmware_dates);
    }
    a
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    CapExpiry { p: usize, epoch: u64 },
    Scheduled { p: usize, epoch: u64 },
    NetOutage { p: usize },
    PwOutage { p: usize },
    Firmware { p: usize },
    CtrlDrop { p: usize, epoch: u64 },
    Move { p: usize },
    AdminRenumber { asn: Asn },
}

#[derive(Debug, Clone, Copy)]
struct ScheduleCfg {
    hour: u32,
    minute: u32,
    skip_prob: f64,
}

struct ProbeSim {
    id: ProbeId,
    version: ProbeVersion,
    country: Country,
    tags: Vec<ProbeTag>,
    net: usize,
    client: ClientId,
    mover_target: Option<(usize, SimTime)>,
    usb_fate_shared: bool,
    schedule: Option<ScheduleCfg>,
    net_rate: f64,
    pw_rate: f64,
    net_dur: DurationDist,
    pw_dur: DurationDist,
    frail: bool,
    join: SimTime,
    // dynamic state
    epoch: u64,
    addr: Option<Ipv4Addr>,
    conn_open: Option<SimTime>,
    boot_time: SimTime,
    offline_until: SimTime,
    kroot_phase: i64,
    windows: Vec<(SimTime, SimTime)>,
    rng: ChaCha12Rng,
}

/// World-level simulation parameters, cloned into every shard.
#[derive(Clone)]
struct SimParams {
    seeds: SeedTree,
    kroot_heartbeat: i64,
    frail_reboot_prob: f64,
    ctrl_drop_rate: f64,
    firmware_dates: Vec<SimTime>,
    firmware_uptake: f64,
    /// The ISP specs, shared with every shard so probes can be materialized
    /// shard-locally from their plans.
    isps: Arc<Vec<IspSpec>>,
}

/// Construction recipe for one share-net: everything a shard needs to
/// materialize the [`IspNetwork`] locally. Building from the plan is
/// O(prefixes) — the pool's background occupancy is the implicit function
/// of `pool_seed`, so no bitmap and no RNG sweep exist anywhere.
struct NetPlan {
    asn: Asn,
    access: AccessConfig,
    prefixes: Arc<Vec<Prefix>>,
    policy: AllocationPolicy,
    occupancy: f64,
    /// Seed of the pool's implicit background occupancy, derived from the
    /// `("world", asn)` → `("pool", net)` SeedTree path: it depends only on
    /// the net's stable global index, never on shard layout or build order.
    pool_seed: u64,
}

/// Placement of one probe, decided in the cheap planning pass so the
/// partition knows probe → net; everything else about the probe is
/// re-derived shard-locally from its `("probe", id)` stream.
struct ProbePlan {
    id: u32,
    /// Index of the probe's origin ISP in the spec list.
    isp: usize,
    /// Chosen access share within that ISP (the plan's one RNG draw).
    share: usize,
    ordinal: usize,
    /// Origin net — global until [`World::into_shards`] remaps it.
    net: usize,
    mover_target: Option<(usize, SimTime)>,
}

/// The planned world before partitioning: per-net recipes and per-probe
/// placements under stable global indices, plus the world-level truth no
/// shard owns. Materialization happens per shard, after partitioning.
struct World {
    net_plans: Vec<NetPlan>,
    net_asn: Vec<Asn>,
    probe_plans: Vec<ProbePlan>,
    truth: GroundTruth,
    admin: Option<(Asn, SimTime, Arc<Vec<Prefix>>)>,
    params: SimParams,
}

/// One shard's event loop: a private set of nets and probes (materialized
/// from plans by [`Sim::materialize`]), a private queue, and private output
/// buffers.
struct Sim {
    net_plans: Vec<NetPlan>,
    probe_plans: Vec<ProbePlan>,
    nets: Vec<IspNetwork>,
    net_asn: Vec<Asn>,
    probes: Vec<ProbeSim>,
    probes_by_asn: BTreeMap<u32, Vec<usize>>,
    queue: EventQueue<Ev>,
    dataset: AtlasDataset,
    truth: GroundTruth,
    params: SimParams,
    admin: Option<(Asn, SimTime, Arc<Vec<Prefix>>)>,
}

impl World {
    fn build(config: &WorldConfig) -> World {
        let seeds = SeedTree::new(config.seed);
        let mut net_plans = Vec::new();
        let mut net_asn = Vec::new();
        let mut probe_plans: Vec<ProbePlan> = Vec::new();
        let mut truth = GroundTruth {
            firmware_dates: config.firmware_dates.clone(),
            ..GroundTruth::default()
        };

        // Plan one share-net per (ISP, access share). Shares of an ISP draw
        // from one `Arc`-shared prefix list; address collisions across
        // shares are harmless because the analysis never compares addresses
        // across probes.
        let mut isp_nets: Vec<Vec<usize>> = Vec::new();
        for spec in &config.isps {
            let world_seeds = seeds.child_id("world", u64::from(spec.asn.0));
            let prefixes = Arc::new(spec.prefixes.clone());
            let mut share_nets = Vec::new();
            for share in &spec.shares {
                let net_idx = net_plans.len();
                net_plans.push(NetPlan {
                    asn: spec.asn,
                    access: share.access.clone(),
                    prefixes: Arc::clone(&prefixes),
                    policy: spec.allocation,
                    occupancy: spec.occupancy,
                    pool_seed: world_seeds.child_id("pool", net_idx as u64).root(),
                });
                net_asn.push(spec.asn);
                share_nets.push(net_idx);
            }
            isp_nets.push(share_nets);

            let mut periodic_hours: Vec<i64> = spec
                .shares
                .iter()
                .filter_map(|s| s.access.periodic_period().map(|d| d.secs() / 3_600))
                .collect();
            periodic_hours.sort_unstable();
            periodic_hours.dedup();
            let total_w: f64 = spec.shares.iter().map(|s| s.weight).sum();
            let periodic_w: f64 = spec
                .shares
                .iter()
                .filter(|s| s.access.periodic_period().is_some() || s.schedule.is_some())
                .map(|s| s.weight)
                .sum();
            truth.isp_policies.insert(
                spec.asn.0,
                IspPolicyTruth {
                    name: spec.name.clone(),
                    country: spec.country.code().to_string(),
                    periodic_hours,
                    renumbers_on_reconnect: spec
                        .shares
                        .iter()
                        .any(|s| s.access.renumbers_on_reconnect()),
                    periodic_weight: periodic_w / total_w.max(f64::MIN_POSITIVE),
                    probes: spec.probes,
                },
            );
        }

        // Plan analyzable probes. A probe's share pick is the first draw of
        // its ("probe", id) stream; the plan consumes it here (the partition
        // needs probe → net) and `make_probe` burns the same draw when the
        // shard materializes, keeping every later draw aligned.
        let mut next_probe_id = 1u32;
        for (isp_idx, spec) in config.isps.iter().enumerate() {
            for k in 0..spec.probes {
                let p = plan_probe(
                    &seeds,
                    spec,
                    isp_idx,
                    &isp_nets[isp_idx],
                    next_probe_id,
                    k,
                    None,
                );
                probe_plans.push(p);
                next_probe_id += 1;
            }
        }

        // Movers: probes that switch between two ISPs mid-year. Hosts move
        // house, not continent: the partner ISP is the next one in the same
        // country, falling back to the same continent, then to anything.
        if config.movers > 0 && config.isps.len() >= 2 {
            let mut mover_rng = seeds.rng_for("movers");
            let partner_of = |from: usize| -> usize {
                let n = config.isps.len();
                let country = config.isps[from].country;
                let continent = country.continent();
                let mut same_continent: Option<usize> = None;
                for k in 1..n {
                    let cand = (from + k) % n;
                    if config.isps[cand].country == country {
                        return cand;
                    }
                    if same_continent.is_none()
                        && config.isps[cand].country.continent() == continent
                    {
                        same_continent = Some(cand);
                    }
                }
                same_continent.unwrap_or((from + 1) % n)
            };
            for m in 0..config.movers {
                let from_isp = m % config.isps.len();
                let to_isp = partner_of(from_isp);
                let switch_day = mover_rng.gen_range(60..300);
                let switch = SimTime(switch_day * DAY + mover_rng.gen_range(0..DAY));
                // Weighted share pick within the target ISP.
                let target_spec = &config.isps[to_isp];
                let total_w: f64 = target_spec.shares.iter().map(|s| s.weight).sum();
                let pick = mover_rng.gen::<f64>() * total_w;
                let target_net = isp_nets[to_isp][pick_share(pick, &target_spec.shares)];
                let spec = &config.isps[from_isp];
                let p = plan_probe(
                    &seeds,
                    spec,
                    from_isp,
                    &isp_nets[from_isp],
                    next_probe_id,
                    10_000 + m,
                    Some((target_net, switch)),
                );
                probe_plans.push(p);
                next_probe_id += 1;
            }
        }

        World {
            net_plans,
            net_asn,
            probe_plans,
            truth,
            admin: config
                .admin_renumber
                .clone()
                .map(|(asn, when, prefixes)| (asn, when, Arc::new(prefixes))),
            params: SimParams {
                seeds,
                kroot_heartbeat: config.kroot_heartbeat.secs().max(KROOT_GRID),
                frail_reboot_prob: config.frail_reboot_prob,
                ctrl_drop_rate: config.controller_drops_per_year / (365.0 * DAY as f64),
                firmware_dates: config.firmware_dates.clone(),
                firmware_uptake: config.firmware_uptake,
                isps: Arc::new(config.isps.clone()),
            },
        }
    }

    /// Partitions the world into independently runnable shards. Nets and
    /// probes are distributed in ascending global order, so within a shard
    /// relative order — and with it every event tie-break — matches the
    /// subsequence an unsharded loop would produce for the same entities.
    fn into_shards(mut self, opts: &SimOptions) -> Vec<Sim> {
        let n = self.net_plans.len();
        if n == 0 {
            return Vec::new();
        }
        // Share-nets draw from independent pools, so the only coupling
        // between two nets of one ASN is administrative renumbering, which
        // rebuilds them together and reconnects the ASN's probes in one
        // pass. Unify an ASN's nets only when that event will actually
        // fire for it — every other ISP, however large, splits into
        // per-share components, which is what keeps giant ASNs from
        // bounding shard balance.
        let admin_asn = self
            .admin
            .as_ref()
            .and_then(|(asn, when, _)| (*when < SimTime::YEAR_END).then_some(*asn));
        let mut uf = UnionFind::new(n);
        let mut first_net_of_asn: BTreeMap<u32, usize> = BTreeMap::new();
        for (i, asn) in self.net_asn.iter().enumerate() {
            match first_net_of_asn.entry(asn.0) {
                Entry::Vacant(e) => {
                    e.insert(i);
                }
                Entry::Occupied(e) => {
                    if Some(*asn) == admin_asn {
                        uf.union(*e.get(), i);
                    }
                }
            }
        }
        // Movers are the only cross-ISP edges.
        for p in &self.probe_plans {
            if let Some((target, _)) = p.mover_target {
                uf.union(p.net, target);
            }
        }
        let (comp_of, n_comps) = uf.dense_components();
        let groups = crate::shard::shard_count(n_comps, opts.shard_cap);

        let mut shards: Vec<Sim> = (0..groups)
            .map(|_| Sim::empty(self.params.clone()))
            .collect();
        let mut local_net = vec![0usize; n];
        let mut group_of_net = vec![0usize; n];
        for (i, plan) in self.net_plans.drain(..).enumerate() {
            let g = comp_of[i] % groups;
            group_of_net[i] = g;
            local_net[i] = shards[g].net_plans.len();
            shards[g].net_plans.push(plan);
            shards[g].net_asn.push(self.net_asn[i]);
        }
        for mut p in self.probe_plans.drain(..) {
            let g = group_of_net[p.net];
            if let Some((target, when)) = p.mover_target {
                p.mover_target = Some((local_net[target], when));
            }
            p.net = local_net[p.net];
            shards[g].probe_plans.push(p);
        }
        // The admin event belongs to the shard holding that ASN's nets. An
        // ASN absent from the world still gets the event recorded in truth
        // (matching the unsharded semantics), so park it in shard 0.
        if let Some(admin) = self.admin.take() {
            let g = self
                .net_asn
                .iter()
                .position(|&a| a == admin.0)
                .map(|i| group_of_net[i])
                .unwrap_or(0);
            shards[g].admin = Some(admin);
        }
        shards
    }
}

impl Sim {
    fn empty(params: SimParams) -> Sim {
        Sim {
            net_plans: Vec::new(),
            probe_plans: Vec::new(),
            nets: Vec::new(),
            net_asn: Vec::new(),
            probes: Vec::new(),
            probes_by_asn: BTreeMap::new(),
            queue: EventQueue::with_horizon(SimTime::YEAR_END),
            dataset: AtlasDataset::default(),
            truth: GroundTruth::default(),
            params,
            admin: None,
        }
    }

    /// Materializes the shard's nets and probes from their plans — the
    /// expensive half of world construction, run inside the shard map on
    /// the executor. Returns the seconds spent.
    fn materialize(&mut self) -> f64 {
        let sp = dynaddr_obs::span("shard_materialize");
        let seeds = self.params.seeds;
        for plan in self.net_plans.drain(..) {
            let pool =
                AddressPool::from_parts(plan.prefixes, plan.policy, plan.occupancy, plan.pool_seed);
            self.nets
                .push(IspNetwork::with_pool(plan.asn, pool, plan.access));
        }
        let isps = Arc::clone(&self.params.isps);
        for plan in self.probe_plans.drain(..) {
            let spec = &isps[plan.isp];
            let share = &spec.shares[plan.share];
            let p = make_probe(
                &seeds,
                spec,
                share,
                plan.net,
                plan.id,
                plan.ordinal,
                plan.mover_target,
            );
            // Movers stay registered under their origin ASN, as before.
            let asn = self.net_asn[p.net];
            let local_idx = self.probes.len();
            self.probes_by_asn.entry(asn.0).or_default().push(local_idx);
            self.probes.push(p);
        }
        sp.finish_secs()
    }

    /// Materializes the shard, then runs it to completion. Returns the
    /// seconds spent materializing.
    fn run(&mut self) -> f64 {
        let build_s = self.materialize();
        // Seed initial events. Starts are scheduled "now" (before the year)
        // by running them directly, since the queue horizon only caps the end.
        for p in 0..self.probes.len() {
            self.handle_start(p);
        }
        if let Some((asn, when, _)) = &self.admin {
            let (asn, when) = (*asn, *when);
            self.queue.push(when, Ev::AdminRenumber { asn });
        }
        while let Some((t, ev)) = self.queue.pop() {
            match ev {
                Ev::CapExpiry { p, epoch } => self.handle_cap(p, epoch, t),
                Ev::Scheduled { p, epoch } => self.handle_scheduled(p, epoch, t),
                Ev::NetOutage { p } => self.handle_outage(p, t, false),
                Ev::PwOutage { p } => self.handle_outage(p, t, true),
                Ev::Firmware { p } => self.handle_firmware(p, t),
                Ev::CtrlDrop { p, epoch } => self.handle_ctrl_drop(p, epoch, t),
                Ev::Move { p } => self.handle_move(p, t),
                Ev::AdminRenumber { asn } => self.handle_admin(asn, t),
            }
        }
        self.finalize();
        build_s
    }

    // ----- connection-log helpers ---------------------------------------

    fn close_conn(&mut self, p: usize, end: SimTime) {
        let probe = &mut self.probes[p];
        if let Some(start) = probe.conn_open.take() {
            let peer = PeerAddr::V4(probe.addr.expect("open connection implies an address"));
            let end = end.max(start); // zero-length guards
            self.dataset.connections.push(ConnectionLogEntry {
                probe: probe.id,
                start,
                end,
                peer,
            });
        }
    }

    fn open_conn(&mut self, p: usize, start: SimTime) {
        if start >= SimTime::YEAR_END {
            return;
        }
        let frail_roll = {
            let probe = &mut self.probes[p];
            probe.frail && probe.rng.gen::<f64>() < self.params.frail_reboot_prob
        };
        if frail_roll {
            // v1/v2 memory-fragmentation reboot triggered by the new TCP
            // connection: the uptime counter resets moments before the
            // connection is (re)established, and a couple of ping rounds
            // are missed.
            let probe = &mut self.probes[p];
            let back = probe.rng.gen_range(30..120);
            probe.boot_time = start - SimDuration::from_secs(back);
            let w0 = probe.boot_time - SimDuration::from_secs(90);
            let w1 = probe.boot_time;
            probe.windows.push((w0, w1));
            self.emit_outage_kroot(p, w0, w1, false);
        }
        let probe = &mut self.probes[p];
        probe.conn_open = Some(start);
        let uptime = (start - probe.boot_time).secs().max(0) as u64;
        self.dataset.uptime.push(SosUptimeRecord {
            probe: probe.id,
            timestamp: start,
            uptime_secs: uptime,
        });
    }

    // ----- k-root helpers -------------------------------------------------

    /// Largest grid instant `<= t` for this probe's ping phase.
    fn grid_at_or_before(&self, p: usize, t: SimTime) -> SimTime {
        let phase = self.probes[p].kroot_phase;
        SimTime(t.0 - (t.0 - phase).rem_euclid(KROOT_GRID))
    }

    /// Emits the k-root evidence for an outage window `[t0, t1)`.
    ///
    /// `probe_alive` — during network outages the probe keeps measuring
    /// (loss records with growing LTS); during power outages it is silent
    /// and only the bracketing all-OK records are emitted. No record lies
    /// a day or more past the measurement year: an outage that outlasts
    /// the year ends its loss run there, with no recovery record.
    fn emit_outage_kroot(&mut self, p: usize, t0: SimTime, t1: SimTime, probe_alive: bool) {
        let horizon = SimTime::YEAR_END + SimDuration::from_days(1);
        let id = self.probes[p].id;
        let pre = self.grid_at_or_before(p, t0);
        let base_lts = self.probes[p].rng.gen_range(20..220);
        self.dataset.kroot.push(KrootPingRecord {
            probe: id,
            timestamp: pre,
            sent: 3,
            success: 3,
            lts_secs: base_lts,
        });
        if probe_alive {
            // Loss records at the 4-minute grid, thinned after the first
            // hour; the final loss record is always emitted (the detector
            // uses first and last loss only).
            let mut g = pre + SimDuration::from_secs(KROOT_GRID);
            let mut last_emitted: Option<SimTime> = None;
            let mut last_loss: Option<SimTime> = None;
            while g < t1.min(horizon) {
                let in_first_hour = (g - t0).secs() <= 3_600;
                let on_thin_grid = (g.0 - pre.0) % LOSS_THIN_SECS < KROOT_GRID;
                if in_first_hour || on_thin_grid {
                    self.dataset.kroot.push(KrootPingRecord {
                        probe: id,
                        timestamp: g,
                        sent: 3,
                        success: 0,
                        lts_secs: base_lts + (g - pre).secs(),
                    });
                    last_emitted = Some(g);
                }
                last_loss = Some(g);
                g += SimDuration::from_secs(KROOT_GRID);
            }
            if let Some(last) = last_loss {
                if last_emitted != Some(last) {
                    self.dataset.kroot.push(KrootPingRecord {
                        probe: id,
                        timestamp: last,
                        sent: 3,
                        success: 0,
                        lts_secs: base_lts + (last - pre).secs(),
                    });
                }
            }
        }
        // First all-OK round after recovery.
        let mut post = self.grid_at_or_before(p, t1);
        if post < t1 {
            post += SimDuration::from_secs(KROOT_GRID);
        }
        if post < horizon {
            let lts = self.probes[p].rng.gen_range(20..220);
            self.dataset.kroot.push(KrootPingRecord {
                probe: id,
                timestamp: post,
                sent: 3,
                success: 3,
                lts_secs: lts,
            });
        }
    }

    // ----- scheduling helpers ----------------------------------------------

    /// Re-arms ISP-side and CPE-side periodic events after a state change.
    fn rearm(&mut self, p: usize, from: SimTime) {
        let epoch = self.probes[p].epoch;
        let client = self.probes[p].client;
        let net = self.probes[p].net;
        if let Some(NextIspAction::CapExpiry(t)) = self.nets[net].next_action(client) {
            self.queue.push(t.max(from), Ev::CapExpiry { p, epoch });
        }
        if let Some(s) = self.probes[p].schedule {
            let t = next_daily(from, s.hour, s.minute);
            self.queue.push(t, Ev::Scheduled { p, epoch });
        }
    }

    fn schedule_outage(&mut self, p: usize, from: SimTime, power: bool) {
        let probe = &mut self.probes[p];
        let rate = if power { probe.pw_rate } else { probe.net_rate };
        if let Some(gap) = poisson_gap(&mut probe.rng, rate) {
            let ev = if power {
                Ev::PwOutage { p }
            } else {
                Ev::NetOutage { p }
            };
            self.queue.push(from + gap, ev);
        }
    }

    fn schedule_ctrl_drop(&mut self, p: usize, from: SimTime) {
        let epoch = self.probes[p].epoch;
        if let Some(gap) = poisson_gap(&mut self.probes[p].rng, self.params.ctrl_drop_rate) {
            self.queue.push(from + gap, Ev::CtrlDrop { p, epoch });
        }
    }

    // ----- event handlers ---------------------------------------------------

    fn handle_start(&mut self, p: usize) {
        let join = self.probes[p].join;
        let client = self.probes[p].client;
        let net = self.probes[p].net;
        let out = {
            let probe = &mut self.probes[p];
            self.nets[net].connect(&mut probe.rng, client, join, None)
        };
        self.probes[p].addr = Some(out.addr);
        let delay = self.probes[p].rng.gen_range(5..60);
        self.open_conn(p, join + SimDuration::from_secs(delay));
        self.rearm(p, join);
        self.schedule_outage(p, join, false);
        self.schedule_outage(p, join, true);
        self.schedule_ctrl_drop(p, join);
        if let Some((_, switch)) = self.probes[p].mover_target {
            self.queue.push(switch, Ev::Move { p });
        }
        // Firmware pushes: each update reaches this probe with probability
        // `firmware_uptake`, staggered over the following 36 hours.
        for i in 0..self.params.firmware_dates.len() {
            let date = self.params.firmware_dates[i];
            let probe = &mut self.probes[p];
            if probe.rng.gen::<f64>() < self.params.firmware_uptake {
                let stagger = probe.rng.gen_range(0..(36 * 3_600));
                self.queue
                    .push(date + SimDuration::from_secs(stagger), Ev::Firmware { p });
            }
        }
    }

    /// An outage hits the CPE/probe at `t`. `power` distinguishes loss of
    /// power (at the CPE; fate-sharing decides whether the probe dies too)
    /// from pure connectivity loss.
    fn handle_outage(&mut self, p: usize, t: SimTime, power: bool) {
        if t < self.probes[p].offline_until {
            // Another outage is still in progress; try again after it.
            let resume = self.probes[p].offline_until;
            self.schedule_outage(p, resume, power);
            return;
        }
        let dur = {
            let probe = &mut self.probes[p];
            // Disjoint field borrows: the distribution is read-only while
            // the RNG advances, so no clone per event.
            let dist = if power { &probe.pw_dur } else { &probe.net_dur };
            let mut d = dist.sample_duration(&mut probe.rng);
            if power {
                // A power cycle is never shorter than the reboot time.
                d = d.max(SimDuration::from_secs(90));
            } else {
                d = d.max(SimDuration::from_secs(20));
            }
            d
        };
        let end = t + dur;
        let probe_dies = power && self.probes[p].usb_fate_shared;
        let kind = match (power, probe_dies) {
            (true, true) => TruthOutageKind::Power,
            (true, false) => TruthOutageKind::CpeOnlyPower,
            (false, _) => TruthOutageKind::Network,
        };
        self.probes[p].windows.push((t, end));
        self.probes[p].offline_until = end;
        // k-root evidence: the probe keeps measuring unless it lost power.
        self.emit_outage_kroot(p, t, end, !probe_dies);
        if probe_dies {
            self.probes[p].boot_time = end;
        }
        self.probes[p].epoch += 1;

        // ISP-side recovery.
        let client = self.probes[p].client;
        let net = self.probes[p].net;
        let out = {
            let probe = &mut self.probes[p];
            self.nets[net].connect(&mut probe.rng, client, end, Some(dur))
        };
        let changed = self.probes[p].addr != Some(out.addr);

        let breaks = probe_dies || changed || dur.secs() > TCP_BREAK_SECS;
        if breaks {
            self.close_conn(p, t);
        }
        self.probes[p].addr = Some(out.addr);
        if breaks {
            let delay = {
                let probe = &mut self.probes[p];
                if changed && !probe_dies {
                    // TCP retransmission exhaustion before reconnecting.
                    probe.rng.gen_range(600..1_560)
                } else {
                    probe.rng.gen_range(60..240)
                }
            };
            self.open_conn(p, end + SimDuration::from_secs(delay));
        }

        self.truth.outages.push(TruthOutage {
            probe: self.probes[p].id,
            kind,
            start: t,
            duration: dur,
            address_changed: changed,
        });
        if changed {
            self.truth.changes.push(TruthChange {
                probe: self.probes[p].id,
                time: end,
                from: None,
                to: out.addr,
                cause: if power {
                    ChangeCause::PowerOutage
                } else {
                    ChangeCause::NetworkOutage
                },
            });
        }
        self.rearm(p, end);
        self.schedule_outage(p, end, power);
        self.schedule_ctrl_drop(p, end);
    }

    fn handle_cap(&mut self, p: usize, epoch: u64, t: SimTime) {
        if self.probes[p].epoch != epoch {
            return;
        }
        if t < self.probes[p].offline_until {
            // Probe is in a (firmware-style) window; defer.
            let resume = self.probes[p].offline_until + SimDuration::from_secs(60);
            self.queue.push(resume, Ev::CapExpiry { p, epoch });
            return;
        }
        let client = self.probes[p].client;
        let net = self.probes[p].net;
        let out = {
            let probe = &mut self.probes[p];
            self.nets[net].handle_action(&mut probe.rng, client, t)
        };
        // Judge the change against the probe's own view — the server's
        // memory may have been reset by administrative renumbering.
        let changed = self.probes[p].addr != Some(out.addr);
        if !changed {
            // Skipped termination: session runs another period.
            if let Some(NextIspAction::CapExpiry(next)) = self.nets[net].next_action(client) {
                self.queue.push(next, Ev::CapExpiry { p, epoch });
            }
            return;
        }
        self.close_conn(p, t);
        self.probes[p].addr = Some(out.addr);
        self.probes[p].epoch += 1;
        let delay = self.probes[p].rng.gen_range(600..1_560);
        self.open_conn(p, t + SimDuration::from_secs(delay));
        let cause = match self.nets[net].access() {
            dynaddr_ispnet::AccessConfig::Dhcp(_) => ChangeCause::PoolRotation,
            dynaddr_ispnet::AccessConfig::Ppp(_) => ChangeCause::PeriodicCap,
        };
        self.truth.changes.push(TruthChange {
            probe: self.probes[p].id,
            time: t,
            from: None,
            to: out.addr,
            cause,
        });
        self.rearm(p, t);
    }

    fn handle_scheduled(&mut self, p: usize, epoch: u64, t: SimTime) {
        if self.probes[p].epoch != epoch {
            return;
        }
        if t < self.probes[p].offline_until {
            let resume = self.probes[p].offline_until + SimDuration::from_secs(60);
            self.queue.push(resume, Ev::Scheduled { p, epoch });
            return;
        }
        let (skip, hour, minute) = {
            let s = self.probes[p]
                .schedule
                .expect("scheduled event without schedule");
            let roll = self.probes[p].rng.gen::<f64>() < s.skip_prob;
            (roll, s.hour, s.minute)
        };
        if skip {
            let next = next_daily(t, hour, minute);
            self.queue.push(next, Ev::Scheduled { p, epoch });
            return;
        }
        let client = self.probes[p].client;
        let net = self.probes[p].net;
        let out = {
            let probe = &mut self.probes[p];
            self.nets[net].force_reconnect(&mut probe.rng, client, t)
        };
        let changed = self.probes[p].addr != Some(out.addr);
        self.close_conn(p, t);
        self.probes[p].addr = Some(out.addr);
        self.probes[p].epoch += 1;
        let delay = if changed {
            self.probes[p].rng.gen_range(600..1_560)
        } else {
            self.probes[p].rng.gen_range(60..240)
        };
        self.open_conn(p, t + SimDuration::from_secs(delay));
        if changed {
            self.truth.changes.push(TruthChange {
                probe: self.probes[p].id,
                time: t,
                from: None,
                to: out.addr,
                cause: ChangeCause::ScheduledReconnect,
            });
        }
        self.rearm(p, t);
    }

    fn handle_firmware(&mut self, p: usize, t: SimTime) {
        if t < self.probes[p].offline_until || t < self.probes[p].join {
            return; // picked up with the next push
        }
        let reboot_secs = self.probes[p].rng.gen_range(120..300);
        let end = t + SimDuration::from_secs(reboot_secs);
        self.close_conn(p, t);
        self.probes[p].windows.push((t, end));
        self.probes[p].offline_until = end;
        self.emit_outage_kroot(p, t, end, false);
        self.probes[p].boot_time = end;
        self.truth.firmware_reboots.push((self.probes[p].id, end));
        let delay = self.probes[p].rng.gen_range(30..90);
        // Same CPE, same address: the probe reconnects as it was.
        self.open_conn(p, end + SimDuration::from_secs(delay));
    }

    fn handle_ctrl_drop(&mut self, p: usize, epoch: u64, t: SimTime) {
        if self.probes[p].epoch != epoch {
            return;
        }
        if t >= self.probes[p].offline_until && self.probes[p].conn_open.is_some() {
            self.close_conn(p, t);
            let delay = self.probes[p].rng.gen_range(45..180);
            self.open_conn(p, t + SimDuration::from_secs(delay));
        }
        self.schedule_ctrl_drop(p, t);
    }

    fn handle_move(&mut self, p: usize, t: SimTime) {
        let (target_net, _) = self.probes[p].mover_target.expect("move without target");
        self.close_conn(p, t);
        let old_net = self.probes[p].net;
        let client = self.probes[p].client;
        self.nets[old_net].disconnect(client);
        // The physical move takes hours to days; the probe is unpowered.
        let gap_secs = self.probes[p].rng.gen_range(3_600..(72 * 3_600));
        let end = t + SimDuration::from_secs(gap_secs);
        self.probes[p].windows.push((t, end));
        self.probes[p].offline_until = end;
        self.probes[p].boot_time = end;
        self.probes[p].epoch += 1;
        self.probes[p].net = target_net;
        let out = {
            let probe = &mut self.probes[p];
            self.nets[target_net].connect(&mut probe.rng, client, end, None)
        };
        self.probes[p].addr = Some(out.addr);
        let delay = self.probes[p].rng.gen_range(60..240);
        self.open_conn(p, end + SimDuration::from_secs(delay));
        self.truth.changes.push(TruthChange {
            probe: self.probes[p].id,
            time: end,
            from: None,
            to: out.addr,
            cause: ChangeCause::Moved,
        });
        self.rearm(p, end);
    }

    fn handle_admin(&mut self, asn: Asn, t: SimTime) {
        let new_prefixes = self
            .admin
            .as_ref()
            .map(|(_, _, p)| Arc::clone(p))
            .expect("admin event without config");
        self.truth.admin_renumbering = Some((asn, t));
        // Rebuild every share-net of this ASN. The RNG stream is keyed by
        // ASN — not shared with anything else — so the outcome does not
        // depend on shard layout or on events elsewhere in the world.
        let mut admin_rng = self.params.seeds.rng_for_id("admin", u64::from(asn.0));
        for i in 0..self.nets.len() {
            if self.net_asn[i] == asn {
                self.nets[i].admin_renumber(&mut admin_rng, Arc::clone(&new_prefixes), 0.4);
            }
        }
        let members = self.probes_by_asn.get(&asn.0).cloned().unwrap_or_default();
        for p in members {
            if t < self.probes[p].offline_until
                || self.probes[p].net_asn_changed(&self.net_asn, asn)
            {
                continue;
            }
            let stagger = self.probes[p].rng.gen_range(0..1_800);
            let when = t + SimDuration::from_secs(stagger);
            self.close_conn(p, when);
            self.probes[p].epoch += 1;
            let client = self.probes[p].client;
            let net = self.probes[p].net;
            let out = {
                let probe = &mut self.probes[p];
                self.nets[net].connect(&mut probe.rng, client, when, None)
            };
            self.probes[p].addr = Some(out.addr);
            let delay = self.probes[p].rng.gen_range(600..1_560);
            self.open_conn(p, when + SimDuration::from_secs(delay));
            self.truth.changes.push(TruthChange {
                probe: self.probes[p].id,
                time: when,
                from: None,
                to: out.addr,
                cause: ChangeCause::AdminRenumber,
            });
            self.rearm(p, when);
        }
    }

    // ----- finalization -------------------------------------------------------

    fn finalize(&mut self) {
        // Close still-open connections at the collection horizon.
        for p in 0..self.probes.len() {
            self.close_conn(p, SimTime::YEAR_END);
        }
        // Heartbeats + metadata.
        for p in 0..self.probes.len() {
            self.emit_heartbeats(p);
            let probe = &self.probes[p];
            self.dataset.meta.push(ProbeMeta {
                probe: probe.id,
                version: probe.version,
                country: probe.country,
                tags: probe.tags.clone(),
            });
        }
    }

    fn emit_heartbeats(&mut self, p: usize) {
        let (id, join, phase) = (
            self.probes[p].id,
            self.probes[p].join,
            self.probes[p].kroot_phase,
        );
        let step = self.params.kroot_heartbeat;
        // The windows list is only needed here, at end of run: take it
        // rather than cloning one Vec per probe.
        let mut windows = std::mem::take(&mut self.probes[p].windows);
        windows.sort();
        let mut w = 0usize;
        let mut t = SimTime(join.0 - (join.0 - phase).rem_euclid(KROOT_GRID))
            + SimDuration::from_secs(step);
        let guard = SimDuration::from_secs(KROOT_GRID + 60);
        while t < SimTime::YEAR_END {
            while w < windows.len() && windows[w].1 + guard < t {
                w += 1;
            }
            let inside =
                w < windows.len() && windows[w].0 - guard <= t && t <= windows[w].1 + guard;
            if !inside {
                let lts = self.probes[p].rng.gen_range(20..220);
                self.dataset.kroot.push(KrootPingRecord {
                    probe: id,
                    timestamp: t,
                    sent: 3,
                    success: 3,
                    lts_secs: lts,
                });
            }
            t += SimDuration::from_secs(step);
        }
    }
}

impl ProbeSim {
    /// Whether this probe has already moved away from `asn` (movers keep
    /// their original ASN registration in `probes_by_asn`).
    fn net_asn_changed(&self, net_asn: &[Asn], asn: Asn) -> bool {
        net_asn[self.net] != asn
    }
}

/// Next instant strictly after `from` at the given GMT hour:minute.
fn next_daily(from: SimTime, hour: u32, minute: u32) -> SimTime {
    let tod = i64::from(hour) * 3_600 + i64::from(minute) * 60;
    let day = from.0.div_euclid(DAY);
    let mut t = SimTime(day * DAY + tod);
    while t <= from {
        t += SimDuration::from_days(1);
    }
    t
}

/// Weighted share pick. `pick` is a uniform draw already scaled by the
/// total weight; the scan order is the contract the planning pass and the
/// shard-local materialization agree on.
fn pick_share(mut pick: f64, shares: &[crate::config::AccessShare]) -> usize {
    let mut chosen = shares.len() - 1;
    for (si, share) in shares.iter().enumerate() {
        if pick < share.weight {
            chosen = si;
            break;
        }
        pick -= share.weight;
    }
    chosen
}

/// Plans one probe: consumes exactly the first draw of the probe's
/// `("probe", id)` stream (the weighted share pick) and records the
/// placement. [`make_probe`] burns the same draw at materialization, so the
/// rest of the stream is identical either way.
fn plan_probe(
    seeds: &SeedTree,
    spec: &IspSpec,
    isp: usize,
    share_nets: &[usize],
    id: u32,
    ordinal: usize,
    mover_target: Option<(usize, SimTime)>,
) -> ProbePlan {
    let mut rng = seeds.rng_for_id("probe", u64::from(id));
    let total_w: f64 = spec.shares.iter().map(|s| s.weight).sum();
    let pick = rng.gen::<f64>() * total_w;
    let share = pick_share(pick, &spec.shares);
    ProbePlan {
        id,
        isp,
        share,
        ordinal,
        net: share_nets[share],
        mover_target,
    }
}

fn make_probe(
    seeds: &SeedTree,
    spec: &IspSpec,
    share: &crate::config::AccessShare,
    net: usize,
    id: u32,
    ordinal: usize,
    mover_target: Option<(usize, SimTime)>,
) -> ProbeSim {
    let mut rng = seeds.rng_for_id("probe", u64::from(id));

    // Burn the share-pick draw the planning pass consumed (`plan_probe`).
    let _ = rng.gen::<f64>();

    let schedule = share.schedule.and_then(|s: CpeSchedule| {
        if rng.gen::<f64>() < s.adoption {
            let span = if s.window_end_hour >= s.window_start_hour {
                s.window_end_hour - s.window_start_hour
            } else {
                24 - s.window_start_hour + s.window_end_hour
            };
            let hour = (s.window_start_hour + rng.gen_range(0..span.max(1))) % 24;
            Some(ScheduleCfg {
                hour,
                minute: rng.gen_range(0..60),
                skip_prob: s.skip_prob,
            })
        } else {
            None
        }
    });

    let version = {
        let (v1, v2, v3) = spec.version_mix;
        let total = v1 + v2 + v3;
        let roll = rng.gen::<f64>() * total;
        if roll < v1 {
            ProbeVersion::V1
        } else if roll < v1 + v2 {
            ProbeVersion::V2
        } else {
            ProbeVersion::V3
        }
    };

    // Per-probe outage-rate multiplier: households differ.
    let mult = (rng.gen::<f64>() * 1.6 + 0.4).max(0.1); // U(0.4, 2.0)
    let year_secs = 365.0 * DAY as f64;

    // Most probes were deployed before 2015; some join during the year.
    let join = if ordinal % 7 == 6 {
        SimTime(rng.gen_range(0..(300 * DAY)))
    } else {
        SimTime(-rng.gen_range(1..(30 * DAY)))
    };

    ProbeSim {
        id: ProbeId(id),
        version,
        country: spec.country,
        tags: vec![ProbeTag::Home],
        net,
        client: ClientId(u64::from(id)),
        mover_target,
        usb_fate_shared: rng.gen::<f64>() < spec.usb_fate_shared,
        schedule,
        net_rate: spec.outages.network_per_year * mult / year_secs,
        pw_rate: spec.outages.power_per_year * mult / year_secs,
        net_dur: spec.outages.network_duration.clone(),
        pw_dur: spec.outages.power_duration.clone(),
        frail: !version.reliable_uptime(),
        join,
        epoch: 0,
        addr: None,
        conn_open: None,
        boot_time: join - SimDuration::from_days(3),
        offline_until: join,
        kroot_phase: i64::from(id) % KROOT_GRID,
        windows: Vec::new(),
        rng,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AccessShare, FillerSpec, OutageSpec};
    use dynaddr_ispnet::pool::AllocationPolicy;
    use dynaddr_ispnet::{AccessConfig, DhcpConfig, PppConfig};

    fn tiny_world() -> WorldConfig {
        let mut w = WorldConfig::empty(42);
        let mut periodic = IspSpec::new("PeriodicNet", 64500, "DE", 6);
        periodic.prefixes = vec![
            "10.0.0.0/18".parse().unwrap(),
            "10.64.0.0/18".parse().unwrap(),
        ];
        periodic.allocation = AllocationPolicy::RandomAny;
        periodic.shares = vec![AccessShare {
            weight: 1.0,
            access: AccessConfig::Ppp(PppConfig {
                session_cap: Some(SimDuration::from_hours(24)),
                ..PppConfig::default()
            }),
            schedule: None,
        }];
        let mut stable = IspSpec::new("StableNet", 64501, "US", 6);
        stable.prefixes = vec!["172.16.0.0/18".parse().unwrap()];
        stable.outages = OutageSpec::stable();
        stable.shares = vec![AccessShare {
            weight: 1.0,
            access: AccessConfig::Dhcp(DhcpConfig {
                churn_rate_per_hour: 0.01,
                ..DhcpConfig::default()
            }),
            schedule: None,
        }];
        w.isps = vec![periodic, stable];
        w.filler = FillerSpec::none();
        w.firmware_dates = WorldConfig::firmware_dates_2015();
        w
    }

    #[test]
    fn simulation_is_deterministic() {
        let w = tiny_world();
        let a = simulate(&w);
        let b = simulate(&w);
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.truth.changes.len(), b.truth.changes.len());
    }

    #[test]
    fn different_seeds_differ() {
        let w = tiny_world();
        let mut w2 = w.clone();
        w2.seed = 43;
        let a = simulate(&w);
        let b = simulate(&w2);
        assert_ne!(a.dataset.connections, b.dataset.connections);
    }

    #[test]
    fn admin_event_without_nets_is_still_recorded() {
        // No ISPs means no shard to replay the event; both entry points
        // must still record it, as the unsharded loop would.
        let mut w = WorldConfig::empty(5);
        let when = SimTime::from_date(6, 1, 0, 0, 0);
        w.admin_renumber = Some((Asn(64500), when, Vec::new()));
        assert_eq!(
            simulate(&w).truth.admin_renumbering,
            Some((Asn(64500), when))
        );
        let path = std::env::temp_dir().join(format!(
            "dynaddr-admin-no-nets-{}.store",
            std::process::id()
        ));
        let (truth, _) = simulate_to_store(&w, &SimOptions::default(), &path).expect("simulates");
        std::fs::remove_file(&path).ok();
        assert_eq!(truth.admin_renumbering, Some((Asn(64500), when)));
    }

    #[test]
    fn periodic_isp_produces_daily_changes() {
        let out = simulate(&tiny_world());
        let periodic_changes = out
            .truth
            .changes
            .iter()
            .filter(|c| {
                matches!(
                    c.cause,
                    ChangeCause::PeriodicCap | ChangeCause::ScheduledReconnect
                )
            })
            .count();
        // 6 probes × ~365 daily changes, minus outage interruptions.
        assert!(
            periodic_changes > 6 * 250,
            "expected thousands of periodic changes, got {periodic_changes}"
        );
    }

    #[test]
    fn connection_logs_are_well_formed() {
        let out = simulate(&tiny_world());
        assert!(!out.dataset.connections.is_empty());
        for c in &out.dataset.connections {
            assert!(c.end >= c.start, "entry with negative duration: {c:?}");
            assert!(c.end <= SimTime::YEAR_END);
        }
        // Entries of each probe must not overlap.
        for meta in &out.dataset.meta {
            let entries = out.dataset.connections_of(meta.probe);
            for pair in entries.windows(2) {
                assert!(
                    pair[1].start >= pair[0].end,
                    "overlapping connections for {}: {:?} then {:?}",
                    meta.probe,
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn uptime_records_match_connections() {
        let out = simulate(&tiny_world());
        // One SOS record per connection start within the year.
        let starts: usize = out
            .dataset
            .connections
            .iter()
            .filter(|c| c.start < SimTime::YEAR_END)
            .count();
        assert_eq!(out.dataset.uptime.len(), starts);
    }

    #[test]
    fn outage_truth_recorded_for_both_kinds() {
        let out = simulate(&tiny_world());
        let nw = out
            .truth
            .outages
            .iter()
            .filter(|o| o.kind == TruthOutageKind::Network)
            .count();
        let pw = out
            .truth
            .outages
            .iter()
            .filter(|o| o.kind == TruthOutageKind::Power)
            .count();
        assert!(nw > 50, "network outages: {nw}");
        assert!(pw > 20, "power outages: {pw}");
    }

    #[test]
    fn ppp_changes_on_most_outages_dhcp_rarely() {
        let out = simulate(&tiny_world());
        let rate_for = |asn_probe_low: bool| {
            let (mut changed, mut total) = (0, 0);
            for o in &out.truth.outages {
                // Probes 1..=6 are PeriodicNet (PPP), 7..=12 StableNet (DHCP).
                let is_ppp = o.probe.0 <= 6;
                if is_ppp == asn_probe_low && o.kind == TruthOutageKind::Network {
                    total += 1;
                    if o.address_changed {
                        changed += 1;
                    }
                }
            }
            changed as f64 / total.max(1) as f64
        };
        let ppp_rate = rate_for(true);
        let dhcp_rate = rate_for(false);
        assert!(ppp_rate > 0.6, "PPP outage-change rate {ppp_rate}");
        assert!(dhcp_rate < 0.3, "DHCP outage-change rate {dhcp_rate}");
        assert!(ppp_rate > dhcp_rate + 0.3);
    }

    #[test]
    fn firmware_reboots_cluster_on_push_dates() {
        let out = simulate(&tiny_world());
        assert!(!out.truth.firmware_reboots.is_empty());
        for (_, t) in &out.truth.firmware_reboots {
            let close = WorldConfig::firmware_dates_2015()
                .iter()
                .any(|d| (*t - *d).secs() >= 0 && (*t - *d).secs() < 37 * 3_600);
            assert!(close, "firmware reboot at {t} not near any push date");
        }
    }

    #[test]
    fn kroot_evidence_exists_for_network_outages() {
        let out = simulate(&tiny_world());
        let lost = out.dataset.kroot.iter().filter(|k| k.all_lost()).count();
        assert!(lost > 100, "lost-ping records: {lost}");
        // LTS grows during loss runs.
        let mut prev: Option<&KrootPingRecord> = None;
        let mut grew = 0;
        for k in &out.dataset.kroot {
            if let Some(p) = prev {
                if p.probe == k.probe && p.all_lost() && k.all_lost() {
                    assert!(k.lts_secs > p.lts_secs, "LTS must grow in a loss run");
                    grew += 1;
                }
            }
            prev = Some(k);
        }
        assert!(grew > 10);
    }

    #[test]
    fn kroot_rows_stop_a_day_past_the_year() {
        // Every network outage outlasts the rest of the year, so its loss
        // run reaches the horizon; no row, loss or recovery, lies past it.
        let mut w = tiny_world();
        let year = 365.0 * 86_400.0;
        for isp in &mut w.isps {
            isp.outages.network_per_year = 50.0;
            isp.outages.network_duration = DurationDist::Uniform {
                lo: 2.0 * year,
                hi: 3.0 * year,
            };
        }
        let out = simulate(&w);
        let horizon = SimTime::YEAR_END + SimDuration::from_days(1);
        let open = out
            .truth
            .outages
            .iter()
            .filter(|o| o.kind == TruthOutageKind::Network && o.start + o.duration > horizon);
        assert!(open.count() > 0, "no outage outlasts the year");
        assert!(out
            .dataset
            .kroot
            .iter()
            .any(|k| k.all_lost() && k.timestamp.0 > 180 * DAY));
        let late: Vec<&KrootPingRecord> = out
            .dataset
            .kroot
            .iter()
            .filter(|k| k.timestamp >= horizon)
            .collect();
        let first = late.first();
        assert!(
            late.is_empty(),
            "{} k-root rows past the horizon, first {first:?}",
            late.len()
        );
    }

    #[test]
    fn movers_change_as() {
        let mut w = tiny_world();
        w.movers = 2;
        let out = simulate(&w);
        let moved: Vec<_> = out
            .truth
            .changes
            .iter()
            .filter(|c| c.cause == ChangeCause::Moved)
            .collect();
        assert_eq!(moved.len(), 2);
        // Mover address must come from the target ISP's space after moving.
        for c in moved {
            assert!(
                "172.16.0.0/18"
                    .parse::<dynaddr_types::Prefix>()
                    .unwrap()
                    .contains(c.to)
                    || "10.0.0.0/8"
                        .parse::<dynaddr_types::Prefix>()
                        .unwrap()
                        .contains(c.to),
            );
        }
    }

    #[test]
    fn admin_renumber_moves_isp_probes() {
        let mut w = tiny_world();
        w.admin_renumber = Some((
            Asn(64501),
            SimTime::from_date(6, 15, 3, 0, 0),
            vec!["198.18.0.0/17".parse().unwrap()],
        ));
        let out = simulate(&w);
        let admin: Vec<_> = out
            .truth
            .changes
            .iter()
            .filter(|c| c.cause == ChangeCause::AdminRenumber)
            .collect();
        assert!(!admin.is_empty());
        for c in &admin {
            assert!("198.18.0.0/17"
                .parse::<dynaddr_types::Prefix>()
                .unwrap()
                .contains(c.to));
        }
    }

    #[test]
    fn next_daily_computes_following_occurrence() {
        let from = SimTime::from_date(3, 10, 5, 30, 0);
        let t = next_daily(from, 4, 0);
        assert_eq!(t, SimTime::from_date(3, 11, 4, 0, 0));
        let t2 = next_daily(from, 6, 0);
        assert_eq!(t2, SimTime::from_date(3, 10, 6, 0, 0));
        // Exactly at the boundary: strictly after.
        let at = SimTime::from_date(3, 10, 4, 0, 0);
        assert_eq!(next_daily(at, 4, 0), SimTime::from_date(3, 11, 4, 0, 0));
    }
}
