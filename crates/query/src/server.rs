//! Unix-socket serving: accept loop, per-connection threads, client half.
//!
//! The process model is the classic one: [`serve`] binds the socket, the
//! accept loop hands each connection to its own thread, and every thread
//! answers frames against the same shared [`Answerer`] — the answerer's
//! `&self` query path does all the concurrency work. Both daemons reuse
//! this front-end: `queryd` serves a [`QueryEngine`], `dynaddrd` serves
//! its live ingest state; neither reimplements socket cleanup, the stop
//! handle, or worker reaping.
//!
//! The server front-end answers [`Request::ServerStats`] itself from its
//! own atomics (uptime, connection and per-tag request counts, plus the
//! answerer's cache counters), so every backend gets process
//! introspection for free. Per-request latency is recorded into the
//! `query.latency_us` histogram and [`Answerer::on_connection_close`]
//! fires when a connection ends, so a `--trace` sidecar captures the
//! serving metrics without any per-request registry locking beyond the
//! one histogram record.
//!
//! A failed `accept`, such as EMFILE when the process is out of file
//! descriptors, is logged, counted (`query.accept_errors`) and retried
//! after a short pause; it never ends the server.
//!
//! Shutdown is cooperative: [`ServerHandle::stop`] sets a flag and pokes
//! the listener with a dummy connect so `accept` wakes up; the accept
//! loop then joins its connection threads. The CI smoke instead just
//! kills the daemon process — both paths leave the store file untouched
//! because serving never writes.

use crate::cache::CacheStats;
use crate::engine::QueryEngine;
use crate::proto::{self, Request, Response, ServerStatsReply};
use std::io::{self, BufReader, BufWriter, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A request backend the server front-end can serve.
///
/// `answer` must be callable from many connection threads at once; the
/// server never serializes requests.
pub trait Answerer: Send + Sync + 'static {
    /// Answers one request. Unsupported requests should return
    /// [`Response::Error`], not panic.
    fn answer(&self, req: &Request) -> Response;

    /// Called when a connection closes; a natural point to publish
    /// accumulated metrics.
    fn on_connection_close(&self) {}

    /// Result-cache counters for [`Request::ServerStats`], when the
    /// backend has a cache.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
}

impl Answerer for QueryEngine {
    fn answer(&self, req: &Request) -> Response {
        self.query(req)
    }
    fn on_connection_close(&self) {
        self.publish_metrics();
    }
    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache_stats())
    }
}

/// Wire tags a request can carry ([`Request::tag`]), for the per-tag
/// counters.
const REQUEST_TAGS: usize = 11;

/// The server front-end's own counters, shared across connection threads.
struct FrontStats {
    started: Instant,
    connections: AtomicU64,
    by_tag: [AtomicU64; REQUEST_TAGS],
}

impl FrontStats {
    fn new() -> FrontStats {
        FrontStats {
            started: Instant::now(),
            connections: AtomicU64::new(0),
            by_tag: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn snapshot(&self, cache: Option<CacheStats>) -> ServerStatsReply {
        let mut requests_total = 0;
        let mut requests_by_tag = Vec::new();
        for (tag, n) in self.by_tag.iter().enumerate() {
            let n = n.load(Ordering::Relaxed);
            requests_total += n;
            if n > 0 {
                requests_by_tag.push((tag as u32, n));
            }
        }
        let cache = cache.unwrap_or_default();
        ServerStatsReply {
            uptime_secs: self.started.elapsed().as_secs(),
            connections_total: self.connections.load(Ordering::Relaxed),
            requests_total,
            requests_by_tag,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
        }
    }
}

/// How long the accept loop pauses after a failed `accept`.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// A bound, not-yet-running server. Call [`Server::run`] to serve.
pub struct Server<A: Answerer> {
    listener: UnixListener,
    answerer: Arc<A>,
    stop: Arc<AtomicBool>,
    path: PathBuf,
    stats: Arc<FrontStats>,
}

/// Stop control for a running [`Server`], usable from any thread.
#[derive(Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    path: PathBuf,
}

impl ServerHandle {
    /// Asks the accept loop to exit and wakes it up.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` with a throwaway connection; if the listener
        // is already gone there is nothing to wake.
        let _ = UnixStream::connect(&self.path);
    }
}

/// Binds `path` (replacing a stale socket file) for `answerer`.
pub fn serve<A: Answerer>(answerer: Arc<A>, path: &Path) -> io::Result<Server<A>> {
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    Ok(Server {
        listener,
        answerer,
        stop: Arc::new(AtomicBool::new(false)),
        path: path.to_path_buf(),
        stats: Arc::new(FrontStats::new()),
    })
}

impl<A: Answerer> Server<A> {
    /// The bound socket path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A stop control for this server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: Arc::clone(&self.stop),
            path: self.path.clone(),
        }
    }

    /// Runs the accept loop until [`ServerHandle::stop`] is called.
    /// A failed `accept` ends nothing: it is logged, counted in
    /// `query.accept_errors`, and retried after a 10 ms pause.
    /// Connection threads are joined before returning; the socket file is
    /// removed on exit.
    pub fn run(self) -> io::Result<()> {
        let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(e) => {
                    // Such as EMFILE with the descriptor table full: the
                    // pending connection stays queued until a descriptor
                    // frees, and the pause keeps the loop from spinning.
                    dynaddr_obs::warn!("accept failed: {e}");
                    dynaddr_obs::counter_add("query.accept_errors", 1);
                    thread::sleep(ACCEPT_BACKOFF);
                    continue;
                }
            };
            self.stats.connections.fetch_add(1, Ordering::Relaxed);
            let answerer = Arc::clone(&self.answerer);
            let stats = Arc::clone(&self.stats);
            workers.push(thread::spawn(move || {
                // A peer dropping mid-frame is normal churn, not a server
                // error; just close our end.
                let _ = handle_connection(&*answerer, &stats, stream);
                answerer.on_connection_close();
            }));
            // Reap finished workers so a long-lived daemon doesn't
            // accumulate handles.
            workers.retain(|w| !w.is_finished());
        }
        for w in workers {
            let _ = w.join();
        }
        let _ = std::fs::remove_file(&self.path);
        Ok(())
    }
}

fn handle_connection<A: Answerer>(
    answerer: &A,
    stats: &FrontStats,
    stream: UnixStream,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    while let Some(body) = proto::read_frame(&mut reader)? {
        let started = Instant::now();
        let response = match proto::from_bytes::<Request>(&body) {
            Ok(req) => {
                stats.by_tag[usize::from(req.tag())].fetch_add(1, Ordering::Relaxed);
                match req {
                    Request::ServerStats => {
                        Response::ServerStats(stats.snapshot(answerer.cache_stats()))
                    }
                    req => answerer.answer(&req),
                }
            }
            Err(e) => Response::Error(e.to_string()),
        };
        let reply = proto::to_bytes(&response);
        proto::write_frame(&mut writer, &reply)?;
        writer.flush()?;
        dynaddr_obs::hist_record("query.latency_us", started.elapsed().as_micros() as u64);
    }
    Ok(())
}

/// The client half: one connection, synchronous request/response.
pub struct QueryClient {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
}

impl QueryClient {
    /// Connects to a serving socket.
    pub fn connect(path: &Path) -> io::Result<QueryClient> {
        let stream = UnixStream::connect(path)?;
        Ok(QueryClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Connects, retrying while the daemon is still starting up.
    pub fn connect_retry(path: &Path, timeout: Duration) -> io::Result<QueryClient> {
        let deadline = Instant::now() + timeout;
        loop {
            match QueryClient::connect(path) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// Sends one request and returns the raw response frame — the bytes
    /// the determinism checks compare. Clean EOF is an error here: a
    /// request was outstanding.
    pub fn request_bytes(&mut self, req: &Request) -> io::Result<Vec<u8>> {
        let body = proto::to_bytes(req);
        proto::write_frame(&mut self.writer, &body)?;
        self.writer.flush()?;
        proto::read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-request")
        })
    }

    /// Sends one request and decodes the typed response.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        let bytes = self.request_bytes(req)?;
        proto::from_bytes::<Response>(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}
