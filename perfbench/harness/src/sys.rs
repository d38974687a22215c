//! Process control, `/proc` readings and a raw-frame socket client.

use dynaddr_query::{proto, Request, Response};
use std::io::{self, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn vmhwm_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU seconds (user + system) this process has used so far.
pub fn self_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the `comm` field
    // (which may contain spaces) closes with ')'.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // After ')': state is index 0, so utime (field 14) is index 11.
    (ticks(11) + ticks(12)) / 100.0
}

/// A child process that is killed and reaped when dropped.
pub struct Proc {
    child: Child,
    /// What ran, for messages.
    pub label: String,
}

impl Proc {
    /// Spawns `bin args`, stdout discarded, stderr appended to `log`.
    pub fn spawn(bin: &Path, args: &[&str], log: &Path) -> io::Result<Proc> {
        let err = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)?;
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()?;
        Ok(Proc {
            child,
            label: bin
                .file_name()
                .map_or(String::new(), |n| n.to_string_lossy().into_owned()),
        })
    }

    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Whether the child has exited (and with what success).
    pub fn exited(&mut self) -> Option<bool> {
        self.child.try_wait().ok().flatten().map(|s| s.success())
    }

    /// Kills the child and waits until it has ended.
    pub fn stop(mut self) {
        self.kill_and_reap();
    }

    fn kill_and_reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill_and_reap();
    }
}

/// Runs `bin args` to completion; returns wall seconds, exit success and
/// captured stderr.
pub fn run_timed(bin: &Path, args: &[&str]) -> io::Result<(f64, bool, String)> {
    let t = Instant::now();
    let out = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()?;
    Ok((
        t.elapsed().as_secs_f64(),
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    ))
}

/// The `peak_rss_bytes: N` line `analyze` prints on exit, in MiB.
pub fn reported_rss_mib(stderr: &str) -> Option<f64> {
    let line = stderr
        .lines()
        .rev()
        .find(|l| l.starts_with("peak_rss_bytes:"))?;
    let bytes: f64 = line["peak_rss_bytes:".len()..].trim().parse().ok()?;
    Some(bytes / (1u64 << 20) as f64)
}

/// One connection speaking raw frames: requests are written pre-encoded,
/// replies land in a reused buffer.
pub struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    reply: Vec<u8>,
}

impl Conn {
    /// Connects to `path`.
    pub fn connect(path: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(path)?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            reply: Vec::new(),
        })
    }

    /// Sends one length-prefixed frame and returns the reply body.
    pub fn roundtrip(&mut self, frame: &[u8]) -> io::Result<&[u8]> {
        self.writer.write_all(frame)?;
        let mut len = [0u8; 4];
        self.reader.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if len > proto::MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "reply frame over the protocol cap",
            ));
        }
        self.reply.resize(len, 0);
        self.reader.read_exact(&mut self.reply)?;
        Ok(&self.reply)
    }

    /// Sends a typed request and decodes the reply.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        let (frame, _) = crate::traffic::encode_frames(std::slice::from_ref(req));
        let body = self.roundtrip(&frame)?;
        proto::from_bytes(body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Spawns a server and waits until it answers `Ping`; returns the process,
/// a connection and the seconds from spawn to the first `Pong`.
pub fn spawn_until_ready(
    bin: &Path,
    args: &[&str],
    socket: &Path,
    log: &Path,
    limit: Duration,
) -> io::Result<(Proc, Conn, f64)> {
    let t = Instant::now();
    let mut proc = Proc::spawn(bin, args, log)?;
    loop {
        if let Ok(mut conn) = Conn::connect(socket) {
            if matches!(conn.request(&Request::Ping)?, Response::Pong) {
                let ready = t.elapsed().as_secs_f64();
                return Ok((proc, conn, ready));
            }
            return Err(io::Error::other(format!(
                "{} answered Ping with something else",
                proc.label
            )));
        }
        if proc.exited().is_some() {
            return Err(io::Error::other(format!(
                "{} exited before it was ready (see {})",
                proc.label,
                log.display()
            )));
        }
        if t.elapsed() > limit {
            return Err(io::Error::other(format!(
                "{} not ready after {limit:?}",
                proc.label
            )));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// Scratch directory for one run, removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Creates `path` (replacing any leftover from an earlier run).
    pub fn create(path: PathBuf) -> io::Result<WorkDir> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
