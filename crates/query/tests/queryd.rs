//! `queryd` as a process: running out of file descriptors must not end the
//! server. A failed `accept` is logged and retried, and once descriptors
//! free up the server answers again.

use dynaddr_atlas::AtlasDataset;
use dynaddr_query::proto::{self, Request, Response};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any one step may take.
const DEADLINE: Duration = Duration::from_secs(30);

/// Kills the server when the test ends, passing or not.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One `Ping` on a fresh connection, retrying the connect until the
/// deadline; the reply must arrive within the deadline too.
fn ping(socket: &Path) -> Result<Response, String> {
    let started = Instant::now();
    let mut stream = loop {
        match UnixStream::connect(socket) {
            Ok(stream) => break stream,
            Err(e) if started.elapsed() > DEADLINE => return Err(format!("connect: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    stream.set_read_timeout(Some(DEADLINE)).map_err(|e| e.to_string())?;
    proto::write_frame(&mut stream, &proto::to_bytes(&Request::Ping)).map_err(|e| e.to_string())?;
    let body = proto::read_frame(&mut stream)
        .map_err(|e| format!("read: {e}"))?
        .ok_or("server hung up")?;
    proto::from_bytes(&body).map_err(|e| e.to_string())
}

#[test]
fn queryd_survives_running_out_of_file_descriptors() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("queryd-emfile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    AtlasDataset::default().save_dir(&dir).expect("write dataset");
    let socket = dir.join("q.sock");
    let err_path = dir.join("queryd.err");

    // 20 descriptors: stdio, the listener, then two per connection.
    let mut server = Server(
        Command::new("sh")
            .arg("-c")
            .arg("ulimit -n 20 && exec \"$0\" \"$@\"")
            .arg(env!("CARGO_BIN_EXE_queryd"))
            .arg("--data")
            .arg(&dir)
            .arg("--socket")
            .arg(&socket)
            .env("DYNADDR_LOG", "warn")
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(&err_path).expect("stderr file"))
            .spawn()
            .expect("spawn queryd"),
    );
    assert_eq!(ping(&socket), Ok(Response::Pong), "queryd never came up");

    // More idle connections than the server has descriptors: the accepts
    // beyond its limit fail until some close.
    let idle: Vec<UnixStream> =
        (0..30).map(|_| UnixStream::connect(&socket).expect("connect")).collect();
    let started = Instant::now();
    loop {
        if let Some(status) = server.0.try_wait().expect("wait for queryd") {
            let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
            panic!("queryd exited with {status} holding idle connections:\n{stderr}");
        }
        let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
        if stderr.contains("accept failed") {
            break;
        }
        assert!(started.elapsed() < DEADLINE, "no accept ever failed:\n{stderr}");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(idle);

    assert_eq!(ping(&socket), Ok(Response::Pong), "queryd stopped answering");
    assert!(server.0.try_wait().expect("wait for queryd").is_none(), "queryd exited");
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
