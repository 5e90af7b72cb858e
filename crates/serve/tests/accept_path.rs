//! Accept-path tests: the daemon serves a connection as soon as it
//! arrives (blocking `accept`, no idle sleep), and every way of starting a
//! drain — `begin_drain`, `shutdown::request` (what SIGTERM/SIGINT do) —
//! wakes the blocked accept loop promptly without the wake-up connection
//! ever being handled as a request.
//!
//! `shutdown::request` sets a process-global flag that drains every server
//! in the process, so every test here takes one lock and clears the flag
//! when it ends, pass or panic.

use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use svr_serve::{http, Server, ServerConfig};
use svr_sim::metrics::parse_exposition;
use svr_sim::shutdown;

const TIMEOUT: Duration = Duration::from_secs(60);
/// How long `serve()` may take to return once a drain begins on an idle
/// daemon.
const DRAIN_BOUND: Duration = Duration::from_secs(1);

/// Serializes the tests in this binary and clears the shutdown flag when
/// the test ends.
struct ShutdownGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        shutdown::reset();
    }
}

fn hold_shutdown() -> ShutdownGuard {
    static LOCK: Mutex<()> = Mutex::new(());
    // A previous test that panicked poisons the lock but its guard already
    // cleared the flag; ride through.
    let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    shutdown::reset();
    ShutdownGuard(guard)
}

fn temp_cache(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("svr-accept-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A daemon on an ephemeral port; `done` receives `serve()`'s result, so a
/// test can bound how long the drain takes instead of hanging on a join.
struct Daemon {
    srv: Arc<Server>,
    addr: String,
    done: mpsc::Receiver<std::io::Result<()>>,
    dir: std::path::PathBuf,
}

impl Daemon {
    fn start(tag: &str) -> Daemon {
        let dir = temp_cache(tag);
        let srv = Server::new(ServerConfig {
            cache_dir: dir.clone(),
            workers: 1,
            ..ServerConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let (tx, done) = mpsc::channel();
        let runner = Arc::clone(&srv);
        std::thread::spawn(move || {
            let _ = tx.send(runner.serve(listener));
        });
        let daemon = Daemon {
            srv,
            addr,
            done,
            dir,
        };
        // Up and idle: one answered request, then nothing in flight.
        assert_eq!(daemon.healthz(), 200);
        daemon
    }

    fn healthz(&self) -> u16 {
        http::request(&self.addr, "GET", "/v1/healthz", None, TIMEOUT, |_| {})
            .expect("healthz")
            .status
    }

    /// Waits for `serve()` to return, failing past [`DRAIN_BOUND`] from
    /// `since`.
    fn expect_drained(&self, since: Instant) {
        let left = DRAIN_BOUND.saturating_sub(since.elapsed());
        match self.done.recv_timeout(left) {
            Ok(result) => result.expect("clean drain"),
            Err(_) => panic!("serve() still running {DRAIN_BOUND:?} after the drain began"),
        }
    }

    /// Sum of `http_requests_total` over every route, read in-process (a
    /// scrape over the wire would count itself).
    fn http_requests_total(&self) -> f64 {
        let text = self.srv.metrics_snapshot().to_prometheus();
        parse_exposition(&text)
            .iter()
            .filter(|s| s.name == "http_requests_total")
            .map(|s| s.value)
            .sum()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn sequential_fresh_connections_are_served_without_idle_sleeps() {
    let _guard = hold_shutdown();
    let daemon = Daemon::start("burst");
    let t0 = Instant::now();
    for _ in 0..50 {
        assert_eq!(daemon.healthz(), 200);
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "50 sequential healthz requests took {took:?}"
    );
    daemon.srv.begin_drain();
    daemon.expect_drained(Instant::now());
}

#[test]
fn begin_drain_returns_serve_promptly_on_an_idle_daemon() {
    let _guard = hold_shutdown();
    let daemon = Daemon::start("drain");
    let t0 = Instant::now();
    daemon.srv.begin_drain();
    daemon.expect_drained(t0);
}

#[test]
fn shutdown_request_returns_serve_promptly_on_an_idle_daemon() {
    let _guard = hold_shutdown();
    let daemon = Daemon::start("signal");
    let t0 = Instant::now();
    // What the SIGTERM/SIGINT handler does: flip the flag, notify nobody.
    shutdown::request();
    daemon.expect_drained(t0);
}

#[test]
fn wake_up_connection_is_never_counted_as_a_request() {
    let _guard = hold_shutdown();
    let daemon = Daemon::start("wake");
    let before = daemon.http_requests_total();
    assert_eq!(before, 1.0, "only the start-up healthz so far");
    let t0 = Instant::now();
    daemon.srv.begin_drain();
    daemon.expect_drained(t0);
    assert_eq!(
        daemon.http_requests_total(),
        before,
        "the drain watcher's connection reached the request handler"
    );
}
