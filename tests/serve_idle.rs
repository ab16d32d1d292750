//! Idle serving threads sleep. With connections open but no traffic,
//! the workers and the acceptor must block in `poll` rather than wake on
//! a timer or spin on a socket that is always ready.
//!
//! Linux only: it reads each thread's CPU time from
//! `/proc/self/task/<tid>/schedstat`. It is a test binary of its own so
//! that no other test's server threads run in the process.
#![cfg(target_os = "linux")]

use cobtree::core::protocol::{encode_request, Request};
use cobtree::core::NamedLayout;
use cobtree::serve::{Client, ServeEngine, Server, ServerConfig};
use cobtree::{Forest, Storage};
use std::io::Write;
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `RANGE` requests the half-closed connection sends, each answered
/// with 4096 keys (32 KiB): well above what a Unix socket buffers, and
/// below the server's default 1-MiB write-buffer cap, so the server
/// keeps reading until it sees the EOF.
const RANGES: u32 = 24;
/// Most CPU time the serving threads may use per second of idling.
const BUDGET_NS_PER_S: f64 = 30e6;

/// Total CPU time, in ns, of this process's `serve-worker-*` and
/// `serve-acceptor` threads.
fn serving_cpu_ns() -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("list threads") {
        let dir = task.expect("thread entry").path();
        let name = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        let name = name.trim();
        if !(name.starts_with("serve-worker-") || name == "serve-acceptor") {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("schedstat")).expect("read schedstat");
        total += stat
            .split_whitespace()
            .next()
            .and_then(|ns| ns.parse::<u64>().ok())
            .expect("schedstat starts with the time on CPU");
    }
    total
}

#[test]
fn idle_serving_threads_use_almost_no_cpu() {
    let forest = Forest::builder()
        .layout(NamedLayout::MinWep)
        .storage(Storage::Implicit)
        .shards(4)
        .keys((1..=20_000u64).map(|k| k * 2))
        .build()
        .expect("build forest");
    let path = std::env::temp_dir().join(format!("cobtree-idle-{}.sock", std::process::id()));
    let cfg = ServerConfig {
        workers: 2,
        // Far beyond the idle window: the unread replies of the
        // half-closed connection must not get it dropped meanwhile.
        write_stall_timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    };
    let spec = format!("unix:{}", path.display());
    let server = Server::start(ServeEngine::Forest(Arc::new(forest)), &spec, cfg).expect("start");

    // Connected, never sends.
    let idle = UnixStream::connect(&path).expect("connect idle");
    // One request, its reply read in full.
    let mut flushed = Client::connect(&spec).expect("connect flushed");
    flushed.call_ok(&Request::Ping).expect("ping");
    // Asks for more reply bytes than the socket holds, sends EOF and
    // never reads: the server keeps it with replies pending and the
    // peer's EOF always readable.
    let mut half = UnixStream::connect(&path).expect("connect half-closed");
    let mut wire = Vec::new();
    for id in 0..RANGES {
        let range = Request::Range {
            lo: 0,
            hi: u64::MAX,
            limit: 4096,
        };
        encode_request(id, &range, &mut wire);
    }
    half.write_all(&wire).expect("send ranges");
    half.shutdown(Shutdown::Write).expect("half-close");

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = server.stats();
        if s.connections_opened == 3 && s.responses == u64::from(RANGES) + 1 {
            break;
        }
        assert!(Instant::now() < deadline, "requests not answered: {s:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Let the iterations that answered them finish.
    std::thread::sleep(Duration::from_millis(200));

    let before = serving_cpu_ns();
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_secs(1));
    let used_ns = serving_cpu_ns() - before;
    let per_s = used_ns as f64 / t0.elapsed().as_secs_f64();
    assert!(
        per_s <= BUDGET_NS_PER_S,
        "idle serving threads used {:.1} ms of CPU per second (budget {:.0})",
        per_s / 1e6,
        BUDGET_NS_PER_S / 1e6
    );
    assert_eq!(
        server.stats().connections_closed,
        0,
        "all three connections are still held"
    );

    drop((idle, flushed, half));
    server.shutdown().expect("shutdown");
}
