//! Address parsing and the TCP-or-Unix stream abstraction.
//!
//! The server and every client speak the same protocol over loopback
//! TCP (`tcp:127.0.0.1:7878`, or just `127.0.0.1:7878`) and Unix domain
//! sockets (`unix:/tmp/cobtree.sock`); this module hides the transport
//! behind two small enums so the rest of the crate never branches on
//! it.

use cobtree_core::{Error, Result};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// A parsed listen/connect address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// A TCP host:port (use port 0 to let the OS pick).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Addr {
    /// Parses `tcp:HOST:PORT`, `unix:PATH`, or bare `HOST:PORT`
    /// (assumed TCP).
    ///
    /// # Errors
    /// [`Error::Malformed`] for empty or schemeless-and-portless specs.
    pub fn parse(spec: &str) -> Result<Self> {
        if let Some(path) = spec.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(Error::Malformed {
                    detail: "unix: address needs a socket path".to_string(),
                });
            }
            return Ok(Addr::Unix(PathBuf::from(path)));
        }
        let hostport = spec.strip_prefix("tcp:").unwrap_or(spec);
        if hostport.is_empty() || !hostport.contains(':') {
            return Err(Error::Malformed {
                detail: format!("address '{spec}' is neither tcp:HOST:PORT nor unix:PATH"),
            });
        }
        Ok(Addr::Tcp(hostport.to_string()))
    }

    /// Renders back to the `tcp:`/`unix:` spec form.
    #[must_use]
    pub fn to_spec(&self) -> String {
        match self {
            Addr::Tcp(hp) => format!("tcp:{hp}"),
            Addr::Unix(p) => format!("unix:{}", p.display()),
        }
    }
}

/// A connected byte stream over either transport.
#[derive(Debug)]
pub enum NetStream {
    /// TCP.
    Tcp(TcpStream),
    /// Unix domain.
    Unix(UnixStream),
}

impl NetStream {
    /// Connects (blocking) to `addr`.
    ///
    /// # Errors
    /// [`Error::Io`] when the connect fails.
    pub fn connect(addr: &Addr) -> Result<Self> {
        match addr {
            Addr::Tcp(hp) => TcpStream::connect(hp.as_str())
                .map(NetStream::Tcp)
                .map_err(|e| Error::io(&e)),
            Addr::Unix(p) => UnixStream::connect(p)
                .map(NetStream::Unix)
                .map_err(|e| Error::io(&e)),
        }
    }

    /// Toggles nonblocking mode.
    ///
    /// # Errors
    /// [`Error::Io`] from the socket option call.
    pub fn set_nonblocking(&self, on: bool) -> Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_nonblocking(on),
            NetStream::Unix(s) => s.set_nonblocking(on),
        }
        .map_err(|e| Error::io(&e))
    }

    /// Sets (or clears, with `None`) the blocking read timeout.
    ///
    /// # Errors
    /// [`Error::Io`] from the socket option call.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_read_timeout(dur),
            NetStream::Unix(s) => s.set_read_timeout(dur),
        }
        .map_err(|e| Error::io(&e))
    }

    /// Disables Nagle on TCP (no-op on Unix sockets) — the protocol is
    /// request/response with small frames, so coalescing only adds
    /// latency.
    pub fn set_nodelay(&self) {
        if let NetStream::Tcp(s) = self {
            let _ = s.set_nodelay(true);
        }
    }

    /// Shuts down the write half, signalling EOF to the peer.
    pub fn shutdown_write(&self) {
        let _ = match self {
            NetStream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            NetStream::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        };
    }
}

impl AsRawFd for NetStream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            NetStream::Tcp(s) => s.as_raw_fd(),
            NetStream::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            NetStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write(buf),
            NetStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.flush(),
            NetStream::Unix(s) => s.flush(),
        }
    }
}

/// A bound listening socket over either transport.
#[derive(Debug)]
pub enum NetListener {
    /// TCP.
    Tcp(TcpListener),
    /// Unix domain (removes a stale socket file before binding).
    Unix(UnixListener),
}

impl NetListener {
    /// Binds `addr` (TCP port 0 picks a free port; see
    /// [`NetListener::local_addr`] for the result).
    ///
    /// # Errors
    /// [`Error::Io`] when the bind fails.
    pub fn bind(addr: &Addr) -> Result<Self> {
        match addr {
            Addr::Tcp(hp) => TcpListener::bind(hp.as_str())
                .map(NetListener::Tcp)
                .map_err(|e| Error::io(&e)),
            Addr::Unix(p) => {
                // A previous unclean exit leaves the socket file behind;
                // binding over it needs the unlink first.
                let _ = std::fs::remove_file(p);
                UnixListener::bind(p)
                    .map(NetListener::Unix)
                    .map_err(|e| Error::io(&e))
            }
        }
    }

    /// The actually-bound address (resolves TCP port 0).
    ///
    /// # Errors
    /// [`Error::Io`] from the socket query.
    pub fn local_addr(&self) -> Result<Addr> {
        match self {
            NetListener::Tcp(l) => {
                let a = l.local_addr().map_err(|e| Error::io(&e))?;
                Ok(Addr::Tcp(a.to_string()))
            }
            NetListener::Unix(l) => {
                let a = l.local_addr().map_err(|e| Error::io(&e))?;
                Ok(Addr::Unix(a.as_pathname().map_or_else(
                    || PathBuf::from("<unnamed>"),
                    std::path::Path::to_path_buf,
                )))
            }
        }
    }

    /// Toggles nonblocking accepts.
    ///
    /// # Errors
    /// [`Error::Io`] from the socket option call.
    pub fn set_nonblocking(&self, on: bool) -> Result<()> {
        match self {
            NetListener::Tcp(l) => l.set_nonblocking(on),
            NetListener::Unix(l) => l.set_nonblocking(on),
        }
        .map_err(|e| Error::io(&e))
    }

    /// Accepts one connection; `Ok(None)` on `WouldBlock` (nonblocking
    /// mode).
    ///
    /// # Errors
    /// [`Error::Io`] for real accept failures.
    pub fn accept(&self) -> Result<Option<NetStream>> {
        let r = match self {
            NetListener::Tcp(l) => l.accept().map(|(s, _)| NetStream::Tcp(s)),
            NetListener::Unix(l) => l.accept().map(|(s, _)| NetStream::Unix(s)),
        };
        match r {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(Error::io(&e)),
        }
    }

    /// Removes the socket file of a Unix listener (call after the
    /// listener is dropped); no-op for TCP.
    pub fn cleanup(addr: &Addr) {
        if let Addr::Unix(p) = addr {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl AsRawFd for NetListener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            NetListener::Tcp(l) => l.as_raw_fd(),
            NetListener::Unix(l) => l.as_raw_fd(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_parsing() {
        assert_eq!(
            Addr::parse("tcp:127.0.0.1:7878").unwrap(),
            Addr::Tcp("127.0.0.1:7878".to_string())
        );
        assert_eq!(
            Addr::parse("127.0.0.1:0").unwrap(),
            Addr::Tcp("127.0.0.1:0".to_string())
        );
        assert_eq!(
            Addr::parse("unix:/tmp/x.sock").unwrap(),
            Addr::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert!(Addr::parse("").is_err());
        assert!(Addr::parse("unix:").is_err());
        assert!(Addr::parse("justahost").is_err());
        assert_eq!(Addr::parse("tcp:h:1").unwrap().to_spec(), "tcp:h:1");
    }

    #[test]
    fn tcp_and_unix_roundtrip() {
        for spec in [
            "tcp:127.0.0.1:0".to_string(),
            format!(
                "unix:{}",
                std::env::temp_dir()
                    .join(format!("cobtree-net-test-{}.sock", std::process::id()))
                    .display()
            ),
        ] {
            let addr = Addr::parse(&spec).unwrap();
            let listener = NetListener::bind(&addr).unwrap();
            let bound = listener.local_addr().unwrap();
            let mut client = NetStream::connect(&bound).unwrap();
            let mut served = listener.accept().unwrap().unwrap();
            client.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            served.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"ping");
            drop(listener);
            NetListener::cleanup(&bound);
        }
    }
}
