//! The TCP front end: listener, per-connection threads, shutdown.
//!
//! The transport is deliberately plain: one OS thread per connection,
//! blocking reads with a short timeout so every thread notices the
//! shutdown flag within half a second, and the line-oriented protocol
//! from [`crate::protocol`] on the wire. All the interesting state
//! lives in [`crate::session`] and [`crate::pool`]; this module only
//! moves bytes and enforces the byte-level input rules (request size
//! cap, UTF-8).
//!
//! The accept thread blocks in `accept`, so a new connection is served
//! the moment it arrives. To stop, [`Server`] sets the shutdown flag and
//! then opens one wake-up connection to its own listener (loopback of
//! the same family when bound to an unspecified address). The accept
//! thread checks the flag as soon as `accept` returns, drops that
//! stream unserved and joins its connection threads. An `accept` error
//! never ends service: interrupted and aborted accepts retry at once,
//! any other error (say, out of file descriptors) retries after a short
//! back-off until shutdown.

use crate::pool::{MachinePool, PoolOptions};
use crate::protocol::{hello_line, protocol_error_line, MAX_REQUEST_BYTES};
use crate::session::{Session, SessionTurn};
use psi_machine::{MachineConfig, ResourceLimits};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The default serving profile: the fast lane (no cache simulation,
/// fused dispatch) with first-argument clause indexing — the fastest
/// configuration that still produces solutions bit-identical to the
/// paper-faithful machine.
pub fn serving_config() -> MachineConfig {
    let mut config = MachineConfig::psi_compiled();
    config.clause_indexing = true;
    config
}

/// The default per-session resource caps: generous enough for every
/// Table 1 program, tight enough that no single session can wedge a
/// worker thread for more than its deadline.
pub fn default_caps() -> ResourceLimits {
    ResourceLimits::unlimited()
        .with_max_steps(2_000_000_000)
        .with_deadline(Duration::from_secs(30))
}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Machine configuration for every pooled machine.
    pub config: MachineConfig,
    /// Per-session resource caps ([`crate::protocol::clamp_limits`]).
    pub caps: ResourceLimits,
    /// Warm-pool tuning.
    pub pool: PoolOptions,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            addr: "127.0.0.1:0".to_owned(),
            config: serving_config(),
            caps: default_caps(),
            pool: PoolOptions::default(),
        }
    }
}

/// A running server: accept thread plus one thread per live
/// connection. Dropping the handle shuts the server down and joins
/// every thread.
pub struct Server {
    local_addr: SocketAddr,
    pool: Arc<MachinePool>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `options.addr` and starts accepting connections.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listen address.
    pub fn spawn(options: ServerOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        let local_addr = listener.local_addr()?;
        let pool = Arc::new(MachinePool::new(options.config, options.pool));
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_pool = Arc::clone(&pool);
        let accept_shutdown = Arc::clone(&shutdown);
        let caps = options.caps;
        let accept_thread = std::thread::spawn(move || {
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            loop {
                let accepted = listener.accept();
                // `stop()` sets the flag before its wake-up connection,
                // so that stream is dropped here unserved.
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match accepted {
                    Ok((stream, _)) => {
                        let pool = Arc::clone(&accept_pool);
                        let shutdown = Arc::clone(&accept_shutdown);
                        let caps = caps.clone();
                        workers.push(std::thread::spawn(move || {
                            serve_connection(stream, pool, caps, &shutdown);
                        }));
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                        ) => {}
                    // Out of descriptors or memory: keep the listener and
                    // try again once some connection has let go.
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
                workers.retain(|w| !w.is_finished());
            }
            for w in workers {
                let _ = w.join();
            }
        });
        Ok(Server {
            local_addr,
            pool,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The warm pool behind this server.
    pub fn pool(&self) -> &Arc<MachinePool> {
        &self.pool
    }

    /// Signals shutdown, wakes the accept thread with one connection
    /// to the listener and joins it (it joins every connection
    /// thread). Connection threads notice within their read timeout
    /// (500 ms).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            // Without the wake-up the accept thread would block forever;
            // leave it detached rather than hang the caller.
            if TcpStream::connect_timeout(&wake_addr(self.local_addr), WAKE_TIMEOUT).is_ok() {
                let _ = t.join();
            }
        }
    }
}

/// How long `stop()` waits for its wake-up connection to be accepted
/// by the kernel.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Where `stop()` connects to wake `accept`: the bound address, with an
/// unspecified IP (`0.0.0.0`, `::`) replaced by loopback of its family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Read timeout per blocking read: the shutdown-poll granularity.
const READ_POLL: Duration = Duration::from_millis(500);

fn serve_connection(
    stream: TcpStream,
    pool: Arc<MachinePool>,
    caps: ResourceLimits,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    if writer
        .write_all(format!("{}\n", hello_line()).as_bytes())
        .is_err()
    {
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut session = Session::new(pool, caps);
    let mut buf: Vec<u8> = Vec::new();
    let mut responses: Vec<String> = Vec::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            session.finish();
            return;
        }
        // Bounded read: never buffer more than one cap-sized line,
        // even from a client that sends gigabytes without a newline.
        let mut limited = (&mut reader).take((MAX_REQUEST_BYTES + 2) as u64);
        match limited.read_until(b'\n', &mut buf) {
            Ok(0) => {
                // EOF: the client hung up without `close`. The
                // machine state is still sound, so check it back in.
                session.finish();
                return;
            }
            Ok(_) => {
                if buf.last() != Some(&b'\n') {
                    if buf.len() > MAX_REQUEST_BYTES {
                        // Over the cap with no line end in sight:
                        // hostile or broken client; drop everything.
                        let _ = writer.write_all(
                            format!(
                                "{}\n",
                                protocol_error_line(&format!(
                                    "request exceeds {MAX_REQUEST_BYTES} bytes"
                                ))
                            )
                            .as_bytes(),
                        );
                        return;
                    }
                    // Partial line (timeout sliced it); keep reading.
                    continue;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                session.finish();
                return;
            }
        }
        let line = match std::str::from_utf8(&buf) {
            Ok(s) => s.trim_end_matches(['\n', '\r']).to_owned(),
            Err(_) => {
                let _ = writer.write_all(
                    format!("{}\n", protocol_error_line("request is not UTF-8")).as_bytes(),
                );
                buf.clear();
                continue;
            }
        };
        buf.clear();
        if line.is_empty() {
            continue;
        }
        responses.clear();
        let turn = session.handle_line(&line, &mut responses);
        let mut payload = String::new();
        for r in &responses {
            payload.push_str(r);
            payload.push('\n');
        }
        if writer.write_all(payload.as_bytes()).is_err() {
            // Client gone mid-write; the machine is still sound.
            session.finish();
            return;
        }
        match turn {
            SessionTurn::Continue => {}
            SessionTurn::Close => {
                session.finish();
                return;
            }
            SessionTurn::Abort => {
                // Poisoned (or hostile) session: finish() retires the
                // machine instead of pooling it.
                session.finish();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_addr_maps_unspecified_to_loopback_of_the_same_family() {
        let cases = [
            ("0.0.0.0:7001", "127.0.0.1:7001"),
            ("[::]:7002", "[::1]:7002"),
            ("127.0.0.1:7003", "127.0.0.1:7003"),
            ("192.0.2.5:7004", "192.0.2.5:7004"),
        ];
        for (bound, wake) in cases {
            let bound: SocketAddr = bound.parse().unwrap();
            assert_eq!(wake_addr(bound), wake.parse().unwrap(), "{bound}");
        }
    }
}
