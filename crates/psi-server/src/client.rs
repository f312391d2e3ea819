//! A small blocking client for the wire protocol, used by the
//! `load-driver` binary and the integration tests. It speaks exactly
//! the protocol in PROTOCOL.md and surfaces server-side errors as
//! typed [`WireError`] values rather than strings.

use crate::protocol::LimitsPatch;
use psi_tools::json::{parse_object, JsonObject, ObjectBuilder};
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// An error line received from the server: the stable wire code, the
/// stable kind label, and the human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable numeric code (1–9 engine, 100+ server).
    pub code: u64,
    /// Stable kind label (`"resource_exhausted"`, `"protocol"`, …).
    pub kind: String,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "server error {} ({}): {}",
            self.code, self.kind, self.message
        )
    }
}

/// Anything that can go wrong on the client side of a request.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connection refused, reset, timeout).
    Io(std::io::Error),
    /// The server answered with an error line.
    Wire(WireError),
    /// The server sent something the client cannot decode.
    Decode(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Decode(m) => write!(f, "undecodable response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// The result of one `solve`: the streamed bindings plus the totals
/// from the `done` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveReply {
    /// Rendered bindings, one per solution, in discovery order.
    pub bindings: Vec<String>,
    /// Microinstruction steps of the run.
    pub steps: u64,
    /// Simulated time of the run in nanoseconds.
    pub sim_time_ns: u64,
}

/// A blocking protocol client over one TCP connection (= one session).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects and consumes the `hello` greeting.
    ///
    /// # Errors
    ///
    /// Transport errors, or a greeting that is not a `hello`.
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
        };
        let hello = client.recv()?;
        match hello.str_field("event") {
            Ok("hello") => Ok(client),
            _ => Err(ClientError::Decode("greeting is not a hello".into())),
        }
    }

    /// Consults KL0 source into the session.
    ///
    /// # Errors
    ///
    /// Typed wire errors (syntax/compile), or transport failures.
    pub fn consult(&mut self, src: &str) -> Result<(), ClientError> {
        let line = ObjectBuilder::new()
            .str("cmd", "consult")
            .str("src", src)
            .finish();
        self.send(&line)?;
        self.expect_ack("consulted")
    }

    /// Solves `goal`, requesting up to `max` solutions.
    ///
    /// # Errors
    ///
    /// Typed wire errors (undefined predicate, resource exhaustion,
    /// …), or transport failures.
    pub fn solve(&mut self, goal: &str, max: u64) -> Result<SolveReply, ClientError> {
        let line = ObjectBuilder::new()
            .str("cmd", "solve")
            .str("goal", goal)
            .u64("max", max)
            .finish();
        self.send(&line)?;
        let mut bindings = Vec::new();
        loop {
            let obj = self.recv()?;
            match self.event_of(&obj)? {
                "solution" => {
                    let b = obj
                        .str_field("bindings")
                        .map_err(|e| ClientError::Decode(e.to_string()))?;
                    bindings.push(b.to_owned());
                }
                "done" => {
                    let steps = obj
                        .u64_field("steps")
                        .map_err(|e| ClientError::Decode(e.to_string()))?;
                    let sim_time_ns = obj
                        .u64_field("sim_time_ns")
                        .map_err(|e| ClientError::Decode(e.to_string()))?;
                    return Ok(SolveReply {
                        bindings,
                        steps,
                        sim_time_ns,
                    });
                }
                other => {
                    return Err(ClientError::Decode(format!(
                        "unexpected event \"{other}\" during solve"
                    )))
                }
            }
        }
    }

    /// Tightens the session's resource budgets.
    ///
    /// # Errors
    ///
    /// Transport or decode failures.
    pub fn set_limits(&mut self, patch: &LimitsPatch) -> Result<(), ClientError> {
        let mut b = ObjectBuilder::new().str("cmd", "limits");
        for (key, value) in [
            ("max_steps", patch.max_steps),
            ("deadline_ms", patch.deadline_ms),
            ("max_heap_words", patch.max_heap_words),
            ("max_local_words", patch.max_local_words),
            ("max_global_words", patch.max_global_words),
            ("max_control_words", patch.max_control_words),
            ("max_trail_words", patch.max_trail_words),
        ] {
            if let Some(v) = value {
                b = b.u64(key, v);
            }
        }
        self.send(&b.finish())?;
        self.expect_ack("limits")
    }

    /// Fetches the statistics of the session's most recent solve.
    ///
    /// # Errors
    ///
    /// Typed wire errors or transport failures.
    pub fn stats(&mut self) -> Result<JsonObject, ClientError> {
        self.send(&ObjectBuilder::new().str("cmd", "stats").finish())?;
        let obj = self.recv()?;
        match self.event_of(&obj)? {
            "stats" => Ok(obj),
            other => Err(ClientError::Decode(format!(
                "unexpected event \"{other}\" for stats"
            ))),
        }
    }

    /// Recycles the session's run state (consulted code stays).
    ///
    /// # Errors
    ///
    /// Transport or decode failures.
    pub fn reset(&mut self) -> Result<(), ClientError> {
        self.send(&ObjectBuilder::new().str("cmd", "reset").finish())?;
        self.expect_ack("reset")
    }

    /// Ends the session cleanly (returns the machine to the pool).
    ///
    /// # Errors
    ///
    /// Transport or decode failures.
    pub fn close(mut self) -> Result<(), ClientError> {
        self.send(&ObjectBuilder::new().str("cmd", "close").finish())?;
        self.expect_ack("bye")
    }

    /// Writes `line` and its `\n` in one call, so a request leaves as
    /// one segment on the no-delay socket and the server reads it in
    /// one wake-up.
    fn send(&mut self, line: &str) -> Result<(), ClientError> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        Ok(())
    }

    fn recv(&mut self) -> Result<JsonObject, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        parse_object(line.trim_end()).map_err(|e| ClientError::Decode(e.to_string()))
    }

    /// Extracts the event name, converting `ok:false` lines into
    /// [`ClientError::Wire`].
    fn event_of<'a>(&self, obj: &'a JsonObject) -> Result<&'a str, ClientError> {
        let ok = obj
            .get("ok")
            .and_then(psi_tools::json::JsonValue::as_bool)
            .ok_or_else(|| ClientError::Decode("response has no ok field".into()))?;
        if !ok {
            return Err(ClientError::Wire(WireError {
                code: obj
                    .u64_field("code")
                    .map_err(|e| ClientError::Decode(e.to_string()))?,
                kind: obj
                    .str_field("kind")
                    .map_err(|e| ClientError::Decode(e.to_string()))?
                    .to_owned(),
                message: obj
                    .str_field("message")
                    .map_err(|e| ClientError::Decode(e.to_string()))?
                    .to_owned(),
            }));
        }
        obj.str_field("event")
            .map_err(|e| ClientError::Decode(e.to_string()))
    }

    fn expect_ack(&mut self, event: &str) -> Result<(), ClientError> {
        let obj = self.recv()?;
        match self.event_of(&obj)? {
            e if e == event => Ok(()),
            other => Err(ClientError::Decode(format!(
                "expected \"{event}\" ack, got \"{other}\""
            ))),
        }
    }
}
