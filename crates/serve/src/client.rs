//! A minimal blocking client for the serve protocol — also the test
//! harness: `nwo client`, the integration tests and the `perf/`
//! benchmark all drive the daemon through this type.
//!
//! Errors are typed ([`ClientError`]) so operators can tell a dead
//! daemon (`connection refused`) from a dropped connection
//! (`connection reset mid-stream`). The client never retries;
//! retrying is the caller's job.

use crate::proto;
use crate::wire::{read_frame, write_frame, Frame, WireError};
use nwo_obs::json::JsonValue;
use std::net::TcpStream;

/// A typed client-side failure.
///
/// The connect-phase variants are split deliberately: `Refused` means
/// nothing is listening (a dead or not-yet-started daemon), while
/// `Reset` means an established conversation died under us (a flaky
/// network or a crashed handler). They demand different operator
/// responses, so they must not collapse into one string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// `TcpStream::connect` was actively refused: no daemon listens on
    /// `addr`.
    Refused {
        /// The address nothing answered on.
        addr: String,
    },
    /// Any other connect-phase failure (unreachable host, timeout,
    /// bad address).
    Connect {
        /// The address being dialed.
        addr: String,
        /// The socket error text.
        detail: String,
    },
    /// An established connection died mid-conversation: reset, broken
    /// pipe, or the server hung up before answering.
    Reset {
        /// What the socket or decoder reported.
        detail: String,
    },
    /// The server answered with a typed `error` frame.
    Server {
        /// The machine-readable [`proto::code`] string.
        code: String,
        /// The human-readable detail.
        detail: String,
    },
    /// The byte stream or frame sequence violated the protocol
    /// (foreign magic, unparseable JSON, an unexpected frame kind).
    Protocol {
        /// What was malformed.
        detail: String,
    },
}

impl ClientError {
    /// Classifies a [`WireError`] that interrupted an established
    /// conversation.
    fn from_wire(err: WireError) -> ClientError {
        match err {
            WireError::Io(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::BrokenPipe
                        | std::io::ErrorKind::UnexpectedEof
                ) =>
            {
                ClientError::Reset {
                    detail: format!("connection reset mid-stream: {e}"),
                }
            }
            WireError::Truncated => ClientError::Reset {
                detail: "connection reset mid-stream: connection closed mid-frame".to_string(),
            },
            other => ClientError::Protocol {
                detail: other.to_string(),
            },
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Refused { addr } => {
                write!(f, "connection refused: no daemon listening on {addr}")
            }
            ClientError::Connect { addr, detail } => {
                write!(f, "cannot connect to {addr}: {detail}")
            }
            ClientError::Reset { detail } => write!(f, "{detail}"),
            ClientError::Server { code, detail } => {
                write!(f, "server error [{code}]: {detail}")
            }
            ClientError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// One connection to an `nwo serve` daemon.
pub struct Client {
    stream: TcpStream,
}

/// Everything a completed sweep produced, split by stream: the
/// deterministic result table (stdout material) and the run-specific
/// side frames (stderr material).
#[derive(Debug, Default)]
pub struct SweepOutcome {
    /// The bench table from the `result` frame — byte-identical across
    /// clients, cache tiers and worker counts.
    pub table: String,
    /// The raw `accepted`, `progress` and `done` frames, in arrival
    /// order.
    pub side_frames: Vec<String>,
    /// The server-assigned job id from the `accepted` frame.
    pub job: Option<u64>,
    /// True when the `done` frame carried `"replayed": true` — the
    /// server answered from its idempotency registry without running
    /// anything.
    pub replayed: bool,
}

impl Client {
    /// Connects to `addr` (`host:port`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Refused`] when nothing listens on `addr`;
    /// [`ClientError::Connect`] for any other socket failure.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| {
            if e.kind() == std::io::ErrorKind::ConnectionRefused {
                ClientError::Refused {
                    addr: addr.to_string(),
                }
            } else {
                ClientError::Connect {
                    addr: addr.to_string(),
                    detail: e.to_string(),
                }
            }
        })?;
        stream.set_nodelay(true).map_err(|e| ClientError::Connect {
            addr: addr.to_string(),
            detail: e.to_string(),
        })?;
        Ok(Client { stream })
    }

    /// Sends one request payload.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from the socket.
    pub fn send(&mut self, payload: &str) -> Result<(), WireError> {
        write_frame(&mut self.stream, payload)
    }

    /// Reads the next frame payload; `None` on clean EOF.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from the socket or codec.
    pub fn next_frame(&mut self) -> Result<Option<String>, WireError> {
        loop {
            match read_frame(&mut self.stream)? {
                Frame::Payload(payload) => return Ok(Some(payload)),
                Frame::Idle => {}
                Frame::Eof => return Ok(None),
            }
        }
    }

    /// Runs one sweep request to completion: sends it, collects frames
    /// until `done`, and splits the deterministic table from the
    /// run-specific side frames. `key` is the optional idempotency key:
    /// a resend under a key whose sweep already completed replays the
    /// stored table. Plain sweeps pass `None`.
    ///
    /// # Errors
    ///
    /// A typed [`ClientError`]: a server `error` frame's code and
    /// detail, a protocol violation, or a socket failure.
    pub fn sweep(
        &mut self,
        benches: &[String],
        scale: Option<u32>,
        flags: &[&str],
        linger_ms: u64,
        key: Option<u64>,
    ) -> Result<SweepOutcome, ClientError> {
        let request = proto::sweep_request(1, benches, scale, flags, linger_ms, key);
        self.send(&request).map_err(ClientError::from_wire)?;
        let mut outcome = SweepOutcome::default();
        loop {
            let frame =
                self.next_frame()
                    .map_err(ClientError::from_wire)?
                    .ok_or(ClientError::Reset {
                        detail: "connection reset mid-stream: server closed before `done`"
                            .to_string(),
                    })?;
            let v = nwo_obs::json::parse(&frame).map_err(|e| ClientError::Protocol {
                detail: format!("unparseable frame: {e}"),
            })?;
            match v.get("t").and_then(|t| t.as_str()) {
                Some("accepted") => {
                    outcome.job = v.get("job").and_then(|j| j.as_u64());
                    outcome.side_frames.push(frame);
                }
                Some("progress") => outcome.side_frames.push(frame),
                Some("result") => {
                    outcome.table = v
                        .get("table")
                        .and_then(|t| t.as_str())
                        .ok_or(ClientError::Protocol {
                            detail: "result frame without a table".to_string(),
                        })?
                        .to_string();
                }
                Some("done") => {
                    outcome.replayed = matches!(v.get("replayed"), Some(JsonValue::Bool(true)));
                    outcome.side_frames.push(frame);
                    return Ok(outcome);
                }
                Some("error") => {
                    let code = v.get("code").and_then(|c| c.as_str()).unwrap_or("?");
                    let detail = v.get("detail").and_then(|d| d.as_str()).unwrap_or("");
                    return Err(ClientError::Server {
                        code: code.to_string(),
                        detail: detail.to_string(),
                    });
                }
                other => {
                    return Err(ClientError::Protocol {
                        detail: format!("unexpected frame {other:?}: {frame}"),
                    })
                }
            }
        }
    }

    /// Requests the server's status frame (metrics snapshot included).
    ///
    /// # Errors
    ///
    /// A socket/codec failure or an unexpected response frame.
    pub fn status(&mut self) -> Result<String, ClientError> {
        self.send(&proto::plain_request("status", 1))
            .map_err(ClientError::from_wire)?;
        self.expect_one()
    }

    /// Cancels server job `job`.
    ///
    /// # Errors
    ///
    /// A socket/codec failure or an `error` response (unknown job).
    pub fn cancel(&mut self, job: u64) -> Result<String, ClientError> {
        self.send(&proto::cancel_request(1, job))
            .map_err(ClientError::from_wire)?;
        self.expect_one()
    }

    /// Asks the server to drain and stop.
    ///
    /// # Errors
    ///
    /// A socket/codec failure or an unexpected response frame.
    pub fn shutdown(&mut self) -> Result<String, ClientError> {
        self.send(&proto::plain_request("shutdown", 1))
            .map_err(ClientError::from_wire)?;
        self.expect_one()
    }

    fn expect_one(&mut self) -> Result<String, ClientError> {
        let frame =
            self.next_frame()
                .map_err(ClientError::from_wire)?
                .ok_or(ClientError::Reset {
                    detail: "connection reset mid-stream: server closed before answering"
                        .to_string(),
                })?;
        let v = nwo_obs::json::parse(&frame).map_err(|e| ClientError::Protocol {
            detail: format!("unparseable frame: {e}"),
        })?;
        if v.get("t").and_then(|t| t.as_str()) == Some("error") {
            let code = v.get("code").and_then(|c| c.as_str()).unwrap_or("?");
            let detail = v.get("detail").and_then(|d| d.as_str()).unwrap_or("");
            return Err(ClientError::Server {
                code: code.to_string(),
                detail: detail.to_string(),
            });
        }
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refused_and_reset_render_distinctly() {
        let refused = ClientError::Refused {
            addr: "127.0.0.1:1".to_string(),
        };
        let reset = ClientError::Reset {
            detail: "connection reset mid-stream: early EOF".to_string(),
        };
        let refused_text = refused.to_string();
        let reset_text = reset.to_string();
        assert!(
            refused_text.contains("connection refused"),
            "{refused_text}"
        );
        assert!(refused_text.contains("127.0.0.1:1"), "{refused_text}");
        assert!(reset_text.contains("reset mid-stream"), "{reset_text}");
        assert!(
            !reset_text.contains("refused"),
            "a reset must not read like a dead daemon: {reset_text}"
        );
    }

    #[test]
    fn wire_errors_classify_by_kind() {
        let reset = ClientError::from_wire(WireError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "peer reset",
        )));
        assert!(matches!(reset, ClientError::Reset { .. }), "{reset:?}");
        let truncated = ClientError::from_wire(WireError::Truncated);
        assert!(
            matches!(truncated, ClientError::Reset { .. }),
            "mid-frame EOF is a reset, not a protocol bug: {truncated:?}"
        );
        let magic = ClientError::from_wire(WireError::BadMagic([0, 1, 2, 3]));
        assert!(matches!(magic, ClientError::Protocol { .. }), "{magic:?}");
    }
}
