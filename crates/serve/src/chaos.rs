//! Deterministic hostile input for the serving stack.
//!
//! This is the transport-layer sibling of `nwo-verify`'s fault
//! campaigns: the same lockstep-oracle philosophy — every claim checked
//! against an independent witness, every fault either *detected* or
//! *gracefully degraded* — applied to bytes on the wire instead of bits
//! in the datapath. Two pieces:
//!
//! * [`FrameFuzzer`] — a seeded, structure-aware mutator of valid
//!   frames (truncation, length-field lies, magic/version corruption,
//!   oversized payloads, mid-frame EOF, garbage) with
//!   [`fuzz_decoder`] for the in-process codec and [`fuzz_server`]
//!   for a live daemon over real sockets. The contract under fuzz:
//!   never panic, never hang past the deadline, always answer with a
//!   typed error frame or a clean close.
//! * [`repro_banner`] — every failure path embeds the seed in its
//!   message, so any CI failure reproduces locally with one env var
//!   (`NWO_CHAOS_SEED`).
//!
//! Everything is seeded [`XorShift64`] — no wall clock, no OS entropy —
//! so a fuzz run is as replayable as a simulation: the same seed
//! yields the same mutations in the same order.

use crate::proto;
use crate::wire::{read_frame, Frame, WireError, MAGIC, MAX_FRAME_LEN, WIRE_VERSION};
use nwo_bench::env::Env;
use nwo_bench::runner::panic_text;
use nwo_verify::XorShift64;
use std::io::{Cursor, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// The env var every chaos entry point reads its seed from, and the
/// one a failure banner tells you to set.
pub const SEED_ENV: &str = "NWO_CHAOS_SEED";

/// The reproduction line embedded in every chaos failure message:
/// asserting on it is how the tests guarantee no failure ships without
/// its seed.
pub fn repro_banner(seed: u64) -> String {
    format!("chaos seed {seed:#018x} — rerun with {SEED_ENV}={seed:#x}")
}

/// The seed to use: `NWO_CHAOS_SEED` (hex with `0x` prefix, or
/// decimal) when set, otherwise `default`.
///
/// # Panics
///
/// When any `NWO_*` value does not parse (see [`Env::current`]): a
/// typo'd override must not silently change which campaign runs.
pub fn env_seed(default: u64) -> u64 {
    Env::current().chaos_seed.unwrap_or(default)
}

// ---------------------------------------------------------------------
// Structure-aware wire fuzzer
// ---------------------------------------------------------------------

/// The mutation classes the fuzzer applies to a valid frame. Kept as a
/// typed enum (not just byte soup) so reports can say *which* class a
/// decoder bug hides in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// No mutation — the frame must decode back to its payload.
    Valid,
    /// Two back-to-back valid frames — both must decode.
    DoubleFrame,
    /// The stream ends partway through the 10-byte header.
    TruncatedHeader,
    /// The stream ends partway through the declared payload.
    TruncatedPayload,
    /// The length field declares fewer bytes than follow.
    LengthLieShort,
    /// The length field declares more bytes than follow (but under the
    /// cap) — a mid-frame EOF from the reader's point of view.
    LengthLieLong,
    /// The length field declares more than [`MAX_FRAME_LEN`] — must be
    /// the typed [`WireError::TooLong`], *before* any allocation.
    Oversized,
    /// One of the four magic bytes is flipped.
    BadMagic,
    /// A foreign wire version.
    BadVersion,
    /// A payload byte replaced with `0xFF` (never valid UTF-8).
    NonUtf8,
    /// Unframed random bytes, as a port scanner would send.
    Garbage,
}

/// All mutation classes, in the order the fuzzer cycles priorities.
pub const MUTATIONS: [Mutation; 11] = [
    Mutation::Valid,
    Mutation::DoubleFrame,
    Mutation::TruncatedHeader,
    Mutation::TruncatedPayload,
    Mutation::LengthLieShort,
    Mutation::LengthLieLong,
    Mutation::Oversized,
    Mutation::BadMagic,
    Mutation::BadVersion,
    Mutation::NonUtf8,
    Mutation::Garbage,
];

/// One generated fuzz case: the bytes to feed and what the decoder
/// owes us for them.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Which mutation class produced it.
    pub mutation: Mutation,
    /// The (possibly mangled) wire bytes.
    pub bytes: Vec<u8>,
    /// The original payload, for `Valid`/`DoubleFrame` round-trip
    /// checks.
    pub payload: String,
}

/// Seeded generator of [`FuzzCase`]s from a corpus of valid protocol
/// payloads. Deterministic: the same seed yields the same case
/// sequence.
pub struct FrameFuzzer {
    rng: XorShift64,
    corpus: Vec<String>,
    cases: u64,
}

impl FrameFuzzer {
    /// A fuzzer seeded with `seed`, over a corpus of protocol request
    /// payloads plus degenerate ones (empty, bare braces, non-JSON, a
    /// multi-KiB string). Deliberately no `shutdown` request and no
    /// heavyweight sweep: a *valid* case must be survivable by a live
    /// fuzz target, so the only work-carrying entry is one scale-0
    /// bench and the rest are typed rejections (unknown benchmark,
    /// unknown job, malformed JSON).
    pub fn new(seed: u64) -> FrameFuzzer {
        let corpus = vec![
            proto::plain_request("status", 1),
            proto::cancel_request(3, 9),
            proto::sweep_request(
                4,
                &["mpeg2-enc".to_string()],
                Some(0),
                &["gating", "packing"],
                0,
                Some(0xFEED),
            ),
            proto::sweep_request(5, &["no-such-bench".to_string()], Some(0), &[], 0, None),
            String::new(),
            "{}".to_string(),
            "not json at all".to_string(),
            "x".repeat(4096),
        ];
        FrameFuzzer {
            rng: XorShift64::new(seed),
            corpus,
            cases: 0,
        }
    }

    /// The next deterministic case.
    pub fn next_case(&mut self) -> FuzzCase {
        self.cases += 1;
        let payload = self.corpus[self.rng.below(self.corpus.len() as u64) as usize].clone();
        let mutation = MUTATIONS[self.rng.below(MUTATIONS.len() as u64) as usize];
        let mut bytes = frame_bytes(&payload);
        match mutation {
            Mutation::Valid => {}
            Mutation::DoubleFrame => {
                let again = frame_bytes(&payload);
                bytes.extend_from_slice(&again);
            }
            Mutation::TruncatedHeader => bytes.truncate(self.rng.below(10) as usize),
            Mutation::TruncatedPayload => {
                let keep = 10 + self.rng.below((bytes.len() as u64 - 10).max(1)) as usize;
                bytes.truncate(keep.min(bytes.len().saturating_sub(1)).max(10));
            }
            Mutation::LengthLieShort => {
                let actual = (bytes.len() - 10) as u64;
                let lie = self.rng.below(actual.max(1)) as u32;
                bytes[6..10].copy_from_slice(&lie.to_le_bytes());
            }
            Mutation::LengthLieLong => {
                let actual = (bytes.len() - 10) as u64;
                let lie = (actual + 1 + self.rng.below(4096)).min(u64::from(MAX_FRAME_LEN)) as u32;
                bytes[6..10].copy_from_slice(&lie.to_le_bytes());
            }
            Mutation::Oversized => {
                let over = MAX_FRAME_LEN as u64
                    + 1
                    + self
                        .rng
                        .below(u64::from(u32::MAX) - u64::from(MAX_FRAME_LEN) - 1);
                bytes[6..10].copy_from_slice(&(over as u32).to_le_bytes());
            }
            Mutation::BadMagic => {
                let i = self.rng.below(4) as usize;
                bytes[i] ^= 1 << self.rng.below(8);
                // A flip that lands back on the magic is no mutation at
                // all; force a definite mismatch.
                if bytes[..4] == MAGIC {
                    bytes[i] = !bytes[i];
                }
            }
            Mutation::BadVersion => {
                let mut v = self.rng.below(u64::from(u16::MAX)) as u16;
                if v == WIRE_VERSION {
                    v = v.wrapping_add(1);
                }
                bytes[4..6].copy_from_slice(&v.to_le_bytes());
            }
            Mutation::NonUtf8 => {
                if bytes.len() > 10 {
                    let i = 10 + self.rng.below((bytes.len() - 10) as u64) as usize;
                    bytes[i] = 0xFF;
                } else {
                    // Empty payload: nothing to corrupt, degrade to
                    // garbage bytes.
                    bytes = self.garbage();
                }
            }
            Mutation::Garbage => bytes = self.garbage(),
        }
        FuzzCase {
            mutation,
            bytes,
            payload,
        }
    }

    /// Cases generated so far.
    pub fn cases(&self) -> u64 {
        self.cases
    }

    fn garbage(&mut self) -> Vec<u8> {
        let len = 1 + self.rng.below(64) as usize;
        (0..len).map(|_| self.rng.below(256) as u8).collect()
    }
}

/// Encodes `payload` as one valid wire frame.
fn frame_bytes(payload: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(10 + payload.len());
    crate::wire::write_frame(&mut buf, payload).expect("corpus payloads fit the frame cap");
    buf
}

/// What a fuzz campaign observed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// `Valid`/`DoubleFrame` cases that round-tripped.
    pub valid_decoded: u64,
    /// Cases answered with a typed [`WireError`].
    pub typed_errors: u64,
}

/// Feeds `iters` seeded fuzz cases straight into the frame decoder.
///
/// The contract: no panic, ever; `Valid`/`DoubleFrame` cases decode
/// back to their payloads; `Oversized` cases produce exactly
/// [`WireError::TooLong`]; everything else produces *some* typed
/// outcome (a frame or a `WireError`) within a bounded number of
/// reads.
///
/// # Errors
///
/// A description of the first contract violation, always containing
/// [`repro_banner`]`(seed)`.
pub fn fuzz_decoder(seed: u64, iters: u64) -> Result<FuzzReport, String> {
    let mut fuzzer = FrameFuzzer::new(seed);
    let mut report = FuzzReport::default();
    for case_index in 0..iters {
        let case = fuzzer.next_case();
        let fail = |what: String| {
            format!(
                "wire-fuzz case {case_index} ({:?}): {what} [{}]",
                case.mutation,
                repro_banner(seed)
            )
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut cursor = Cursor::new(case.bytes.clone());
            let mut decoded: Vec<Result<Frame, WireError>> = Vec::new();
            // A Cursor cannot block, so the only hang risk is a logic
            // loop; bound the reads so even that becomes a failure.
            for _ in 0..8 {
                let result = read_frame(&mut cursor);
                let stop = matches!(result, Err(_) | Ok(Frame::Eof));
                decoded.push(result);
                if stop {
                    break;
                }
            }
            decoded
        }));
        let decoded = match outcome {
            Ok(decoded) => decoded,
            Err(panic) => {
                let text = panic_text(&*panic).unwrap_or("non-string panic payload");
                return Err(fail(format!("decoder panicked: {text}")));
            }
        };
        report.cases += 1;
        match case.mutation {
            Mutation::Valid | Mutation::DoubleFrame => {
                let want = if case.mutation == Mutation::Valid {
                    1
                } else {
                    2
                };
                let payloads = decoded
                    .iter()
                    .filter(|r| matches!(r, Ok(Frame::Payload(p)) if *p == case.payload))
                    .count();
                if payloads != want {
                    return Err(fail(format!(
                        "expected {want} round-tripped payload(s), decoded {decoded:?}"
                    )));
                }
                report.valid_decoded += 1;
            }
            Mutation::Oversized => {
                if !matches!(decoded.last(), Some(Err(WireError::TooLong(n))) if *n > u64::from(MAX_FRAME_LEN))
                {
                    return Err(fail(format!(
                        "oversized length must be the typed TooLong reject, got {decoded:?}"
                    )));
                }
                report.typed_errors += 1;
            }
            _ => {
                if decoded.iter().any(|r| r.is_err()) {
                    report.typed_errors += 1;
                }
            }
        }
    }
    Ok(report)
}

/// What a socket-level campaign against a live daemon observed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerFuzzReport {
    /// Hostile connections opened.
    pub connections: u64,
    /// Typed `error` frames the server answered with before closing.
    pub error_frames: u64,
    /// Liveness probes (a full `status` round trip on a clean
    /// connection) that succeeded between hostile batches.
    pub health_checks: u64,
}

/// How long a hostile connection may take to be answered or closed
/// before the campaign declares the server hung. Generous next to the
/// server's own 2s slow-loris budget.
const CONN_DEADLINE: Duration = Duration::from_secs(10);

/// Opens `conns` hostile connections against a live daemon at `addr`,
/// each fed one seeded fuzz case, asserting the liveness contract:
/// every connection is answered or closed within 10 seconds,
/// and the server still answers a clean `status` request after every
/// batch of sixteen (no resource leak, no wedged accept loop).
///
/// The campaign closes its write half after each case instead of
/// waiting out the server's mid-frame stall budget — truncation
/// becomes an immediate EOF, keeping a 10k-case CI run in seconds.
///
/// # Errors
///
/// A description of the first violation, always containing
/// [`repro_banner`]`(seed)`.
pub fn fuzz_server(addr: &str, seed: u64, conns: u64) -> Result<ServerFuzzReport, String> {
    let mut fuzzer = FrameFuzzer::new(seed);
    let mut report = ServerFuzzReport::default();
    for conn_index in 0..conns {
        let case = fuzzer.next_case();
        let fail = |what: String| {
            format!(
                "server-fuzz connection {conn_index} ({:?}): {what} [{}]",
                case.mutation,
                repro_banner(seed)
            )
        };
        let stream = TcpStream::connect(addr).map_err(|e| fail(format!("connect: {e}")))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(|e| fail(format!("set_read_timeout: {e}")))?;
        let mut stream = stream;
        // The server may reject-and-close before we finish writing;
        // a send error is a legal outcome, not a campaign failure.
        let _ = stream.write_all(&case.bytes);
        let _ = stream.shutdown(Shutdown::Write);
        report.connections += 1;
        // Drain whatever the server answers until it closes our read
        // half. Anything decodable counts; `error` frames are tallied.
        let deadline = Instant::now() + CONN_DEADLINE;
        loop {
            if Instant::now() >= deadline {
                return Err(fail(format!(
                    "server neither answered nor closed within {CONN_DEADLINE:?}"
                )));
            }
            match read_frame(&mut stream) {
                Ok(Frame::Payload(frame)) => {
                    if frame.contains("\"t\": \"error\"") {
                        report.error_frames += 1;
                    }
                }
                Ok(Frame::Idle) => {}
                Ok(Frame::Eof) => break,
                // The server hung up mid-frame or reset us — a close,
                // which the contract allows.
                Err(_) => break,
            }
        }
        if conn_index % 16 == 15 {
            health_check(addr).map_err(|e| fail(format!("liveness probe failed: {e}")))?;
            report.health_checks += 1;
        }
    }
    health_check(addr)
        .map_err(|e| format!("final liveness probe failed: {e} [{}]", repro_banner(seed)))?;
    report.health_checks += 1;
    Ok(report)
}

/// One clean `status` round trip — the liveness witness between
/// hostile batches.
fn health_check(addr: &str) -> Result<(), String> {
    let mut client = crate::client::Client::connect(addr).map_err(|e| e.to_string())?;
    let status = client.status().map_err(|e| e.to_string())?;
    if status.contains("\"t\": \"status\"") {
        Ok(())
    } else {
        Err(format!("unexpected status reply: {status}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_banner_names_the_seed_and_env_var() {
        let banner = repro_banner(0xDEAD_BEEF);
        assert!(banner.contains("0x00000000deadbeef"), "{banner}");
        assert!(banner.contains("NWO_CHAOS_SEED=0xdeadbeef"), "{banner}");
    }

    #[test]
    fn fuzz_cases_are_deterministic_per_seed() {
        let mut a = FrameFuzzer::new(42);
        let mut b = FrameFuzzer::new(42);
        for _ in 0..256 {
            let (ca, cb) = (a.next_case(), b.next_case());
            assert_eq!(ca.mutation, cb.mutation);
            assert_eq!(ca.bytes, cb.bytes);
        }
        let mut c = FrameFuzzer::new(43);
        let differs = (0..256).any(|_| {
            let (ca, cc) = (a.next_case(), c.next_case());
            ca.bytes != cc.bytes
        });
        assert!(differs, "different seeds must explore differently");
    }

    #[test]
    fn decoder_survives_a_seeded_campaign() {
        // A real slice of the CI campaign: every mutation class gets
        // hit hundreds of times even at this budget.
        let report = fuzz_decoder(env_seed(0xA5A5), 2000).expect("no contract violations");
        assert_eq!(report.cases, 2000);
        assert!(report.valid_decoded > 0, "valid cases must round-trip");
        assert!(
            report.typed_errors > 0,
            "mutations must produce typed errors"
        );
    }

    #[test]
    fn env_seed_defaults_when_unset() {
        // Not set in the test environment (serve tests scrub it), so
        // the default flows through; `nwo_bench::env` tests the parse.
        assert_eq!(env_seed(7), 7);
    }
}
