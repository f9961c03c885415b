//! Streaming pipeline trace: a [`TraceSink`] receives one
//! [`TraceEvent`] per pipeline action, so a multi-million-instruction
//! run can be traced in O(1) resident memory ([`JsonlSink`]) or with a
//! bounded in-memory window ([`RingSink`]).
//!
//! Events carry the raw 32-bit instruction encoding rather than a
//! decoded instruction so this crate stays dependency-free; consumers
//! that want mnemonics decode `raw` with the ISA crate.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Everything known about one committed instruction's trip through the
/// pipeline. Cycle fields satisfy
/// `fetched_at <= dispatched_at <= issued_at <= completed_at <= committed_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// Commit sequence number (0-based).
    pub seq: u64,
    /// Instruction address.
    pub pc: u64,
    /// Raw 32-bit instruction encoding.
    pub raw: u32,
    /// Cycle the instruction entered the fetch queue.
    pub fetched_at: u64,
    /// Cycle it was renamed into the RUU.
    pub dispatched_at: u64,
    /// Cycle it issued to a functional unit.
    pub issued_at: u64,
    /// Cycle its result was written back.
    pub completed_at: u64,
    /// Cycle it retired.
    pub committed_at: u64,
    /// Issued as part of a packed group.
    pub packed: bool,
    /// Went through at least one replay squash.
    pub replayed: bool,
}

/// One pipeline event, emitted as it happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction entered the fetch queue.
    Fetch {
        /// Cycle of the event.
        cycle: u64,
        /// Instruction address.
        pc: u64,
        /// Raw 32-bit encoding.
        raw: u32,
        /// Fetched down a speculative (possibly wrong) path.
        spec: bool,
    },
    /// An instruction was renamed into the RUU.
    Dispatch {
        /// Cycle of the event.
        cycle: u64,
        /// Instruction address.
        pc: u64,
    },
    /// An instruction issued to a functional unit.
    Issue {
        /// Cycle of the event.
        cycle: u64,
        /// Instruction address.
        pc: u64,
        /// Issued inside a packed group.
        packed: bool,
        /// Issued as a width-speculative replay candidate.
        replay: bool,
    },
    /// A packed group was formed at issue.
    Pack {
        /// Cycle of the event.
        cycle: u64,
        /// PC of the group leader.
        leader_pc: u64,
        /// Number of operations sharing the ALU slot.
        members: u8,
        /// The group carries a width-speculated operand.
        replay: bool,
    },
    /// A width misprediction squashed a replay-speculated operation.
    ReplaySquash {
        /// Cycle of the event.
        cycle: u64,
        /// Instruction address.
        pc: u64,
        /// Cycles until the operation may issue again.
        penalty: u64,
    },
    /// An instruction's result was written back.
    Writeback {
        /// Cycle of the event.
        cycle: u64,
        /// Instruction address.
        pc: u64,
    },
    /// A mispredicted branch resolved; younger work was squashed.
    BranchMispredict {
        /// Cycle of the event.
        cycle: u64,
        /// Branch address.
        pc: u64,
        /// Correct target now being fetched.
        target: u64,
    },
    /// An instruction retired.
    Commit(CommitRecord),
}

impl TraceEvent {
    /// The event's cycle.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Fetch { cycle, .. }
            | TraceEvent::Dispatch { cycle, .. }
            | TraceEvent::Issue { cycle, .. }
            | TraceEvent::Pack { cycle, .. }
            | TraceEvent::ReplaySquash { cycle, .. }
            | TraceEvent::Writeback { cycle, .. }
            | TraceEvent::BranchMispredict { cycle, .. } => cycle,
            TraceEvent::Commit(ref record) => record.committed_at,
        }
    }

    /// Serializes the event as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(96);
        match *self {
            TraceEvent::Fetch {
                cycle,
                pc,
                raw,
                spec,
            } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"fetch\",\"cycle\":{cycle},\"pc\":{pc},\"raw\":{raw},\"spec\":{spec}}}"
                );
            }
            TraceEvent::Dispatch { cycle, pc } => {
                let _ = write!(s, "{{\"ev\":\"dispatch\",\"cycle\":{cycle},\"pc\":{pc}}}");
            }
            TraceEvent::Issue {
                cycle,
                pc,
                packed,
                replay,
            } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"issue\",\"cycle\":{cycle},\"pc\":{pc},\"packed\":{packed},\"replay\":{replay}}}"
                );
            }
            TraceEvent::Pack {
                cycle,
                leader_pc,
                members,
                replay,
            } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"pack\",\"cycle\":{cycle},\"leader_pc\":{leader_pc},\"members\":{members},\"replay\":{replay}}}"
                );
            }
            TraceEvent::ReplaySquash { cycle, pc, penalty } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"replay_squash\",\"cycle\":{cycle},\"pc\":{pc},\"penalty\":{penalty}}}"
                );
            }
            TraceEvent::Writeback { cycle, pc } => {
                let _ = write!(s, "{{\"ev\":\"writeback\",\"cycle\":{cycle},\"pc\":{pc}}}");
            }
            TraceEvent::BranchMispredict { cycle, pc, target } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"branch_mispredict\",\"cycle\":{cycle},\"pc\":{pc},\"target\":{target}}}"
                );
            }
            TraceEvent::Commit(r) => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"commit\",\"cycle\":{},\"seq\":{},\"pc\":{},\"raw\":{},\"fetched_at\":{},\"dispatched_at\":{},\"issued_at\":{},\"completed_at\":{},\"committed_at\":{},\"packed\":{},\"replayed\":{}}}",
                    r.committed_at,
                    r.seq,
                    r.pc,
                    r.raw,
                    r.fetched_at,
                    r.dispatched_at,
                    r.issued_at,
                    r.completed_at,
                    r.committed_at,
                    r.packed,
                    r.replayed
                );
            }
        }
        s
    }
}

/// Receives pipeline events as the simulation runs.
pub trait TraceSink {
    /// False when emitting would be wasted work; hot paths skip event
    /// construction entirely.
    ///
    /// A sink's answer is fixed while it is installed: the simulator
    /// reads it once, when the sink is installed, and then emits every
    /// event or none. [`NullSink`], [`RingSink`], [`JsonlSink`] and a
    /// [`TeeSink`] of them all answer the same for their whole life.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn emit(&mut self, event: &TraceEvent);

    /// Flushes any buffered output.
    fn flush(&mut self) {}

    /// Commit records this sink retained in memory (empty for
    /// streaming sinks).
    fn retained(&self) -> Vec<CommitRecord> {
        Vec::new()
    }
}

/// Discards everything; the default sink.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _event: &TraceEvent) {}
}

/// Keeps a bounded window of commit records in memory, dropping other
/// event kinds. `keep_first` keeps the first N commits (`nwo sim
/// --trace N`); `keep_last` keeps a sliding window of the most recent
/// N.
#[derive(Debug, Clone)]
pub struct RingSink {
    records: VecDeque<CommitRecord>,
    capacity: usize,
    keep_first: bool,
}

impl RingSink {
    /// Retains the first `capacity` commits.
    pub fn keep_first(capacity: usize) -> RingSink {
        RingSink {
            records: VecDeque::new(),
            capacity,
            keep_first: true,
        }
    }

    /// Retains the most recent `capacity` commits.
    pub fn keep_last(capacity: usize) -> RingSink {
        RingSink {
            records: VecDeque::new(),
            capacity,
            keep_first: false,
        }
    }
}

impl TraceSink for RingSink {
    fn emit(&mut self, event: &TraceEvent) {
        if let TraceEvent::Commit(record) = event {
            if self.records.len() < self.capacity {
                self.records.push_back(*record);
            } else if !self.keep_first && self.capacity > 0 {
                self.records.pop_front();
                self.records.push_back(*record);
            }
        }
    }

    fn retained(&self) -> Vec<CommitRecord> {
        self.records.iter().copied().collect()
    }
}

/// Streams every event as one JSON line to a writer, with internal
/// buffering: resident memory stays O(1) no matter how long the run.
pub struct JsonlSink<W: Write> {
    writer: Option<W>, // only None after into_inner
    buffer: String,
    events: u64,
}

/// Internal buffer size at which [`JsonlSink`] writes through.
const JSONL_FLUSH_BYTES: usize = 64 * 1024;

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncates) a `.jsonl` trace file.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: Some(writer),
            buffer: String::with_capacity(JSONL_FLUSH_BYTES + 256),
            events: 0,
        }
    }

    /// Number of events emitted so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Appends one pre-serialized JSON line (without its trailing
    /// newline), counting it as an event. This lets non-[`TraceEvent`]
    /// streams — interval metric snapshots, for instance — reuse the
    /// sink's buffering and flush behaviour.
    pub fn write_line(&mut self, line: &str) {
        self.buffer.push_str(line);
        self.buffer.push('\n');
        self.events += 1;
        if self.buffer.len() >= JSONL_FLUSH_BYTES {
            self.write_through();
        }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        self.write_through();
        let mut writer = self.writer.take().expect("writer present until into_inner");
        let _ = writer.flush();
        writer
    }

    fn write_through(&mut self) {
        if let Some(writer) = self.writer.as_mut() {
            if !self.buffer.is_empty() {
                let _ = writer.write_all(self.buffer.as_bytes());
                self.buffer.clear();
            }
        }
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn emit(&mut self, event: &TraceEvent) {
        self.buffer.push_str(&event.to_json_line());
        self.buffer.push('\n');
        self.events += 1;
        if self.buffer.len() >= JSONL_FLUSH_BYTES {
            self.write_through();
        }
    }

    fn flush(&mut self) {
        self.write_through();
        if let Some(writer) = self.writer.as_mut() {
            let _ = writer.flush();
        }
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        self.write_through();
        if let Some(writer) = self.writer.as_mut() {
            let _ = writer.flush();
        }
    }
}

/// Fans events out to several sinks (e.g. a ring for `--trace` plus a
/// JSONL stream for `--trace-out`).
#[derive(Default)]
pub struct TeeSink {
    sinks: Vec<Box<dyn TraceSink>>,
}

impl TeeSink {
    /// An empty tee.
    pub fn new() -> TeeSink {
        TeeSink::default()
    }

    /// Adds a sink; disabled sinks are kept but skipped on emit.
    pub fn push(&mut self, sink: Box<dyn TraceSink>) {
        self.sinks.push(sink);
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True when no sink is attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl TraceSink for TeeSink {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn emit(&mut self, event: &TraceEvent) {
        for sink in &mut self.sinks {
            if sink.enabled() {
                sink.emit(event);
            }
        }
    }

    fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }

    fn retained(&self) -> Vec<CommitRecord> {
        self.sinks
            .iter()
            .map(|s| s.retained())
            .find(|r| !r.is_empty())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit(seq: u64) -> TraceEvent {
        TraceEvent::Commit(CommitRecord {
            seq,
            pc: 0x1000 + seq * 4,
            raw: 0,
            fetched_at: seq,
            dispatched_at: seq + 1,
            issued_at: seq + 2,
            completed_at: seq + 3,
            committed_at: seq + 4,
            packed: false,
            replayed: false,
        })
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut sink = NullSink;
        assert!(!sink.enabled());
        sink.emit(&commit(0));
        assert!(sink.retained().is_empty());
    }

    #[test]
    fn ring_sink_keep_first_keeps_the_first_commits() {
        let mut sink = RingSink::keep_first(2);
        for i in 0..5 {
            sink.emit(&commit(i));
        }
        let seqs: Vec<u64> = sink.retained().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn ring_sink_keep_last_slides() {
        let mut sink = RingSink::keep_last(2);
        for i in 0..5 {
            sink.emit(&commit(i));
        }
        let seqs: Vec<u64> = sink.retained().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn jsonl_sink_streams_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&TraceEvent::Fetch {
            cycle: 1,
            pc: 0x1000,
            raw: 7,
            spec: false,
        });
        sink.emit(&commit(3));
        assert_eq!(sink.events(), 2);
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            crate::json::parse(line).expect("every trace line parses");
        }
        let c = crate::json::parse(lines[1]).unwrap();
        assert_eq!(c.get("ev").unwrap().as_str(), Some("commit"));
        assert_eq!(c.get("seq").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        use std::io::Read as _;
        let dir = std::env::temp_dir().join("nwo-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drop-flush.jsonl");
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.emit(&commit(0));
        } // dropped without an explicit flush
        let mut text = String::new();
        File::open(&path)
            .unwrap()
            .read_to_string(&mut text)
            .unwrap();
        assert_eq!(text.lines().count(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tee_fans_out_and_surfaces_retained_records() {
        let mut tee = TeeSink::new();
        tee.push(Box::new(NullSink));
        tee.push(Box::new(RingSink::keep_first(8)));
        assert!(tee.enabled());
        tee.emit(&commit(1));
        assert_eq!(tee.retained().len(), 1);
    }

    #[test]
    fn every_event_kind_serializes_parseably() {
        let events = [
            TraceEvent::Fetch {
                cycle: 1,
                pc: 2,
                raw: 3,
                spec: true,
            },
            TraceEvent::Dispatch { cycle: 1, pc: 2 },
            TraceEvent::Issue {
                cycle: 1,
                pc: 2,
                packed: true,
                replay: false,
            },
            TraceEvent::Pack {
                cycle: 1,
                leader_pc: 2,
                members: 2,
                replay: true,
            },
            TraceEvent::ReplaySquash {
                cycle: 1,
                pc: 2,
                penalty: 3,
            },
            TraceEvent::Writeback { cycle: 1, pc: 2 },
            TraceEvent::BranchMispredict {
                cycle: 1,
                pc: 2,
                target: 4,
            },
            commit(9),
        ];
        for event in &events {
            let line = event.to_json_line();
            let v = crate::json::parse(&line).expect("line parses");
            assert!(v.get("ev").unwrap().as_str().is_some());
            assert_eq!(v.get("cycle").unwrap().as_u64(), Some(event.cycle()));
        }
    }
}
