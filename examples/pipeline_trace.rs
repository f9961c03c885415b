//! Pipeline tracing: watch individual instructions flow through fetch,
//! dispatch, issue, writeback and commit — and see operation packing
//! share ALUs in real time.
//!
//! ```sh
//! cargo run --release --example pipeline_trace
//! ```

use nwo::core::PackConfig;
use nwo::isa::{assemble, Instr};
use nwo::sim::obs::{CommitRecord, RingSink};
use nwo::sim::{SimConfig, Simulator};

fn print_trace(title: &str, trace: &[CommitRecord]) -> Result<(), Box<dyn std::error::Error>> {
    println!("--- {title} ---");
    println!(
        "{:<10} {:<22} {:>5} {:>5} {:>5} {:>5} {:>5}  flags",
        "pc", "instruction", "F", "D", "I", "X", "C"
    );
    let base = trace.first().map(|t| t.fetched_at).unwrap_or(0);
    for t in trace {
        println!(
            "{:<#10x} {:<22} {:>5} {:>5} {:>5} {:>5} {:>5}  {}{}",
            t.pc,
            Instr::decode(t.raw)?.to_string(),
            t.fetched_at - base,
            t.dispatched_at - base,
            t.issued_at - base,
            t.completed_at - base,
            t.committed_at - base,
            if t.packed { "P" } else { "" },
            if t.replayed { "R" } else { "" },
        );
    }
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four independent narrow adds, then a combining tree: the packed
    // machine issues the adds in shared ALU lanes.
    let program = assemble(
        r#"
        main:
            li   t0, 3
            li   t1, 5
            li   t2, 7
            li   t3, 9
        loop:
            addq t0, 1, t0
            addq t1, 1, t1
            addq t2, 1, t2
            addq t3, 1, t3
            addq t0, t1, t4
            addq t2, t3, t5
            addq t4, t5, v0
            cmplt v0, 200, t6
            bne  t6, loop
            outq v0
            halt
    "#,
    )?;

    // Retain the first 24 commits of each run in memory.
    let mut base = Simulator::new(&program, SimConfig::default());
    base.set_trace_sink(Box::new(RingSink::keep_first(24)));
    let base_report = base.run(u64::MAX)?;
    print_trace("baseline (4-issue, no packing)", &base.trace())?;

    let mut packed = Simulator::new(
        &program,
        SimConfig::default().with_packing(PackConfig::default()),
    );
    packed.set_trace_sink(Box::new(RingSink::keep_first(24)));
    let packed_report = packed.run(u64::MAX)?;
    print_trace(
        "operation packing (P = issued in a shared ALU)",
        &packed.trace(),
    )?;

    println!(
        "baseline: {} cycles   packed: {} cycles   groups formed: {}",
        base_report.stats.cycles, packed_report.stats.cycles, packed_report.stats.pack.groups
    );
    assert_eq!(base_report.out_quads, packed_report.out_quads);
    Ok(())
}
