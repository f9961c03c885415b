//! Quickstart: assemble a small program, run it on the cycle-level
//! out-of-order simulator, and inspect the narrow-width statistics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nwo::isa::assemble;
use nwo::sim::{SimConfig, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A little checksum loop over narrow values: exactly the kind of
    // code the paper's hardware exploits.
    let program = assemble(
        r#"
        main:
            clr  t0            ; checksum
            clr  t1            ; i
            li   t2, 1000
        loop:
            and  t1, 255, t3   ; a narrow byte-sized value
            mulq t3, 3, t4
            addq t0, t4, t0
            xor  t0, t3, t0
            addq t1, 1, t1
            cmplt t1, t2, t5
            bne  t5, loop
            outq t0
            halt
    "#,
    )?;

    let mut sim = Simulator::new(&program, SimConfig::default());
    let report = sim.run(1_000_000)?;

    println!("program output: {:?}", report.out_quads);
    println!();
    println!("{report}");
    println!(
        "operations with both operands <= 16 bits: {:.1}%",
        report.stats.breakdown.narrow16_total_fraction() * 100.0
    );
    println!(
        "integer-unit power saved by operand gating: {:.1}%",
        report.power().reduction_percent
    );
    Ok(())
}
