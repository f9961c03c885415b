//! Bring-your-own workload: write a program in the `nwo` assembly
//! language, run it under every machine configuration, and compare.
//!
//! The program below is a little fixed-point FIR filter — exactly the
//! kind of 16-bit kernel the paper's mechanisms target.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use nwo::core::{GatingConfig, PackConfig};
use nwo::isa::{assemble, Emulator};
use nwo::sim::{SimConfig, Simulator};

const FIR: &str = r#"
    .data
coeff:
    .word 3, -5, 12, 24, 12, -5, 3, 0      ; symmetric low-pass taps
signal:
    .space 4096                             ; filled by the init loop
    .text
main:
    ; ---- synthesise a 2048-sample triangle wave in place ----
    la   a0, signal
    li   t0, 0
    li   t1, 2048
mkwave:
    and  t0, 255, t2
    subq t2, 128, t2                        ; -128..127 ramp
    sll  t0, 1, t3
    addq a0, t3, t3
    stw  t2, 0(t3)
    addq t0, 1, t0
    cmplt t0, t1, t4
    bne  t4, mkwave
    ; ---- 8-tap FIR over the signal ----
    la   a1, coeff
    clr  s0                                 ; output checksum
    li   t0, 8                              ; position
fir:
    clr  t1                                 ; accumulator
    clr  t2                                 ; tap
tap:
    subq t0, t2, t3
    sll  t3, 1, t3
    addq a0, t3, t3
    ldwu t4, 0(t3)
    sextw t4, t4                            ; x[n-k]
    sll  t2, 1, t5
    addq a1, t5, t5
    ldwu t6, 0(t5)
    sextw t6, t6                            ; h[k]
    mulq t4, t6, t4
    addq t1, t4, t1
    addq t2, 1, t2
    cmplt t2, 8, t7
    bne  t7, tap
    sra  t1, 6, t1                          ; rescale
    addq s0, t1, s0
    addq t0, 1, t0
    li   t8, 2048
    cmplt t0, t8, t7
    bne  t7, fir
    outq s0
    halt
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = assemble(FIR)?;
    println!(
        "assembled {} instructions, {} data bytes",
        program.len(),
        program.data.len()
    );

    // Functional reference first.
    let mut emu = Emulator::new(&program);
    emu.run(10_000_000)?;
    let expected = emu.outq().to_vec();
    println!(
        "emulator output: {expected:?} in {} instructions",
        emu.icount()
    );
    println!();

    println!(
        "{:<22} {:>9} {:>7} {:>9} {:>10}",
        "machine", "cycles", "ipc", "power mW", "packed ops"
    );
    let machines: Vec<(&str, SimConfig)> = vec![
        ("baseline", SimConfig::default()),
        (
            "clock gating",
            SimConfig::default().with_gating(GatingConfig::default()),
        ),
        (
            "operation packing",
            SimConfig::default().with_packing(PackConfig::default()),
        ),
        (
            "replay packing",
            SimConfig::default().with_packing(PackConfig::with_replay()),
        ),
        ("8-issue/8-ALU", SimConfig::default().with_eight_issue()),
    ];
    for (name, config) in machines {
        let mut sim = Simulator::new(&program, config);
        let report = sim.run(u64::MAX)?;
        assert_eq!(report.out_quads, expected, "{name} diverged");
        println!(
            "{:<22} {:>9} {:>7.2} {:>9.1} {:>10}",
            name,
            report.stats.cycles,
            report.ipc(),
            report.power().gated_mw_per_cycle,
            report.stats.pack.packed_ops
        );
    }
    Ok(())
}
