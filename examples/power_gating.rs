//! Operand-based clock gating on real kernels (paper Section 4).
//!
//! Runs one SPEC-like and one media kernel through the cycle-level
//! simulator and prints the Figure 6/7-style power breakdown.
//!
//! ```sh
//! cargo run --release --example power_gating
//! ```

use nwo::core::GatingConfig;
use nwo::sim::{SimConfig, Simulator};
use nwo::workloads::full_suite;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for bench in full_suite(0)
        .into_iter()
        .filter(|b| b.name == "ijpeg" || b.name == "gsm-enc")
    {
        let config = SimConfig::default().with_gating(GatingConfig::default());
        let mut sim = Simulator::new(&bench.program, config);
        let start = Instant::now();
        let report = sim.run(u64::MAX)?;
        let elapsed = start.elapsed();
        assert_eq!(report.out_quads, bench.expected, "{} diverged", bench.name);

        println!("=== {} ===", bench.name);
        println!(
            "  {} instructions, {} cycles (ipc {:.2}), simulated in {:.2}s ({:.0}k inst/s)",
            report.stats.committed,
            report.stats.cycles,
            report.ipc(),
            elapsed.as_secs_f64(),
            report.stats.committed as f64 / elapsed.as_secs_f64() / 1000.0
        );
        let power = report.power();
        println!(
            "  gated at 16 bits: {:.1}% of ops, at 33 bits: {:.1}%",
            power.gated16_fraction * 100.0,
            power.gated33_fraction * 100.0
        );
        println!(
            "  power/cycle: baseline {:.0} mW, gated {:.0} mW  ->  {:.1}% reduction",
            power.baseline_mw_per_cycle, power.gated_mw_per_cycle, power.reduction_percent
        );
        println!(
            "  saved\u{40}16 {:.0} mW, saved\u{40}33 {:.0} mW, overhead {:.1} mW, net {:.0} mW",
            power.saved16_mw_per_cycle,
            power.saved33_mw_per_cycle,
            power.extra_mw_per_cycle,
            power.net_saved_mw_per_cycle
        );
        println!(
            "  gated ops fed directly by a load: {:.1}%",
            report.stats.load_operand_fraction() * 100.0
        );
        println!();
    }
    Ok(())
}
