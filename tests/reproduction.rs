//! Reproduction regression tests: the paper's headline *shapes* must
//! hold on the CI-sized suite. These bounds are deliberately loose —
//! they catch modelling regressions, not run-to-run noise (everything
//! is deterministic anyway).

use nwo::core::GatingConfig;
use nwo::sim::{SimConfig, SimReport, Simulator};
use nwo::workloads::{full_suite, Suite};

fn run(bench: &nwo::workloads::Benchmark, config: SimConfig) -> SimReport {
    let mut sim = Simulator::new(&bench.program, config);
    let report = sim.run(u64::MAX).expect("completes");
    assert_eq!(report.out_quads, bench.expected, "{}", bench.name);
    report
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Figure 1: about half of integer operations are narrow at 16 bits,
/// and the 33-bit address step is large.
#[test]
fn fig1_shape_half_narrow_with_address_step() {
    let mut at16 = Vec::new();
    let mut step = Vec::new();
    for bench in full_suite(0) {
        let r = run(&bench, SimConfig::default());
        let h = &r.stats.width_committed;
        at16.push(h.cumulative(16));
        step.push(h.cumulative(33) - h.cumulative(32));
    }
    let avg16 = mean(&at16);
    assert!(
        (0.35..=0.80).contains(&avg16),
        "average narrow-at-16 fraction {avg16:.2} left the paper's ballpark (~0.5)"
    );
    let avg_step = mean(&step);
    assert!(
        avg_step > 0.15,
        "the 33-bit address step collapsed ({avg_step:.2}) — check the memory layout"
    );
}

/// Figure 7: operand gating removes roughly half the integer unit's
/// power on both suites.
#[test]
fn fig7_shape_power_reduction_near_half() {
    let mut spec = Vec::new();
    let mut media = Vec::new();
    for bench in full_suite(0) {
        let r = run(
            &bench,
            SimConfig::default().with_gating(GatingConfig::default()),
        );
        let pct = r.power().reduction_percent;
        assert!(
            (10.0..=80.0).contains(&pct),
            "{}: power reduction {pct:.1}% is implausible",
            bench.name
        );
        match bench.suite {
            Suite::SpecInt => spec.push(pct),
            Suite::Media => media.push(pct),
        }
    }
    let (spec, media) = (mean(&spec), mean(&media));
    assert!(
        (40.0..=70.0).contains(&spec),
        "SPEC average power reduction {spec:.1}% left the paper's band (54.1%)"
    );
    assert!(
        (40.0..=70.0).contains(&media),
        "media average power reduction {media:.1}% left the paper's band (57.9%)"
    );
}

/// Figure 6: the detection overhead never exceeds the savings.
#[test]
fn fig6_shape_overhead_never_wins() {
    for bench in full_suite(0) {
        let r = run(
            &bench,
            SimConfig::default().with_gating(GatingConfig::default()),
        );
        let p = r.power();
        assert!(
            p.net_saved_mw_per_cycle > 0.0,
            "{}: net power saving went negative",
            bench.name
        );
        assert!(
            p.extra_mw_per_cycle < p.saved16_mw_per_cycle + p.saved33_mw_per_cycle,
            "{}: zero-detect overhead exceeded the savings",
            bench.name
        );
    }
}

/// Figure 11's headline: with 8-wide decode the packed machine
/// captures a large share of what an 8-issue/8-ALU machine would gain,
/// on the packing-friendly kernels.
#[test]
fn fig11_shape_packing_approaches_eight_issue() {
    let mut captures = Vec::new();
    for bench in full_suite(0)
        .into_iter()
        .filter(|b| ["go", "mpeg2-enc", "g721-dec"].contains(&b.name))
    {
        let base = run(&bench, SimConfig::default().with_wide_decode());
        let pack = run(
            &bench,
            SimConfig::default()
                .with_wide_decode()
                .with_packing(nwo::core::PackConfig::default()),
        );
        let eight = run(
            &bench,
            SimConfig::default().with_wide_decode().with_eight_issue(),
        );
        let gain_eight = eight.ipc() - base.ipc();
        let gain_pack = pack.ipc() - base.ipc();
        if gain_eight > 0.01 {
            captures.push(gain_pack / gain_eight);
        }
    }
    assert!(!captures.is_empty(), "8-issue must gain on these kernels");
    let avg = mean(&captures);
    assert!(
        avg > 0.5,
        "packing captures only {avg:.2} of the 8-issue gain — the Figure 11 claim broke"
    );
}

/// Section 5.4: packing speedups grow when the front end widens.
#[test]
fn wide_decode_amplifies_packing() {
    let mut narrow_total = 0i64;
    let mut wide_total = 0i64;
    for bench in full_suite(0)
        .into_iter()
        .filter(|b| ["go", "mpeg2-enc", "ijpeg", "g721-dec"].contains(&b.name))
    {
        let saved = |wide: bool| {
            let shape = |c: SimConfig| if wide { c.with_wide_decode() } else { c };
            let base = run(&bench, shape(SimConfig::default()));
            let pack = run(
                &bench,
                shape(SimConfig::default().with_packing(nwo::core::PackConfig::default())),
            );
            base.stats.cycles as i64 - pack.stats.cycles as i64
        };
        narrow_total += saved(false);
        wide_total += saved(true);
    }
    assert!(
        wide_total > narrow_total,
        "8-wide decode must amplify packing (saved {wide_total} vs {narrow_total} cycles)"
    );
}

/// Figure 2: realistic prediction observes at least as much operand
/// fluctuation as perfect prediction.
#[test]
fn fig2_shape_wrong_paths_add_fluctuation() {
    let mut perfect_sum = 0.0;
    let mut real_sum = 0.0;
    for bench in full_suite(0)
        .into_iter()
        .filter(|b| b.suite == Suite::SpecInt)
    {
        let p = run(&bench, SimConfig::default().with_perfect_prediction());
        let r = run(&bench, SimConfig::default());
        perfect_sum += p.stats.fluctuation.fluctuating_fraction();
        real_sum += r.stats.fluctuation.fluctuating_fraction();
    }
    assert!(
        real_sum >= perfect_sum,
        "realistic prediction must see at least as much width fluctuation"
    );
}
