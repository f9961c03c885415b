//! The lockstep architectural oracle: random machine configurations and
//! geometries on real kernels must report zero divergences, injected
//! architectural faults must be detected, and injected
//! micro-architectural or checkpoint faults must degrade gracefully or
//! be rejected.

use nwo::core::{GatingConfig, PackConfig};
use nwo::sim::{SimConfig, SimError, SimReport, Simulator};
use nwo::verify::{flip_blob_bit, DatapathFault, DivergenceKind, FaultPlan};
use nwo::workloads::{full_suite, Benchmark};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A machine configuration drawn from the full optimization space the
/// paper sweeps: gating × packing/replay × predictor × width × issue.
#[derive(Debug, Clone, Copy)]
struct ConfigChoice {
    gating: bool,
    packing: u8, // 0 none, 1 packing, 2 replay packing
    perfect_bp: bool,
    wide: bool,
    eight: bool,
    zero_detect_loads: bool,
}

impl ConfigChoice {
    fn build(self) -> SimConfig {
        let mut c = SimConfig::default().with_verify();
        if self.gating {
            c = c.with_gating(GatingConfig::default());
        }
        match self.packing {
            1 => c = c.with_packing(PackConfig::default()),
            2 => c = c.with_packing(PackConfig::with_replay()),
            _ => {}
        }
        if self.perfect_bp {
            c = c.with_perfect_prediction();
        }
        if self.wide {
            c = c.with_wide_decode();
        }
        if self.eight {
            c = c.with_eight_issue();
        }
        c.zero_detect_loads = self.zero_detect_loads;
        c
    }
}

fn config_choice() -> impl Strategy<Value = ConfigChoice> {
    (
        any::<bool>(),
        0u8..3,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(gating, packing, perfect_bp, wide, eight, zero_detect_loads)| ConfigChoice {
                gating,
                packing,
                perfect_bp,
                wide,
                eight,
                zero_detect_loads,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any point in the optimization space, on any bundled kernel,
    /// commits exactly the architecture's semantics: the oracle checks
    /// every commit and reports zero divergences.
    #[test]
    fn random_configs_run_oracle_clean(
        choice in config_choice(),
        kernel in prop::sample::select((0..full_suite(0).len()).collect::<Vec<_>>()),
    ) {
        let bench = full_suite(0).swap_remove(kernel);
        let mut sim = Simulator::new(&bench.program, choice.build());
        let report = sim
            .run(u64::MAX)
            .unwrap_or_else(|e| panic!("{} under {choice:?}: {e}", bench.name));
        prop_assert_eq!(&report.out_quads, &bench.expected, "{} output", bench.name);
        let checked = sim.oracle_checked().expect("verify mode is on");
        prop_assert!(checked > 0, "oracle saw commits");
        prop_assert_eq!(checked, report.stats.committed, "every commit was checked");
    }
}

/// A machine geometry: window, queue and width sizes, most of which no
/// golden config uses. It reaches instruction rings from 2 slots (RUU 1
/// + IFQ 1) to 256 (RUU 200 + IFQ 16).
#[derive(Debug, Clone, Copy)]
struct Geometry {
    ruu: usize,
    lsq: usize,
    ifq: usize,
    /// Fetch, decode, issue and commit widths.
    widths: [usize; 4],
    alus: usize,
    mispredict_penalty: u64,
}

impl Geometry {
    /// `config` with this geometry in place of its own.
    fn apply(self, config: SimConfig) -> SimConfig {
        let [fetch_width, decode_width, issue_width, commit_width] = self.widths;
        SimConfig {
            ruu_size: self.ruu,
            lsq_size: self.lsq,
            ifq_size: self.ifq,
            fetch_width,
            decode_width,
            issue_width,
            commit_width,
            int_alus: self.alus,
            mispredict_penalty: self.mispredict_penalty,
            ..config
        }
    }
}

fn geometry() -> impl Strategy<Value = Geometry> {
    let width = || 1usize..=8;
    (
        (1usize..=200, 1usize..=100, 1usize..=16, 0u64..=8),
        (width(), width(), width(), width(), width()),
    )
        .prop_map(
            |((ruu, lsq, ifq, mispredict_penalty), (fetch, decode, issue, commit, alus))| {
                Geometry {
                    ruu,
                    lsq,
                    ifq,
                    widths: [fetch, decode, issue, commit],
                    alus,
                    mispredict_penalty,
                }
            },
        )
}

/// Cases of the geometry test: 32, or `PROPTEST_CASES` when it is set.
fn geometry_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// Runs `bench` to halt under `config`, returning its report and the
/// commits the oracle checked. The vendored proptest does not shrink,
/// so an error or a panic, such as a failed shadow check in a debug
/// build, fails with the drawn config in its message.
fn run_naming_config(bench: &Benchmark, config: &SimConfig) -> (SimReport, Option<u64>) {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Simulator::new(&bench.program, config.clone());
        let report = sim.run(u64::MAX).map_err(|e| e.to_string())?;
        Ok((report, sim.oracle_checked()))
    }));
    let outcome = run.unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("a panic without a message");
        Err(format!("panicked: {message}"))
    });
    outcome.unwrap_or_else(|e| panic!("{} under {config:?}: {e}", bench.name))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(geometry_cases()))]

    /// Any machine geometry, with any machine flags, on any bundled
    /// kernel, commits exactly the architecture's semantics. In a debug
    /// build the simulator's shadow check also runs on every cycle of
    /// these short runs, so a bookkeeping slip that leaves the output
    /// right still fails here.
    #[test]
    fn random_geometries_run_oracle_clean(
        choice in config_choice(),
        geometry in geometry(),
        kernel in prop::sample::select((0..full_suite(0).len()).collect::<Vec<_>>()),
    ) {
        let bench = full_suite(0).swap_remove(kernel);
        let config = geometry.apply(choice.build());
        let (report, checked) = run_naming_config(&bench, &config);
        prop_assert_eq!(&report.out_quads, &bench.expected, "{} under {:?}", bench.name, config);
        prop_assert_eq!(
            checked,
            Some(report.stats.committed),
            "{} under {:?}: every commit was checked",
            bench.name,
            config
        );
    }
}

#[test]
fn every_kernel_is_oracle_clean_under_replay_packing() {
    let config = SimConfig::default()
        .with_gating(GatingConfig::default())
        .with_packing(PackConfig::with_replay())
        .with_verify();
    for bench in full_suite(0) {
        let mut sim = Simulator::new(&bench.program, config.clone());
        let report = sim
            .run(u64::MAX)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert_eq!(report.out_quads, bench.expected, "{}", bench.name);
        assert_eq!(
            sim.oracle_checked(),
            Some(report.stats.committed),
            "{}: oracle checked every commit",
            bench.name
        );
    }
}

#[test]
fn oracle_survives_a_checkpoint_restore() {
    let bench = &full_suite(0)[0];
    let mut warm = Simulator::new(&bench.program, SimConfig::default().with_verify());
    warm.warmup(1_000).expect("warms");
    let blob = warm.checkpoint();

    let mut sim = Simulator::new(&bench.program, SimConfig::default().with_verify());
    sim.restore_checkpoint(&blob).expect("restores");
    let report = sim.run(u64::MAX).expect("runs oracle-clean after restore");
    assert_eq!(report.out_quads, bench.expected);
    assert!(sim.oracle_checked().expect("verify on") > 0);
}

#[test]
fn injected_datapath_fault_is_detected_with_context() {
    let bench = &full_suite(0)[0];
    let fault = DatapathFault {
        commit_index: 50,
        bit: 40,
    };
    let mut sim = Simulator::new(&bench.program, SimConfig::default().with_verify());
    sim.inject_datapath_fault(fault);
    let err = sim
        .run(u64::MAX)
        .expect_err("the oracle must catch the flip");
    let SimError::Divergence(report) = err else {
        panic!("expected a divergence report, got: {err}");
    };
    assert!(matches!(
        report.kind,
        DivergenceKind::Result | DivergenceKind::StoreValue
    ));
    assert!(!report.recent.is_empty(), "report carries recent commits");
    let text = report.to_string();
    assert!(text.contains("divergence"), "{text}");
    assert!(text.contains("pipeview"), "{text}");
}

#[test]
fn seeded_fault_plan_detection_is_deterministic() {
    let bench = &full_suite(0)[0];
    let run_campaign = || {
        let mut plan = FaultPlan::new(0xabad_cafe);
        let mut kinds = Vec::new();
        for _ in 0..3 {
            let fault = plan.datapath_fault(100);
            let mut sim = Simulator::new(&bench.program, SimConfig::default().with_verify());
            sim.inject_datapath_fault(fault);
            match sim.run(u64::MAX) {
                Err(SimError::Divergence(report)) => {
                    kinds.push((fault, report.kind, report.pc, report.commit_seq))
                }
                other => panic!("fault {fault:?} must diverge, got {other:?}"),
            }
        }
        kinds
    };
    assert_eq!(run_campaign(), run_campaign(), "same seed, same verdicts");
}

#[test]
fn predictor_fault_degrades_gracefully() {
    let bench = &full_suite(0)[0];
    let mut plan = FaultPlan::new(7);
    let mut sim = Simulator::new(&bench.program, SimConfig::default().with_verify());
    assert!(
        sim.inject_predictor_fault(plan.predictor_entropy()),
        "the Table 1 predictor has direction state to corrupt"
    );
    let report = sim
        .run(u64::MAX)
        .expect("micro-architectural corruption cannot fail the run");
    assert_eq!(
        report.out_quads, bench.expected,
        "architected output is untouched by predictor state"
    );
    assert!(sim.oracle_checked().expect("verify on") > 0);
}

#[test]
fn corrupted_checkpoint_blob_is_rejected() {
    let bench = &full_suite(0)[0];
    let mut warm = Simulator::new(&bench.program, SimConfig::default());
    warm.warmup(1_000).expect("warms");
    let blob = warm.checkpoint();

    let mut plan = FaultPlan::new(0xfeed);
    for trial in 0..4 {
        let bit = plan.blob_bit(blob.len());
        let mut corrupt = blob.clone();
        flip_blob_bit(&mut corrupt, bit);
        let mut sim = Simulator::new(&bench.program, SimConfig::default());
        let err = sim
            .restore_checkpoint(&corrupt)
            .expect_err("every flipped bit lands in validated bytes");
        // The machine is untouched and still runs correctly afterwards.
        let report = sim.run(u64::MAX).unwrap_or_else(|e| {
            panic!("trial {trial}: machine unusable after rejected restore ({err}): {e}")
        });
        assert_eq!(
            report.out_quads, bench.expected,
            "trial {trial} (bit {bit})"
        );
    }
}
