//! Cross-cutting invariants of the timing model and its statistics.

#![allow(clippy::field_reassign_with_default)] // explicit Table 1 tweaks read better

use nwo::core::{GatingConfig, PackConfig};
use nwo::sim::obs::RingSink;
use nwo::sim::{SimConfig, SimReport, Simulator};
use nwo::workloads::full_suite;

fn run(bench: &nwo::workloads::Benchmark, config: SimConfig) -> SimReport {
    let mut sim = Simulator::new(&bench.program, config);
    sim.run(u64::MAX).expect("benchmark completes")
}

#[test]
fn pipeline_counters_are_ordered() {
    for bench in full_suite(0) {
        let r = run(&bench, SimConfig::default());
        let s = &r.stats;
        assert!(
            s.fetched >= s.dispatched,
            "{}: fetch feeds dispatch",
            bench.name
        );
        assert!(
            s.dispatched >= s.committed,
            "{}: dispatch feeds commit",
            bench.name
        );
        assert!(
            s.issued >= s.committed,
            "{}: every committed op issued",
            bench.name
        );
        // Fetched = committed + squashed (wrong path) exactly: nothing
        // is ever lost or double-counted.
        assert_eq!(
            s.fetched,
            s.committed + s.squashed,
            "{}: fetched partitions into committed and squashed",
            bench.name
        );
        assert!(
            s.ipc() > 0.0 && s.ipc() <= 4.0,
            "{}: ipc within issue width",
            bench.name
        );
    }
}

#[test]
fn perfect_prediction_is_never_slower_and_never_squashes() {
    for bench in full_suite(0) {
        let real = run(&bench, SimConfig::default());
        let perfect = run(&bench, SimConfig::default().with_perfect_prediction());
        assert_eq!(perfect.stats.squashed, 0, "{}", bench.name);
        assert_eq!(perfect.stats.branch.mispredicts, 0, "{}", bench.name);
        // Wrong-path loads can legitimately *prefetch* useful cache
        // lines (classic wrong-path prefetching), so realistic
        // prediction may narrowly beat perfect on short, cold-cache
        // runs. Allow a 5% margin; beyond that something is wrong.
        assert!(
            perfect.stats.cycles <= real.stats.cycles + real.stats.cycles / 20,
            "{}: perfect prediction lost by more than prefetching can explain ({} vs {})",
            bench.name,
            perfect.stats.cycles,
            real.stats.cycles
        );
    }
}

#[test]
fn clock_gating_is_timing_neutral() {
    for bench in full_suite(0) {
        let base = run(&bench, SimConfig::default());
        let gated = run(
            &bench,
            SimConfig::default().with_gating(GatingConfig::default()),
        );
        assert_eq!(
            base.stats.cycles, gated.stats.cycles,
            "{}: gating must not change timing",
            bench.name
        );
        let power = gated.power();
        assert!(
            power.gated_mw_per_cycle <= power.baseline_mw_per_cycle,
            "{}: gating must not increase power on narrow-rich code",
            bench.name
        );
    }
}

#[test]
fn packing_never_slows_down_without_replay() {
    // Non-replay packing only ever frees issue slots and ALUs: cycle
    // counts can only stay equal or shrink.
    for bench in full_suite(0) {
        let base = run(&bench, SimConfig::default());
        let packed = run(
            &bench,
            SimConfig::default().with_packing(PackConfig::default()),
        );
        assert!(
            packed.stats.cycles <= base.stats.cycles,
            "{}: exact packing cannot lose cycles ({} vs {})",
            bench.name,
            packed.stats.cycles,
            base.stats.cycles
        );
    }
}

#[test]
fn eight_issue_machine_dominates_baseline() {
    for bench in full_suite(0) {
        let base = run(&bench, SimConfig::default());
        let eight = run(&bench, SimConfig::default().with_eight_issue());
        // More issue slots and ALUs: the only second-order effects are
        // wrong-path contention, so allow a tiny regression margin.
        assert!(
            eight.stats.cycles <= base.stats.cycles + base.stats.cycles / 50,
            "{}: 8-issue much slower than 4-issue ({} vs {})",
            bench.name,
            eight.stats.cycles,
            base.stats.cycles
        );
    }
}

#[test]
fn determinism_across_runs() {
    let bench = &full_suite(0)[0];
    let a = run(
        bench,
        SimConfig::default().with_packing(PackConfig::with_replay()),
    );
    let b = run(
        bench,
        SimConfig::default().with_packing(PackConfig::with_replay()),
    );
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.stats.issued, b.stats.issued);
    assert_eq!(a.stats.pack, b.stats.pack);
    assert_eq!(a.out_quads, b.out_quads);
}

#[test]
fn width_stats_are_populated_and_consistent() {
    for bench in full_suite(0).into_iter().take(6) {
        let r = run(&bench, SimConfig::default());
        let s = &r.stats;
        assert!(s.width_committed.total() > 0, "{}", bench.name);
        // Executed includes wrong-path work, so it can only be >= the
        // committed population.
        assert!(
            s.width_executed.total() >= s.width_committed.total(),
            "{}",
            bench.name
        );
        // Cumulative distribution is monotone and ends at 1.
        let mut last = 0.0;
        for bits in 1..=64 {
            let v = s.width_committed.cumulative(bits);
            assert!(v >= last, "{}: cumulative must be monotone", bench.name);
            last = v;
        }
        assert!((last - 1.0).abs() < 1e-12, "{}", bench.name);
    }
}

#[test]
fn pipeline_trace_is_ordered_and_capped() {
    for bench in full_suite(0).into_iter().take(4) {
        let mut sim = Simulator::new(&bench.program, SimConfig::default());
        sim.set_trace_sink(Box::new(RingSink::keep_first(500)));
        let report = sim.run(u64::MAX).expect("completes");
        assert_eq!(report.out_quads, bench.expected, "{}", bench.name);
        let trace = sim.trace();
        assert!(!trace.is_empty() && trace.len() <= 500, "{}", bench.name);
        for t in &trace {
            assert!(t.fetched_at <= t.dispatched_at, "{}: F<=D", bench.name);
            assert!(t.dispatched_at < t.issued_at, "{}: D<I", bench.name);
            assert!(t.issued_at < t.completed_at, "{}: I<X", bench.name);
            assert!(t.completed_at <= t.committed_at, "{}: X<=C", bench.name);
        }
        // Commits are in order.
        for pair in trace.windows(2) {
            assert!(
                pair[0].committed_at <= pair[1].committed_at,
                "{}",
                bench.name
            );
        }
    }
}

#[test]
fn packed_flags_appear_only_under_packing() {
    let bench = full_suite(0)
        .into_iter()
        .find(|b| b.name == "mpeg2-enc")
        .expect("exists");
    let mut base = Simulator::new(&bench.program, SimConfig::default());
    base.set_trace_sink(Box::new(RingSink::keep_first(5_000)));
    base.run(u64::MAX).unwrap();
    assert!(base.trace().iter().all(|t| !t.packed && !t.replayed));
    let mut packed = Simulator::new(
        &bench.program,
        SimConfig::default().with_packing(PackConfig::default()),
    );
    packed.set_trace_sink(Box::new(RingSink::keep_first(5_000)));
    packed.run(u64::MAX).unwrap();
    assert!(
        packed.trace().iter().any(|t| t.packed),
        "mpeg2-enc packs heavily"
    );
}

#[test]
fn stall_slots_conserve_exactly() {
    // Every lost commit slot is charged to exactly one cause, so the
    // breakdown must satisfy
    //   sum(slots) == commit_width * cycles - committed
    // with no tolerance, under every configuration.
    for bench in full_suite(0) {
        for config in [
            SimConfig::default(),
            SimConfig::default().with_perfect_prediction(),
            SimConfig::default().with_packing(PackConfig::with_replay()),
            SimConfig::default().with_eight_issue(),
        ] {
            let width = config.commit_width as u64;
            let r = run(&bench, config);
            let s = &r.stats;
            assert_eq!(
                s.stall.total(),
                width * s.cycles - s.committed,
                "{}: stall slots must account for every lost commit slot",
                bench.name
            );
        }
    }
}

#[test]
fn replay_squashes_are_bounded_by_replay_issues() {
    for bench in full_suite(0) {
        let r = run(
            &bench,
            SimConfig::default().with_packing(PackConfig::with_replay()),
        );
        assert!(
            r.stats.pack.replay_squashed <= r.stats.pack.replay_issued,
            "{}",
            bench.name
        );
    }
}

#[test]
fn zero_detect_on_loads_only_helps() {
    for bench in full_suite(0).into_iter().take(6) {
        let with = run(
            &bench,
            SimConfig::default().with_gating(GatingConfig::default()),
        );
        let mut cfg = SimConfig::default().with_gating(GatingConfig::default());
        cfg.zero_detect_loads = false;
        let without = run(&bench, cfg);
        assert!(
            with.power().reduction_percent >= without.power().reduction_percent - 1e-9,
            "{}: losing load zero-detect cannot increase savings",
            bench.name
        );
    }
}
