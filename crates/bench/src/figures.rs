//! One function per table/figure of the paper's evaluation, plus the
//! ablations called out in DESIGN.md. Each *builds* a paper-style
//! [`Table`]; [`run_experiment`] emits it (and, with `NWO_CSV=<dir>`,
//! exports the data as CSV).
//!
//! Every experiment submits all of its simulations up front to the
//! [`crate::runner`] worker pool and collects the reports in
//! submission order, so runs parallelize across benchmarks and
//! configurations while the emitted tables stay byte-identical to a
//! serial (`NWO_JOBS=1`) run. Repeated `(benchmark, config)` pairs —
//! the baseline machine appears in most experiments — are served from
//! the runner's memo cache and simulate only once per harness
//! invocation.

use crate::runner::reports;
use crate::table::{f1, pct, spct, Table};
use crate::{
    base_config, by_suite, gating_config, mean, mean_speedup_percent, packing_config,
    replay_config, suite,
};
use nwo_core::{GatingConfig, PackConfig};
use nwo_power::{device_power, Device, MUX_MW, ZERO_DETECT_MW};
use nwo_sim::obs::StallCause;
use nwo_sim::{SimConfig, SimReport, INT_MULDIV};
use nwo_workloads::{Benchmark, Suite};

/// An experiment: builds (but does not emit) its table.
pub type ExperimentFn = fn() -> Table;

/// Name → builder for every experiment, in presentation order. This
/// single table drives listing, validation and dispatch, so the name
/// list and the dispatch logic cannot drift apart.
pub const EXPERIMENTS: [(&str, ExperimentFn); 21] = [
    ("table1", table1),
    ("table4", table4),
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("loadstat", loadstat),
    ("fig10", fig10_narrow),
    ("fig10wide", fig10_wide),
    ("fig11", fig11),
    ("stalls", stalls),
    ("ablation-gate", ablation_gate),
    ("ablation-degree", ablation_degree),
    ("ablation-neg", ablation_neg),
    ("ablation-zdl", ablation_zdl),
    ("ablation-bpred", ablation_bpred),
    ("ablation-window", ablation_window),
    ("ext-cache", ext_cache),
    ("ablation-spechist", ablation_spechist),
];

/// All experiment names, in presentation order.
pub fn experiment_names() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|(name, _)| *name).collect()
}

/// Looks an experiment up by name without running it.
pub fn find_experiment(name: &str) -> Option<ExperimentFn> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| *f)
}

/// Builds one experiment's table by name without emitting it.
pub fn build_experiment(name: &str) -> Option<Table> {
    find_experiment(name).map(|f| f())
}

/// Dispatches one experiment by name and emits its table. Returns
/// false for unknown names.
pub fn run_experiment(name: &str) -> bool {
    match build_experiment(name) {
        Some(table) => {
            table.emit();
            true
        }
        None => false,
    }
}

/// Table 1: the baseline configuration (verbatim from `SimConfig`).
pub fn table1() -> Table {
    let c = base_config();
    let h = c.hierarchy;
    let l2 = h.l2.expect("baseline has an L2");
    let mut t = Table::new(
        "Table 1 - Baseline configuration of simulated processor",
        "table1",
        &["parameter", "value"],
    );
    let mut kv = |k: &str, v: String| t.row(vec![k.to_string(), v]);
    kv("RUU size", format!("{} instructions", c.ruu_size));
    kv("LSQ size", c.lsq_size.to_string());
    kv("Fetch queue size", format!("{} instructions", c.ifq_size));
    kv(
        "Fetch width",
        format!("{} instructions/cycle", c.fetch_width),
    );
    kv(
        "Decode width",
        format!("{} instructions/cycle", c.decode_width),
    );
    kv(
        "Issue width",
        format!("{} instructions/cycle (out-of-order)", c.issue_width),
    );
    kv(
        "Commit width",
        format!("{} instructions/cycle (in-order)", c.commit_width),
    );
    kv(
        "Functional units",
        format!(
            "{} integer ALUs, {} integer multiply/divide",
            c.int_alus, INT_MULDIV
        ),
    );
    kv(
        "Branch predictor",
        "combining: 4K 2-bit selector; 1K 3-bit local (10-bit hist); 4K 2-bit global (12-bit hist)"
            .to_string(),
    );
    kv("BTB", "2048-entry, 2-way".to_string());
    kv("Return-address stack", "32-entry".to_string());
    kv(
        "Mispredict penalty",
        format!("{} cycles", c.mispredict_penalty),
    );
    kv(
        "L1 data-cache",
        format!(
            "{}K, {}-way (LRU), {}B blocks, {}-cycle latency",
            h.l1d.size_bytes / 1024,
            h.l1d.assoc,
            h.l1d.block_bytes,
            h.l1d.hit_latency
        ),
    );
    kv(
        "L1 instruction-cache",
        format!(
            "{}K, {}-way (LRU), {}B blocks, {}-cycle latency",
            h.l1i.size_bytes / 1024,
            h.l1i.assoc,
            h.l1i.block_bytes,
            h.l1i.hit_latency
        ),
    );
    kv(
        "L2",
        format!(
            "unified, {}M, {}-way (LRU), {}B blocks, {}-cycle latency",
            l2.size_bytes / 1024 / 1024,
            l2.assoc,
            l2.block_bytes,
            l2.hit_latency
        ),
    );
    kv("Memory", format!("{} cycles", h.memory_latency));
    kv(
        "TLBs",
        format!(
            "{} entry, fully associative, {}-cycle miss latency",
            h.itlb.entries, h.itlb.miss_latency
        ),
    );
    t
}

/// Table 4: functional-unit power at 3.3V / 500MHz (mW).
pub fn table4() -> Table {
    let mut t = Table::new(
        "Table 4 - Estimated power consumption of functional units (mW)",
        "table4",
        &["device", "32-bit", "48-bit", "64-bit"],
    );
    for device in Device::ALL {
        t.row(vec![
            device.name().to_string(),
            f1(device_power(device, 32)),
            f1(device_power(device, 48)),
            f1(device_power(device, 64)),
        ]);
    }
    t.row(vec![
        "Zero-Detect".into(),
        String::new(),
        f1(ZERO_DETECT_MW),
        String::new(),
    ]);
    t.row(vec![
        "Additional Muxes".into(),
        String::new(),
        f1(MUX_MW),
        String::new(),
    ]);
    t
}

/// Figure 1: cumulative % of operations with both operands <= N bits.
pub fn fig1() -> Table {
    let benches = suite();
    let spec: Vec<&Benchmark> = benches
        .iter()
        .filter(|b| b.suite == Suite::SpecInt)
        .collect();
    let reports = reports(spec.iter().map(|b| (*b, base_config())));
    let mut columns: Vec<&str> = vec!["bits"];
    let names: Vec<String> = spec.iter().map(|b| b.name.to_string()).collect();
    columns.extend(names.iter().map(String::as_str));
    columns.push("average");
    let mut t = Table::new(
        "Figure 1 - Cumulative operand bitwidths (SPECint95-like suite)",
        "fig1",
        &columns,
    );
    for bits in [4u32, 8, 12, 16, 20, 24, 28, 32, 33, 36, 40, 48, 56, 64] {
        let mut row = vec![bits.to_string()];
        let vals: Vec<f64> = reports
            .iter()
            .map(|r| r.stats.width_committed.cumulative(bits) * 100.0)
            .collect();
        row.extend(vals.iter().map(|&v| pct(v)));
        row.push(pct(mean(&vals)));
        t.row(row);
    }
    t.note("(paper: ~50% of operations at 16 bits; a jump at 33 bits from");
    t.note(" heap/stack address calculations)");
    t
}

/// Figure 2: % of static instructions whose operand precision crosses
/// the 16-bit line during a run, perfect vs realistic prediction.
pub fn fig2() -> Table {
    let benches = suite();
    let spec: Vec<&Benchmark> = benches
        .iter()
        .filter(|b| b.suite == Suite::SpecInt)
        .collect();
    let reports = reports(spec.iter().flat_map(|b| {
        [
            (*b, base_config().with_perfect_prediction()),
            (*b, base_config()),
        ]
    }));
    let mut t = Table::new(
        "Figure 2 - Operand-precision fluctuation across a run (% of static instructions)",
        "fig2",
        &["benchmark", "perfect", "realistic"],
    );
    let mut perfect_all = Vec::new();
    let mut real_all = Vec::new();
    for (b, pair) in spec.iter().zip(reports.chunks(2)) {
        let p = pair[0].stats.fluctuation.fluctuating_fraction() * 100.0;
        let r = pair[1].stats.fluctuation.fluctuating_fraction() * 100.0;
        perfect_all.push(p);
        real_all.push(r);
        t.row(vec![b.name.to_string(), pct(p), pct(r)]);
    }
    t.row(vec![
        "average".into(),
        pct(mean(&perfect_all)),
        pct(mean(&real_all)),
    ]);
    t.note("(paper: realistic prediction sees more fluctuation because");
    t.note(" wrong-path executions visit uncommon operand values)");
    t
}

fn class_fraction_table(title: &str, csv: &str, threshold33: bool) -> Table {
    let benches = suite();
    let reports = reports(benches.iter().map(|b| (b, base_config())));
    let mut t = Table::new(
        title,
        csv,
        &[
            "benchmark",
            "arith",
            "logic",
            "shift",
            "mult",
            "memory",
            "branch",
            "total",
        ],
    );
    let mut totals = Vec::new();
    for (b, r) in benches.iter().zip(&reports) {
        let bd = &r.stats.breakdown;
        let frac = |slot: usize| {
            if threshold33 {
                bd.narrow33_fraction(slot) * 100.0
            } else {
                bd.narrow16_fraction(slot) * 100.0
            }
        };
        let total = if threshold33 {
            bd.narrow33_total_fraction() * 100.0
        } else {
            bd.narrow16_total_fraction() * 100.0
        };
        totals.push(total);
        t.row(vec![
            b.name.to_string(),
            pct(frac(0)),
            pct(frac(1)),
            pct(frac(2)),
            pct(frac(3)),
            pct(frac(4)),
            pct(frac(5)),
            pct(total),
        ]);
    }
    let (spec, media) = by_suite(&benches, &totals);
    t.note(format!(
        "SPEC avg {}   media avg {}",
        pct(mean(&spec)),
        pct(mean(&media))
    ));
    t
}

/// Figure 4: % of operations with both operands <= 16 bits, by class.
pub fn fig4() -> Table {
    class_fraction_table(
        "Figure 4 - Operations with both operands 16 bits or less (% of all instructions)",
        "fig4",
        false,
    )
}

/// Figure 5: % of operations with both operands <= 33 bits, by class.
pub fn fig5() -> Table {
    class_fraction_table(
        "Figure 5 - Operations with both operands 33 bits or less (% of all instructions)",
        "fig5",
        true,
    )
}

/// Figure 6: net power saved per cycle by clock gating at 16 and 33 bits.
pub fn fig6() -> Table {
    let benches = suite();
    let reports = reports(benches.iter().map(|b| (b, gating_config())));
    let mut t = Table::new(
        "Figure 6 - Net power saved by clock gating at 16 and 33 bits (mW per cycle)",
        "fig6",
        &[
            "benchmark",
            "saved@16",
            "saved@33",
            "extra used",
            "net saved",
        ],
    );
    let mut nets = Vec::new();
    for (b, r) in benches.iter().zip(&reports) {
        let p = r.power();
        nets.push(p.net_saved_mw_per_cycle);
        t.row(vec![
            b.name.to_string(),
            f1(p.saved16_mw_per_cycle),
            f1(p.saved33_mw_per_cycle),
            f1(p.extra_mw_per_cycle),
            f1(p.net_saved_mw_per_cycle),
        ]);
    }
    let (spec, media) = by_suite(&benches, &nets);
    t.note(format!(
        "SPEC avg {}   media avg {}",
        f1(mean(&spec)),
        f1(mean(&media))
    ));
    t.note("(paper: zero-detect power is small and nearly constant; it never");
    t.note(" exceeds the savings)");
    t
}

/// Figure 7: integer-unit power per cycle, baseline vs gated.
pub fn fig7() -> Table {
    let benches = suite();
    let reports = reports(benches.iter().map(|b| (b, gating_config())));
    let mut t = Table::new(
        "Figure 7 - Power usage of integer unit (mW per cycle)",
        "fig7",
        &["benchmark", "baseline", "gated", "reduction"],
    );
    let mut reductions = Vec::new();
    for (b, r) in benches.iter().zip(&reports) {
        let p = r.power();
        reductions.push(p.reduction_percent);
        t.row(vec![
            b.name.to_string(),
            f1(p.baseline_mw_per_cycle),
            f1(p.gated_mw_per_cycle),
            pct(p.reduction_percent),
        ]);
    }
    let (spec, media) = by_suite(&benches, &reductions);
    t.note(format!("SPEC avg {}   (paper: 54.1%)", pct(mean(&spec))));
    t.note(format!("media avg {}  (paper: 57.9%)", pct(mean(&media))));
    t
}

/// Section 4.2: gated operations fed directly by a load — the cost of
/// omitting zero-detect on cache fills.
pub fn loadstat() -> Table {
    let benches = suite();
    let reports = reports(benches.iter().map(|b| (b, gating_config())));
    let mut t = Table::new(
        "Section 4.2 - Power-saving instructions with an operand straight from a load",
        "loadstat",
        &["benchmark", "load-fed"],
    );
    let mut fracs = Vec::new();
    for (b, r) in benches.iter().zip(&reports) {
        let f = r.stats.load_operand_fraction() * 100.0;
        fracs.push(f);
        t.row(vec![b.name.to_string(), pct(f)]);
    }
    let (spec, media) = by_suite(&benches, &fracs);
    t.note(format!("SPEC avg {}   (paper: 13.1%)", pct(mean(&spec))));
    t.note(format!("media avg {}  (paper:  1.5%)", pct(mean(&media))));
    t
}

fn fig10_narrow() -> Table {
    fig10(false)
}

fn fig10_wide() -> Table {
    fig10(true)
}

/// Figure 10 (and the Section 5.4 8-wide variant): speedup from
/// operation packing under perfect and realistic prediction.
pub fn fig10(wide: bool) -> Table {
    let (title, csv) = if wide {
        (
            "Section 5.4 - Packing speedup with 8-wide decode (%)",
            "fig10wide",
        )
    } else {
        (
            "Figure 10 - Speedup due to operation packing (4-wide decode, %)",
            "fig10",
        )
    };
    let benches = suite();
    let adapt = |c: SimConfig| if wide { c.with_wide_decode() } else { c };
    // Six machines per benchmark, collected as one chunk.
    let reports = reports(benches.iter().flat_map(|b| {
        [
            (b, adapt(base_config().with_perfect_prediction())),
            (b, adapt(base_config())),
            (b, adapt(packing_config().with_perfect_prediction())),
            (b, adapt(replay_config().with_perfect_prediction())),
            (b, adapt(packing_config())),
            (b, adapt(replay_config())),
        ]
    }));
    let mut t = Table::new(
        title,
        csv,
        &["benchmark", "perf", "perf+rep", "real", "real+rep"],
    );
    let mut rows: Vec<[f64; 4]> = Vec::new();
    let mut pairs_real = Vec::new();
    let mut pairs_perf = Vec::new();
    for (b, chunk) in benches.iter().zip(reports.chunks(6)) {
        let [base_perf, base_real, pack_perf, rep_perf, pack_real, rep_real] = chunk else {
            unreachable!("six jobs per benchmark");
        };
        let sp = |base: &SimReport, opt: &SimReport| {
            (base.stats.cycles as f64 / opt.stats.cycles as f64 - 1.0) * 100.0
        };
        let row = [
            sp(base_perf, pack_perf),
            sp(base_perf, rep_perf),
            sp(base_real, pack_real),
            sp(base_real, rep_real),
        ];
        pairs_perf.push((base_perf.stats.cycles, pack_perf.stats.cycles));
        pairs_real.push((base_real.stats.cycles, pack_real.stats.cycles));
        t.row(vec![
            b.name.to_string(),
            spct(row[0]),
            spct(row[1]),
            spct(row[2]),
            spct(row[3]),
        ]);
        rows.push(row);
    }
    for (label, idx) in [("perfect", 0usize), ("realistic", 2usize)] {
        let col: Vec<f64> = rows.iter().map(|r| r[idx]).collect();
        let (spec, media) = by_suite(&benches, &col);
        t.note(format!(
            "{label} avg: SPEC {}  media {}",
            spct(mean(&spec)),
            spct(mean(&media))
        ));
    }
    t.note(format!(
        "(geomean speedup, realistic: {}; perfect: {})",
        spct(mean_speedup_percent(&pairs_real)),
        spct(mean_speedup_percent(&pairs_perf))
    ));
    if wide {
        t.note("(paper, 8-wide: SPEC 9.9%/6.2% and media 10.3%/10.4% for perfect/realistic)");
    } else {
        t.note("(paper, 4-wide: SPEC 7.1%/4.3% and media 7.6%/8.0% for perfect/realistic)");
    }
    t
}

/// The dominant stall cause of a run, with its share of lost slots.
fn top_stall(r: &SimReport) -> String {
    let stall = &r.stats.stall;
    let (cause, slots) = stall
        .iter()
        .max_by_key(|&(_, n)| n)
        .expect("StallCause::ALL is non-empty");
    if slots == 0 {
        "-".to_string()
    } else {
        format!("{} {:.0}%", cause.name(), stall.fraction(cause) * 100.0)
    }
}

/// Figure 11: IPC of baseline, packed, and 8-issue/8-ALU machines,
/// with the dominant stall cause of each machine alongside (packing
/// pays off exactly where the baseline is FU- or dependence-bound).
pub fn fig11() -> Table {
    let benches = suite();
    let reports = reports(benches.iter().flat_map(|b| {
        [
            (b, base_config()),
            (b, packing_config()),
            (b, base_config().with_eight_issue()),
        ]
    }));
    let mut t = Table::new(
        "Figure 11 - IPC: baseline vs packing vs 8-issue/8-ALU (combining predictor)",
        "fig11",
        &[
            "benchmark",
            "baseline",
            "packed",
            "8-issue",
            "packing capture",
            "base stall",
            "packed stall",
            "8i stall",
        ],
    );
    for (b, chunk) in benches.iter().zip(reports.chunks(3)) {
        let [base, pack, eight] = chunk else {
            unreachable!("three jobs per benchmark");
        };
        // How much of the 8-issue machine's gain the packed 4-issue
        // machine captures.
        let gain_eight = eight.ipc() - base.ipc();
        let gain_pack = pack.ipc() - base.ipc();
        let capture = if gain_eight > 1e-9 {
            format!(
                "{:.0}% of 8-issue gain",
                (gain_pack / gain_eight * 100.0).min(999.0)
            )
        } else {
            "8-issue gains nothing".to_string()
        };
        t.row(vec![
            b.name.to_string(),
            format!("{:.3}", base.ipc()),
            format!("{:.3}", pack.ipc()),
            format!("{:.3}", eight.ipc()),
            capture,
            top_stall(base),
            top_stall(pack),
            top_stall(eight),
        ]);
    }
    t.note("(paper: ijpeg, vortex and the media benchmarks come very close");
    t.note(" to the 8-issue/8-ALU machine's IPC; stall columns show each");
    t.note(" machine's dominant lost-slot cause and its share)");
    t
}

/// Stall attribution: where every lost commit slot of the baseline
/// machine goes, per benchmark. Each cycle that retires fewer than
/// `commit_width` instructions charges the missing slots to exactly one
/// cause, so the cause columns sum to 100% per row and the absolute
/// counts satisfy `sum = commit_width * cycles - committed` (see
/// docs/observability.md for the taxonomy).
pub fn stalls() -> Table {
    let benches = suite();
    let reports = reports(benches.iter().map(|b| (b, base_config())));
    let mut columns = vec!["benchmark".to_string(), "lost/cycle".to_string()];
    columns.extend(StallCause::ALL.iter().map(|c| c.name().to_string()));
    let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Stall attribution - lost commit slots by cause (baseline machine)",
        "stalls",
        &cols,
    );
    for (b, r) in benches.iter().zip(&reports) {
        let mut row = vec![
            b.name.to_string(),
            format!(
                "{:.2}",
                r.stats.stall.total() as f64 / r.stats.cycles.max(1) as f64
            ),
        ];
        row.extend(
            StallCause::ALL
                .iter()
                .map(|&c| pct(r.stats.stall.fraction(c) * 100.0)),
        );
        t.row(row);
    }
    t.note(format!(
        "(slots lost per cycle out of a commit width of {}; cause columns",
        base_config().commit_width
    ));
    t.note(" are shares of lost slots and sum to 100% per row)");
    t
}

/// Ablation: gate at 16 only vs 16+33, with and without ones-detect.
pub fn ablation_gate() -> Table {
    let benches = suite();
    let variants: [(&str, GatingConfig); 4] = [
        ("16+33+ones", GatingConfig::default()),
        (
            "16 only",
            GatingConfig {
                gate33: false,
                ..GatingConfig::default()
            },
        ),
        (
            "33 only",
            GatingConfig {
                gate16: false,
                ..GatingConfig::default()
            },
        ),
        (
            "no ones-det",
            GatingConfig {
                ones_detect: false,
                ..GatingConfig::default()
            },
        ),
    ];
    let reports = reports(benches.iter().flat_map(|b| {
        variants
            .iter()
            .map(move |(_, g)| (b, SimConfig::default().with_gating(*g)))
    }));
    let mut columns = vec!["benchmark"];
    columns.extend(variants.iter().map(|(n, _)| *n));
    let mut t = Table::new(
        "Ablation - gating variants (integer-unit power reduction, %)",
        "ablation-gate",
        &columns,
    );
    for (b, chunk) in benches.iter().zip(reports.chunks(variants.len())) {
        let mut row = vec![b.name.to_string()];
        for r in chunk {
            row.push(pct(r.power().reduction_percent));
        }
        t.row(row);
    }
    t
}

/// Ablation: packing degree 2 vs 4.
pub fn ablation_degree() -> Table {
    let benches = suite();
    let reports = reports(benches.iter().flat_map(|b| {
        [
            (b, base_config()),
            (
                b,
                SimConfig::default().with_packing(PackConfig {
                    degree: 2,
                    ..PackConfig::default()
                }),
            ),
            (b, packing_config()),
        ]
    }));
    let mut t = Table::new(
        "Ablation - packing degree (speedup over baseline, %)",
        "ablation-degree",
        &["benchmark", "degree 2", "degree 4"],
    );
    for (b, chunk) in benches.iter().zip(reports.chunks(3)) {
        let [base, d2, d4] = chunk else {
            unreachable!("three jobs per benchmark");
        };
        let sp = |r: &SimReport| (base.stats.cycles as f64 / r.stats.cycles as f64 - 1.0) * 100.0;
        t.row(vec![b.name.to_string(), spct(sp(d2)), spct(sp(d4))]);
    }
    t
}

/// Ablation: packing with and without negative (ones-detected) operands.
pub fn ablation_neg() -> Table {
    let benches = suite();
    let reports = reports(benches.iter().flat_map(|b| {
        [
            (b, packing_config()),
            (
                b,
                SimConfig::default().with_packing(PackConfig {
                    allow_negative: false,
                    ..PackConfig::default()
                }),
            ),
        ]
    }));
    let mut t = Table::new(
        "Ablation - packing negative operands (packed ops per 1000 issued)",
        "ablation-neg",
        &["benchmark", "with neg", "without neg"],
    );
    for (b, chunk) in benches.iter().zip(reports.chunks(2)) {
        let rate =
            |r: &SimReport| r.stats.pack.packed_ops as f64 / r.stats.issued.max(1) as f64 * 1000.0;
        t.row(vec![
            b.name.to_string(),
            f1(rate(&chunk[0])),
            f1(rate(&chunk[1])),
        ]);
    }
    t
}

/// Ablation: zero-detect on loads on/off (Section 4.2).
pub fn ablation_zdl() -> Table {
    let benches = suite();
    let without_zdl = || {
        let mut cfg = gating_config();
        cfg.zero_detect_loads = false;
        cfg
    };
    let reports = reports(
        benches
            .iter()
            .flat_map(|b| [(b, gating_config()), (b, without_zdl())]),
    );
    let mut t = Table::new(
        "Ablation - zero-detect on loads (power reduction, %)",
        "ablation-zdl",
        &["benchmark", "with", "without"],
    );
    for (b, chunk) in benches.iter().zip(reports.chunks(2)) {
        t.row(vec![
            b.name.to_string(),
            pct(chunk[0].power().reduction_percent),
            pct(chunk[1].power().reduction_percent),
        ]);
    }
    t
}

/// Ablation: branch predictors (baseline IPC).
pub fn ablation_bpred() -> Table {
    use nwo_bpred::{DirKind, PredictorConfig};
    use nwo_sim::PredictorChoice;
    let benches = suite();
    let kinds: [(&str, Option<DirKind>); 5] = [
        ("nottaken", Some(DirKind::NotTaken)),
        ("bimodal", Some(DirKind::Bimodal { entries: 2048 })),
        (
            "gshare",
            Some(DirKind::GShare {
                entries: 4096,
                history_bits: 12,
            }),
        ),
        ("combining", Some(DirKind::Combining)),
        ("perfect", None),
    ];
    let shape = |kind: &Option<DirKind>| {
        let mut cfg = base_config();
        cfg.predictor = match kind {
            None => PredictorChoice::Perfect,
            Some(k) => PredictorChoice::Real(PredictorConfig {
                dir: *k,
                ..PredictorConfig::default()
            }),
        };
        cfg
    };
    let reports = reports(
        benches
            .iter()
            .flat_map(|b| kinds.iter().map(move |(_, kind)| (b, shape(kind)))),
    );
    let mut columns = vec!["benchmark"];
    columns.extend(kinds.iter().map(|(n, _)| *n));
    let mut t = Table::new(
        "Ablation - branch predictors (baseline IPC)",
        "ablation-bpred",
        &columns,
    );
    for (b, chunk) in benches.iter().zip(reports.chunks(kinds.len())) {
        let mut row = vec![b.name.to_string()];
        for r in chunk {
            row.push(format!("{:.3}", r.ipc()));
        }
        t.row(row);
    }
    t
}

/// Ablation: instruction-window (RUU) size vs packing benefit — the
/// paper argues packing opportunity grows as "the RUU is filled with
/// more useful instructions". Speedup of packing over the same-sized
/// baseline at each window size, 8-wide decode (where issue pressure
/// exists).
pub fn ablation_window() -> Table {
    let benches = suite();
    let sizes: [(usize, usize); 4] = [(16, 8), (32, 16), (80, 40), (160, 80)];
    let shape = |mut c: SimConfig, ruu: usize, lsq: usize| {
        c.ruu_size = ruu;
        c.lsq_size = lsq;
        c.with_wide_decode()
    };
    let selected: Vec<&Benchmark> = benches
        .iter()
        .filter(|b| {
            [
                "go",
                "ijpeg",
                "gsm-enc",
                "g721-dec",
                "mpeg2-enc",
                "mpeg2-dec",
            ]
            .contains(&b.name)
        })
        .collect();
    let reports = reports(selected.iter().flat_map(|b| {
        sizes.iter().flat_map(move |&(ruu, lsq)| {
            [
                (*b, shape(base_config(), ruu, lsq)),
                (*b, shape(packing_config(), ruu, lsq)),
            ]
        })
    }));
    let mut columns = vec!["benchmark".to_string()];
    columns.extend(sizes.iter().map(|(r, _)| format!("RUU {r}")));
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Ablation - window size vs packing speedup (8-wide decode, %)",
        "ablation-window",
        &column_refs,
    );
    for (b, chunk) in selected.iter().zip(reports.chunks(2 * sizes.len())) {
        let mut row = vec![b.name.to_string()];
        for pair in chunk.chunks(2) {
            let (base, pack) = (&pair[0], &pair[1]);
            let speedup = (base.stats.cycles as f64 / pack.stats.cycles as f64 - 1.0) * 100.0;
            row.push(spct(speedup));
        }
        t.row(row);
    }
    t.note("(the paper: a fuller RUU gives more opportunities for packing)");
    t
}

/// Extension (the paper's Section 6 future work): narrow-width power
/// savings in the data cache and result bus. Store values with known
/// narrow tags gate the array write and bus; load values gate the
/// result bus after the fill-path zero-detect.
pub fn ext_cache() -> Table {
    let benches = suite();
    let reports = reports(benches.iter().map(|b| (b, gating_config())));
    let mut t = Table::new(
        "Extension (Section 6) - narrow-width savings in the memory system",
        "ext-cache",
        &[
            "benchmark",
            "narrow accesses",
            "redundant bytes",
            "baseline mW",
            "gated mW",
            "reduction",
        ],
    );
    let mut reductions = Vec::new();
    for (b, r) in benches.iter().zip(&reports) {
        let m = r.mem_ext();
        reductions.push(m.reduction_percent);
        t.row(vec![
            b.name.to_string(),
            pct(m.narrow_access_fraction * 100.0),
            pct(m.redundant_byte_fraction * 100.0),
            f1(m.baseline_mw_per_cycle),
            f1(m.gated_mw_per_cycle),
            pct(m.reduction_percent),
        ]);
    }
    let (spec, media) = by_suite(&benches, &reductions);
    t.note(format!(
        "SPEC avg {}   media avg {}",
        pct(mean(&spec)),
        pct(mean(&media))
    ));
    t.note("(extension model; constants documented in nwo-power::memext,");
    t.note(" not taken from the paper)");
    t
}

/// Ablation: commit-time vs speculative history updating in the
/// combining predictor (accuracy and IPC).
pub fn ablation_spechist() -> Table {
    use nwo_bpred::PredictorConfig;
    use nwo_sim::PredictorChoice;
    let benches = suite();
    let shape = |speculative: bool| {
        let mut cfg = base_config();
        cfg.predictor = PredictorChoice::Real(PredictorConfig {
            speculative_history: speculative,
            ..PredictorConfig::default()
        });
        cfg
    };
    let reports = reports(
        benches
            .iter()
            .flat_map(|b| [(b, shape(false)), (b, shape(true))]),
    );
    let mut t = Table::new(
        "Ablation - speculative branch history (combining predictor)",
        "ablation-spechist",
        &[
            "benchmark",
            "acc commit",
            "acc spec",
            "ipc commit",
            "ipc spec",
        ],
    );
    for (b, chunk) in benches.iter().zip(reports.chunks(2)) {
        let (commit, spec) = (&chunk[0], &chunk[1]);
        t.row(vec![
            b.name.to_string(),
            pct(commit.stats.branch.accuracy() * 100.0),
            pct(spec.stats.branch.accuracy() * 100.0),
            format!("{:.3}", commit.ipc()),
            format!("{:.3}", spec.ipc()),
        ]);
    }
    t.note("(speculative history keeps the global history fresh across the");
    t.note(" many in-flight branches of an 80-entry window)");
    t
}
