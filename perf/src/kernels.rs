//! The `kernels` workload: every kernel through four engines on one
//! thread, with no runner, memo or cache in the way — the simulator's
//! raw throughput, where the `isa`, `sim`, `core` and `verify` layers
//! do the work.

use crate::{build_kernels, host, perf_scale, Best, Kernel, Metric, Round, RunOptions, Workload};
use nwo_sim::obs::span;
use nwo_sim::{SimConfig, Simulator};
use nwo_workloads::{Rng, BENCHMARK_NAMES};
use std::time::Instant;

/// The four engines a kernel runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// The functional `Emulator`.
    Emu,
    /// The Table 1 baseline machine.
    Base,
    /// Replay operation packing (power bookkeeping stays on).
    Pack,
    /// The baseline with the lockstep oracle checking every commit.
    Oracle,
}

const ENGINES: [Engine; 4] = [Engine::Emu, Engine::Base, Engine::Pack, Engine::Oracle];

/// Kernels a `--quick` run uses.
const QUICK_KERNELS: [&str; 2] = ["ijpeg", "g721-enc"];

/// The set-up `kernels` workload: the kernels, and the seeded order the
/// pass visits them and their engines in.
pub struct Kernels {
    kernels: Vec<Kernel>,
    order: Vec<(usize, [Engine; 4])>,
}

/// Shuffles `items` in place with `rng` (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

impl Kernels {
    /// Builds the kernels and draws the visiting order from the seed.
    pub fn setup(opts: &RunOptions) -> Kernels {
        let names: &[&str] = if opts.quick {
            &QUICK_KERNELS
        } else {
            &BENCHMARK_NAMES
        };
        let kernels = build_kernels(names, perf_scale);
        let mut rng = Rng::new(opts.seed);
        let mut order: Vec<(usize, [Engine; 4])> = (0..kernels.len())
            .map(|k| {
                let mut engines = ENGINES;
                shuffle(&mut engines, &mut rng);
                (k, engines)
            })
            .collect();
        shuffle(&mut order, &mut rng);
        Kernels { kernels, order }
    }
}

/// What one engine run produced: the values the round's digest covers.
struct Outcome {
    committed: u64,
    cycles: u64,
    /// Packed ops, replay squashes, L1D misses, mispredicts, output digest.
    detail: [u64; 5],
}

/// Runs `kernel` through `engine`, checking its output against the
/// reference. `Err` describes a divergence or a wrong output.
fn run_engine(kernel: &Kernel, engine: Engine) -> Result<Outcome, String> {
    let bench = &kernel.bench;
    let out_digest = |quads: &[u64]| {
        crate::digest(
            &quads
                .iter()
                .flat_map(|q| q.to_le_bytes())
                .collect::<Vec<_>>(),
        )
    };
    if engine == Engine::Emu {
        let _span = span::span("isa");
        let mut emu = nwo_isa::Emulator::new(&bench.program);
        emu.run(u64::MAX).map_err(|e| e.to_string())?;
        if emu.outq() != bench.expected.as_slice() {
            return Err("emulator output differs from the reference".into());
        }
        return Ok(Outcome {
            committed: emu.icount(),
            cycles: 0,
            detail: [0, 0, 0, 0, out_digest(emu.outq())],
        });
    }
    let config = match engine {
        Engine::Pack => nwo_bench::replay_config(),
        Engine::Oracle => SimConfig::default().with_verify(),
        _ => nwo_bench::base_config(),
    };
    let _span = span::span("sim");
    let mut sim = Simulator::new(&bench.program, config);
    let report = sim.run(u64::MAX).map_err(|e| e.to_string())?;
    if report.out_quads != bench.expected {
        return Err("output differs from the reference".into());
    }
    if report.stats.committed != kernel.insts {
        return Err(format!(
            "committed {} instructions, the emulator executes {}",
            report.stats.committed, kernel.insts
        ));
    }
    if engine == Engine::Oracle && sim.oracle_checked() != Some(report.stats.committed) {
        return Err("the oracle did not check every commit".into());
    }
    Ok(Outcome {
        committed: report.stats.committed,
        cycles: report.stats.cycles,
        detail: [
            report.stats.pack.packed_ops,
            report.stats.pack.replay_squashed,
            report.hierarchy.l1d.misses,
            report.stats.branch.mispredicts,
            out_digest(&report.out_quads),
        ],
    })
}

impl Kernels {
    /// `(kernel, engine)` of every part of a pass, in the order the pass
    /// runs them.
    fn parts(&self) -> impl Iterator<Item = (usize, Engine)> + '_ {
        self.order
            .iter()
            .flat_map(|(k, engines)| engines.iter().map(move |&e| (*k, e)))
    }
}

impl Workload for Kernels {
    /// One pass: every kernel through every engine.
    fn round(&mut self, _traced: bool) -> Round {
        let start = Instant::now();
        let mut round = Round {
            drivers: 1,
            ..Round::default()
        };
        let mut digests: Vec<(usize, usize, Outcome)> = Vec::new();
        for (k, engine) in self.parts() {
            let slot = ENGINES.iter().position(|&e| e == engine).expect("listed");
            let wall = Instant::now();
            let cpu = host::thread_cpu();
            let outcome = run_engine(&self.kernels[k], engine);
            let on_cpu = host::thread_cpu().saturating_sub(cpu).as_secs_f64();
            let wall = wall.elapsed().as_secs_f64();
            round.parts.push((wall, on_cpu));
            round.covered_s += wall;
            round.cpu_s += on_cpu;
            round.attempted += 1;
            match outcome {
                Ok(o) => {
                    if engine != Engine::Emu {
                        round.committed += o.committed;
                        round.cycles += o.cycles;
                    }
                    digests.push((k, slot, o));
                }
                Err(e) => {
                    eprintln!(
                        "nwo-perf: {} on {engine:?}: {e}",
                        self.kernels[k].bench.name
                    );
                    round.failed += 1;
                }
            }
        }
        round.wall_s = start.elapsed().as_secs_f64();
        // The digest covers the outputs in a canonical order, so every
        // seed of the same program reads the same digest.
        digests.sort_by_key(|(k, slot, _)| (*k, *slot));
        let mut bytes = Vec::new();
        for (_, _, o) in &digests {
            for v in [o.committed, o.cycles].iter().chain(&o.detail) {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        round.digest = crate::digest(&bytes);
        round
    }

    /// The pass with every part at its fastest over `rounds`: a part
    /// takes a tenth of a second or so, so a burst of load from another
    /// process on the machine slows a few parts of one pass rather than
    /// the whole of it, and the minima leave it out.
    fn best(&self, rounds: &[Round]) -> Best {
        let fastest = |i: usize, of: fn(&(f64, f64)) -> f64| {
            rounds
                .iter()
                .filter_map(|r| r.parts.get(i).map(of))
                .fold(f64::INFINITY, f64::min)
        };
        let mut best = Best::default();
        // Per engine: instructions and fastest on-CPU seconds.
        let mut per_engine = [(0u64, 0.0f64); 4];
        for (i, (k, engine)) in self.parts().enumerate() {
            let (wall, cpu) = (fastest(i, |p| p.0), fastest(i, |p| p.1));
            best.wall_s += wall;
            best.cpu_s += cpu;
            let slot = ENGINES.iter().position(|&e| e == engine).expect("listed");
            per_engine[slot].0 += self.kernels[k].insts;
            per_engine[slot].1 += cpu;
        }
        let mips = |(insts, secs): (u64, f64)| insts as f64 / secs / 1e6;
        best.sim_mips = mips(per_engine[1]);
        best.extra = vec![
            Metric::new("emu_mips", "Minst/s", mips(per_engine[0])),
            Metric::new("pack_mips", "Minst/s", mips(per_engine[2])),
            Metric::new("oracle_mips", "Minst/s", mips(per_engine[3])),
        ];
        best
    }
}
