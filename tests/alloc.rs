//! The pipeline allocates nothing per simulated instruction: once a
//! first `run` leg has sized its structures, a second leg of ten
//! thousand commits allocates only a fixed handful of times (building
//! its report, mostly), under the baseline and replay-packing machines
//! and at small, large and wide-decode machine shapes. Nor does building
//! a machine allocate its whole cache hierarchy up front.

use nwo::core::PackConfig;
use nwo::sim::{SimConfig, Simulator};
use nwo::workloads::benchmark;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations and reallocations
/// each thread makes, and the bytes they ask for.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A `const`-initialized `Cell` needs no allocation to reach; after
    // the thread's locals are torn down there is nothing left to count.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// This thread's allocations and allocated bytes so far.
fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

// SAFETY: every operation is forwarded unchanged to `System`; counting
// only touches a thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations a second leg may make: the report's clones of the
/// statistics and output (two, for compress), and the odd growth of a
/// per-PC map or an output stream.
const MAX_ALLOCS: u64 = 8;

/// What building a Table 1 machine may allocate. The L2 alone holds 8
/// MiB of tags across 65,536 sets, so a machine that allocated every
/// set up front would ask for several MiB; sets are allocated on first
/// touch instead.
const MAX_NEW_BYTES: u64 = 1 << 20;

#[test]
fn building_a_table1_simulator_allocates_under_a_mebibyte() {
    let bench = benchmark("compress", 0).expect("compress is a kernel");
    let before = counts();
    let sim = Simulator::new(&bench.program, SimConfig::default());
    let (allocs, bytes) = (counts().0 - before.0, counts().1 - before.1);
    drop(sim);
    assert!(
        bytes < MAX_NEW_BYTES,
        "building the machine asked for {bytes} bytes in {allocs} allocations"
    );
}

#[test]
fn a_second_run_leg_allocates_a_fixed_handful() {
    let bench = benchmark("compress", 0).expect("compress is a kernel");
    let configs = [
        ("baseline", SimConfig::default()),
        (
            "replay-packing",
            SimConfig::default().with_packing(PackConfig::with_replay()),
        ),
        (
            "RUU 16/LSQ 8",
            SimConfig {
                ruu_size: 16,
                lsq_size: 8,
                ..SimConfig::default()
            },
        ),
        (
            "RUU 160/LSQ 80",
            SimConfig {
                ruu_size: 160,
                lsq_size: 80,
                ..SimConfig::default()
            },
        ),
        ("wide decode", SimConfig::default().with_wide_decode()),
    ];
    for (name, config) in configs {
        let mut sim = Simulator::new(&bench.program, config);
        let first = sim.run(5_000).expect("first leg runs").stats.committed;
        let before = counts().0;
        let report = sim.run(first + 10_000).expect("second leg runs");
        let allocs = counts().0 - before;
        let committed = report.stats.committed - first;
        assert!(
            committed >= 10_000 && !sim.finished(),
            "{name}: the second leg commits {committed} and must stop short of halt"
        );
        assert!(
            allocs <= MAX_ALLOCS,
            "{name}: {allocs} allocations over {committed} commits"
        );
    }
}
