//! Property-based tests for the program builder and the workload suite.

use proptest::prelude::*;

use hbat_core::addr::VirtAddr;
use hbat_isa::executor::Machine;
use hbat_isa::inst::{Cond, Width};
use hbat_isa::uop::MicroOp;
use hbat_isa::uop::PredecodedTrace;
use hbat_workloads::builder::Builder;
use hbat_workloads::layout::{HEAP_BASE, STACK_BASE};
use hbat_workloads::{Benchmark, RegBudget, Scale, WorkloadConfig};

/// A random arithmetic schedule over `n` variables: (dest, src_a, src_b,
/// op) tuples.
fn schedule() -> impl Strategy<Value = (usize, Vec<(usize, usize, usize, u8)>)> {
    (4usize..12).prop_flat_map(|n| {
        let steps = prop::collection::vec((0..n, 0..n, 0..n, 0u8..4), 1..40);
        (Just(n), steps)
    })
}

/// Builds the same computation under a register budget and returns the
/// final value of every variable (stored to the heap at the end).
fn run_schedule(n: usize, steps: &[(usize, usize, usize, u8)], budget: RegBudget) -> Vec<u64> {
    let mut b = Builder::new(budget);
    let vars: Vec<_> = (0..n).map(|k| b.ivar(&format!("v{k}"))).collect();
    let out = b.ivar("out");
    for (k, &v) in vars.iter().enumerate() {
        b.li(v, (k as i64 + 1) * 7919);
    }
    for &(d, a, s, op) in steps {
        match op {
            0 => b.add(vars[d], vars[a], vars[s]),
            1 => b.sub(vars[d], vars[a], vars[s]),
            2 => b.xor(vars[d], vars[a], vars[s]),
            _ => b.and(vars[d], vars[a], vars[s]),
        }
    }
    b.li(out, HEAP_BASE as i64);
    for &v in &vars {
        b.store_postinc(v, out, 8, Width::B8);
    }
    let program = b.finish().expect("schedule programs are valid");
    let mut m = Machine::new(program);
    m.run(1_000_000, |_| {});
    assert!(m.is_halted());
    (0..n)
        .map(|k| m.memory().read_u64(VirtAddr(HEAP_BASE + 8 * k as u64)))
        .collect()
}

proptest! {
    /// The spilling register assigner is semantics-preserving: any
    /// computation produces identical results under the full (32/32) and
    /// small (8/8) register budgets — only the memory traffic differs.
    #[test]
    fn register_budget_does_not_change_results((n, steps) in schedule()) {
        let full = run_schedule(n, &steps, RegBudget::FULL);
        let small = run_schedule(n, &steps, RegBudget::SMALL);
        prop_assert_eq!(full, small);
    }

    /// Spill traffic from the small budget stays inside the stack region
    /// and never touches the heap until the explicit stores at the end.
    #[test]
    fn spills_stay_in_the_stack_region((n, steps) in schedule()) {
        let mut b = Builder::new(RegBudget::SMALL);
        let vars: Vec<_> = (0..n).map(|k| b.ivar(&format!("v{k}"))).collect();
        for (k, &v) in vars.iter().enumerate() {
            b.li(v, k as i64);
        }
        for &(d, a, s, op) in &steps {
            match op {
                0 => b.add(vars[d], vars[a], vars[s]),
                1 => b.sub(vars[d], vars[a], vars[s]),
                2 => b.xor(vars[d], vars[a], vars[s]),
                _ => b.and(vars[d], vars[a], vars[s]),
            }
        }
        let program = b.finish().expect("valid");
        let mut m = Machine::new(program);
        let mut ok = true;
        m.run(1_000_000, |u| {
            if u.is_mem() {
                ok &= u.vaddr >= STACK_BASE;
            }
        });
        prop_assert!(ok, "a spill escaped the stack region");
    }

    /// Loop emission round-trips any iteration count.
    #[test]
    fn counted_loops_iterate_exactly(count in 1i64..200) {
        let mut b = Builder::new(RegBudget::FULL);
        let i = b.ivar("i");
        let acc = b.ivar("acc");
        let out = b.ivar("out");
        b.li(out, HEAP_BASE as i64);
        b.li(acc, 0);
        b.li(i, count);
        let top = b.new_label();
        b.bind(top);
        b.add(acc, acc, 1);
        b.sub(i, i, 1);
        b.br(Cond::Gt, i, 0, top);
        b.store(acc, out, 0, Width::B8);
        let mut m = Machine::new(b.finish().expect("valid"));
        m.run(100_000, |_| {});
        prop_assert_eq!(m.memory().read_u64(VirtAddr(HEAP_BASE)), count as u64);
    }
}

/// Every benchmark halts at test scale under both register budgets, and
/// the small budget always produces more memory operations.
#[test]
fn all_benchmarks_run_under_both_budgets() {
    for bench in Benchmark::ALL {
        let full = bench.build(&WorkloadConfig::new(Scale::Test));
        let small = bench.build(&WorkloadConfig::new(Scale::Test).with_small_regs());
        let tf = full.uops();
        let ts = small.uops();
        let mem = |t: &PredecodedTrace| t.iter().filter(|i| i.is_mem()).count();
        assert!(
            mem(&ts) >= mem(&tf),
            "{bench}: small budget should not reduce memory traffic ({} vs {})",
            mem(&ts),
            mem(&tf)
        );
    }
}

/// The few-registers builds materially increase memory traffic for most
/// benchmarks (the Figure-9 premise: up to 346 % more loads and stores).
#[test]
fn small_budget_inflates_memory_traffic_substantially() {
    let mut inflated = 0;
    for bench in Benchmark::ALL {
        let tf = bench.build(&WorkloadConfig::new(Scale::Test)).uops();
        let ts = bench
            .build(&WorkloadConfig::new(Scale::Test).with_small_regs())
            .uops();
        let mem = |t: &PredecodedTrace| t.iter().filter(|i| i.is_mem()).count() as f64;
        if mem(&ts) > mem(&tf) * 1.3 {
            inflated += 1;
        }
    }
    assert!(
        inflated >= 6,
        "expected most benchmarks to inflate ≥30%, got {inflated}/10"
    );
}

/// The decode view loses nothing: every micro-op of every workload
/// re-encodes from its `TraceInst` view byte-for-byte. The benchmark
/// harness's traced rebuild decodes every workload's trace and
/// predecodes it back, so this must hold on every workload, not only
/// on the instruction forms `hbat-isa` tests.
#[test]
fn every_workload_predecodes_losslessly() {
    let cfg = WorkloadConfig::new(Scale::Test);
    for bench in Benchmark::ALL {
        for (i, u) in bench.build(&cfg).uops().iter().enumerate() {
            assert_eq!(
                MicroOp::encode(&u.decode()),
                *u,
                "{bench}: op {i} not lossless"
            );
        }
    }
}
