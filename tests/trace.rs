//! Pins the trace layer's cost contract and its accounting accuracy.
//!
//! Three guarantees, each load-bearing for the observability design
//! (DESIGN.md §8):
//!
//! 1. **Bit identity** — attaching a sink never perturbs the numerics. A
//!    solve under the default request, a no-op sink and a recording sink at
//!    the chattiest level produces bit-identical `U`, `Σ`, `V` (and
//!    values-only spectra) to a plain solve.
//! 2. **Zero extra allocations** — a solve traced into a [`NoopSink`]
//!    performs exactly as many heap allocations as an untraced solve:
//!    software trace events are built from numbers and `&'static str`s,
//!    never from owned strings.
//! 3. **Honest accounting** — the JSONL stream is valid (one JSON object
//!    per line) and its per-sweep rotation counts sum to the solve's own
//!    `SolveStats.rotations_applied`.
//! 4. **Plan order** — a round-robin sweep runs round by round, yet its
//!    rotation-level events come in the plan's pair order, event for event
//!    the trace of the pair-at-a-time reference engine.
//!
//! Lives in the root package (not hj-core) because hj-core carries
//! `#![forbid(unsafe_code)]` and a `GlobalAlloc` impl requires unsafe.

mod per_pair;

use hjsvd::core::engine::Sequential;
use hjsvd::core::ordering::Sweep;
use hjsvd::core::{
    GramState, HealthCheck, HestenesSvd, JsonlSink, NoopSink, Ordering as SweepOrdering, PairGuard,
    Request, RingBufferSink, RotationTarget, SolveBudget, SolveDriver, SolveMonitor, SvdOptions,
    SweepEngine, SweepSchedule, SweepState, TraceEvent, TraceLevel,
};
use hjsvd::matrix::{gen, Matrix};
use per_pair::PerPair;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Serialize tests: the allocation counter is process-global and the test
/// harness runs tests on separate threads.
static SERIAL: Mutex<()> = Mutex::new(());

/// Counts every allocation event (alloc + realloc) passing through the
/// global allocator; frees are not counted.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn traced_solves_are_bit_identical_to_untraced_on_every_engine() {
    let _guard = SERIAL.lock().unwrap();
    let a = gen::uniform(40, 16, 23);
    let solver = HestenesSvd::new(SvdOptions::default());
    // The plain baseline, and the same solve under the default request.
    let base = solver.decompose(&a).unwrap();
    let default = solver.decompose_with(&a, Request::default()).unwrap();

    // No-op sink at the sweep level.
    let quiet =
        solver.decompose_with(&a, Request::traced(&mut NoopSink, TraceLevel::Sweep)).unwrap();

    // Recording sink at the chattiest level.
    let mut ring = RingBufferSink::new(1 << 16);
    let loud = solver.decompose_with(&a, Request::traced(&mut ring, TraceLevel::Rotation)).unwrap();
    assert!(ring.recorded() > 0, "rotation-level trace was empty");

    for traced in [&default, &quiet, &loud] {
        assert_eq!(
            base.singular_values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            traced.singular_values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "singular values drifted under tracing"
        );
        assert_eq!(bits(&base.u), bits(&traced.u), "U drifted");
        assert_eq!(bits(&base.v), bits(&traced.v), "V drifted");
        assert_eq!(base.sweeps, traced.sweeps, "sweep count drifted");
        assert_eq!(base.history, traced.history, "history drifted");
    }

    // Values mode: the same requests, the same bits.
    let base = solver.singular_values(&a).unwrap();
    let default = solver.singular_values_with(&a, Request::default()).unwrap();
    let quiet =
        solver.singular_values_with(&a, Request::traced(&mut NoopSink, TraceLevel::Sweep)).unwrap();
    let mut ring = RingBufferSink::new(1 << 16);
    let loud =
        solver.singular_values_with(&a, Request::traced(&mut ring, TraceLevel::Rotation)).unwrap();
    assert!(ring.recorded() > 0, "rotation-level values trace was empty");
    for traced in [&default, &quiet, &loud] {
        assert_eq!(
            base.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            traced.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "values-only spectrum drifted under tracing"
        );
        assert_eq!(base.history, traced.history, "values-only history drifted");
    }
}

#[test]
fn noop_traced_solve_allocates_exactly_as_much_as_untraced() {
    let _guard = SERIAL.lock().unwrap();
    let a = gen::uniform(48, 24, 29);
    let solver = HestenesSvd::new(SvdOptions::default());
    // Warm up the allocator's internal arenas so both measured runs see
    // identical conditions.
    solver.decompose(&a).unwrap();
    solver.decompose_with(&a, Request::traced(&mut NoopSink, TraceLevel::Sweep)).unwrap();

    let before = allocation_count();
    solver.decompose(&a).unwrap();
    let untraced = allocation_count() - before;

    let before = allocation_count();
    solver.decompose_with(&a, Request::traced(&mut NoopSink, TraceLevel::Sweep)).unwrap();
    let traced = allocation_count() - before;

    assert_eq!(traced, untraced, "no-op tracing changed the allocation count");
}

#[test]
fn jsonl_stream_is_valid_and_rotation_counts_match_stats() {
    let _guard = SERIAL.lock().unwrap();
    let a = gen::uniform(36, 18, 31);
    let solver = HestenesSvd::new(SvdOptions::default());
    let mut sink = JsonlSink::new(Vec::new());
    let svd = solver.decompose_with(&a, Request::traced(&mut sink, TraceLevel::Rotation)).unwrap();
    let text = String::from_utf8(sink.finish().unwrap()).unwrap();

    let mut sweep_end_rotations = 0usize;
    let mut applied_events = 0usize;
    let mut lines = 0usize;
    for line in text.lines() {
        lines += 1;
        assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line}");
        // Minimal structural validity: balanced quoting and braces
        // outside strings — enough to catch malformed hand-rolled JSON.
        let mut depth = 0i64;
        let mut in_str = false;
        let mut escaped = false;
        for c in line.chars() {
            match (in_str, escaped, c) {
                (true, true, _) => escaped = false,
                (true, false, '\\') => escaped = true,
                (true, false, '"') => in_str = false,
                (false, _, '"') => in_str = true,
                (false, _, '{') | (false, _, '[') => depth += 1,
                (false, _, '}') | (false, _, ']') => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced braces: {line}");
        }
        assert!(depth == 0 && !in_str, "truncated JSON: {line}");

        if let Some(rest) = line.split_once("\"event\":\"sweep_end\"").map(|(_, r)| r) {
            let count = rest
                .split_once("\"rotations_applied\":")
                .and_then(|(_, r)| {
                    r.split(|c: char| !c.is_ascii_digit()).next()?.parse::<usize>().ok()
                })
                .expect("sweep_end must carry rotations_applied");
            sweep_end_rotations += count;
        } else if line.contains("\"event\":\"rotation_applied\"") {
            applied_events += 1;
        }
    }
    assert!(lines > 0, "empty trace");
    assert_eq!(
        sweep_end_rotations, svd.stats.rotations_applied,
        "sweep_end totals disagree with SolveStats"
    );
    assert_eq!(
        applied_events, svd.stats.rotations_applied,
        "rotation_applied event count disagrees with SolveStats"
    );
}

/// The rotation-level events of a default monitored round-robin run of `a`
/// on `engine`: values only, or with the columns and `V` when `full`.
fn rotation_events(engine: &mut dyn SweepEngine, a: &Matrix, full: bool) -> Vec<TraceEvent> {
    let opts = SvdOptions::default();
    let mut gram = GramState::from_matrix(a);
    let (mut b, mut v) = (a.clone(), Matrix::identity(a.cols()));
    let target =
        if full { RotationTarget::full(&mut b, &mut v) } else { RotationTarget::gram_only() };
    let mut state = SweepState { gram: &mut gram, target, guard: PairGuard::default() };
    let mut plan = Sweep::new();
    let mut schedule =
        SweepSchedule { strategy: SweepOrdering::RoundRobin, plan: &mut plan, threshold: None };
    let mut sink = RingBufferSink::new(1 << 20);
    let mut monitor = SolveMonitor {
        request: Request::traced(&mut sink, TraceLevel::Rotation),
        ..SolveMonitor::new(SolveBudget::unlimited(), HealthCheck::default())
    };
    let driver = SolveDriver { convergence: opts.convergence, max_sweeps: opts.max_sweeps };
    let run = driver.run_monitored(engine, &mut state, &mut schedule, &mut monitor);
    assert_eq!(run.fault, None);
    drop(monitor);
    sink.events()
        .into_iter()
        .filter(|e| {
            matches!(e, TraceEvent::RotationApplied { .. } | TraceEvent::RotationSkipped { .. })
        })
        .collect()
}

#[test]
fn round_robin_rotation_trace_follows_the_plan_pair_by_pair() {
    let _guard = SERIAL.lock().unwrap();
    // Even and odd n (the bye pair leaves no event), values and full mode;
    // every solve runs to convergence, so its last sweeps skip pairs, and
    // the zero column is skipped from sweep 1.
    for (case, (m, n)) in [(30, 8), (25, 9), (12, 12), (40, 17), (9, 14)].into_iter().enumerate() {
        let mut a = gen::uniform(m, n, 60 + case as u64);
        if case % 2 == 1 {
            a.col_mut(n / 2).fill(0.0);
        }
        for full in [false, true] {
            let got = rotation_events(&mut Sequential, &a, full);
            let want = rotation_events(&mut PerPair, &a, full);
            assert!(
                got.iter().any(|e| matches!(e, TraceEvent::RotationSkipped { .. })),
                "{m}x{n}: no sweep skipped a pair"
            );
            assert_eq!(got, want, "{m}x{n} full={full}");
        }
    }
}
