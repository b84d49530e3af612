//! Pins the zero-allocation invariants of the solve paths.
//!
//! A counting global allocator wraps `System`. Sweeps — gram-only and full
//! (B, Gram, V) — must perform **zero** heap allocations after the first:
//! the [`Sequential`] engine rotates the columns in place, its round kernel
//! works in a buffer that [`GramState`] sizes when `D` is built, and the
//! schedule reuses its plan. This is the software analogue of the paper's
//! fixed BRAM budget: the FPGA design claims all covariance/column storage
//! up front and reuses it every sweep. A solve's plan is one flat pair list,
//! so a one-shot solve allocates as often at n = 128 as at n = 12, and a
//! tall one whose Gram build splits over the thread pool as often as a
//! small one. The serving loop and the SoA batch workspace are pinned to
//! bounded per-job / per-batch allocation counts.
//!
//! Lives in the root package (not hj-core) because hj-core carries
//! `#![forbid(unsafe_code)]` and a `GlobalAlloc` impl requires unsafe.

use hjsvd::core::convergence::Convergence;
use hjsvd::core::engine::Sequential;
use hjsvd::core::ordering::{round_robin, Sweep};
use hjsvd::core::{
    BatchDriver, BatchWorkspace, GramState, HealthCheck, HestenesSvd, Ordering as SweepOrdering,
    PairGuard, RotationTarget, SolveBudget, SolveDriver, SolveMonitor, SvdOptions, SweepEngine,
    SweepSchedule, SweepState,
};
use hjsvd::matrix::{gen, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The allocation counter is process-global and the test harness runs tests
/// on separate threads; serialize them so one test's warm-up never lands in
/// another's measured region.
static SERIAL: Mutex<()> = Mutex::new(());

/// Counts every allocation event (alloc + realloc) passing through the
/// global allocator. Frees are not counted — the invariant under test is
/// "no new buffers", not "no buffer returns".
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

/// Lock the serialization mutex, shrugging off poison: a panicking test
/// must fail alone, not cascade into every later test as a `PoisonError`.
fn serial_guard() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Allocation events of one [`SolveDriver`] run of exactly `sweeps`
/// [`Sequential`] sweeps over a fresh copy of `a` under `guard` (values-only,
/// or with the columns and `V` when `full`), planning into `plan`. The state
/// is built outside the measured region.
///
/// The minimum over `tries` runs is kept: the counter is process-global and
/// libtest's main thread occasionally allocates mid-test (timeout
/// bookkeeping), so a single measurement can pick up a couple of unrelated
/// events; code that genuinely allocates per sweep fails every retry, so the
/// invariant under test is not weakened.
fn driver_run_allocations(
    a: &Matrix,
    sweeps: usize,
    full: bool,
    guard: PairGuard,
    plan: &mut Sweep,
    tries: usize,
) -> usize {
    let driver = SolveDriver { convergence: Convergence::FixedSweeps(sweeps), max_sweeps: sweeps };
    let mut best = usize::MAX;
    for _ in 0..tries {
        let mut b = a.clone();
        let mut v = Matrix::identity(a.cols());
        let mut gram = GramState::from_matrix(a);
        let target =
            if full { RotationTarget::full(&mut b, &mut v) } else { RotationTarget::gram_only() };
        let mut state = SweepState { gram: &mut gram, target, guard };
        let mut schedule = SweepSchedule {
            strategy: SweepOrdering::RoundRobin,
            plan: &mut *plan,
            threshold: None,
        };
        let mut monitor = SolveMonitor::new(SolveBudget::unlimited(), HealthCheck::default());
        let before = allocation_count();
        let run = driver.run_monitored(&mut Sequential, &mut state, &mut schedule, &mut monitor);
        best = best.min(allocation_count() - before);
        assert_eq!(run.history.len(), sweeps, "the fixed budget must run every sweep");
        if best == 0 {
            break;
        }
    }
    best
}

#[test]
fn gram_sweeps_allocate_nothing_after_warmup() {
    // A one-sweep run and a four-sweep run of the same problem allocate
    // the same: the driver's bookkeeping (history, per-sweep timings) is
    // sized on sweep 1, and sweeps 2–4 add nothing.
    let _guard = serial_guard();
    let a = gen::uniform(48, 24, 11);
    let mut plan = Sweep::new();
    let one = driver_run_allocations(&a, 1, false, PairGuard::default(), &mut plan, 5);
    let four = driver_run_allocations(&a, 4, false, PairGuard::default(), &mut plan, 5);
    assert!(four <= one, "gram sweeps 2–4 allocated: {four} events vs {one} for one sweep");
}

#[test]
fn diagonal_scale_sweeps_allocate_nothing_after_warmup() {
    // The eigensolver's guard measures max|D_kk| at the start of every
    // sweep; it must fold over `D` in place, not copy its diagonal, so
    // sweeps 2–4 allocate nothing here either.
    let _guard = serial_guard();
    let a = gen::uniform(48, 24, 11);
    let guard = PairGuard::DiagonalScale { tol: 1e-14 };
    let mut plan = Sweep::new();
    let one = driver_run_allocations(&a, 1, false, guard, &mut plan, 5);
    let four = driver_run_allocations(&a, 4, false, guard, &mut plan, 5);
    assert!(
        four <= one,
        "DiagonalScale sweeps 2–4 allocated: {four} events vs {one} for one sweep"
    );
}

#[test]
fn sequential_fallback_sweeps_allocate_nothing_at_all() {
    // The one sweep engine's scratch — the round kernel's buffer — lives in
    // `GramState`, sized when `D` is built outside the measured region:
    // driven directly over a fixed order, without the driver's bookkeeping,
    // not even the first sweep allocates.
    let _guard = serial_guard();
    let a = gen::uniform(48, 24, 11);
    let order = round_robin(a.cols());
    let mut best = usize::MAX;
    for _ in 0..5 {
        let mut gram = GramState::from_matrix(&a);
        let mut state = SweepState {
            gram: &mut gram,
            target: RotationTarget::gram_only(),
            guard: PairGuard::default(),
        };
        let before = allocation_count();
        for s in 1..=4 {
            Sequential.sweep(&mut state, &order, s);
        }
        best = best.min(allocation_count() - before);
        if best == 0 {
            break;
        }
    }
    assert_eq!(best, 0, "sequential sweeps allocated {best} times");
}

#[test]
fn full_sweeps_allocate_nothing_after_warmup() {
    // Full mode rotates B's columns and accumulates V in place too.
    let _guard = serial_guard();
    let a = gen::uniform(32, 12, 13);
    let mut plan = Sweep::new();
    let one = driver_run_allocations(&a, 1, true, PairGuard::default(), &mut plan, 5);
    let four = driver_run_allocations(&a, 4, true, PairGuard::default(), &mut plan, 5);
    assert!(four <= one, "full sweeps 2–4 allocated: {four} events vs {one} for one sweep");
}

#[test]
fn one_shot_solve_allocations_do_not_grow_with_n() {
    // A one-shot solve plans its sweep into one flat pair list, so its
    // allocation count is the same at n = 12 and at n = 128 under both
    // orderings; a plan kept as one vector per round allocated per round
    // (32 → 650 events cyclic, 78 → 8,148 row-cyclic over the same range).
    // The slack covers the history and sweep-timing vectors growing once
    // more over the larger problem's extra sweeps, and the buffers the
    // result sorts take past 20 entries.
    let _guard = serial_guard();
    let small = gen::uniform(48, 12, 5);
    let large = gen::uniform(160, 128, 5);
    for ordering in SweepOrdering::ALL {
        let solver = HestenesSvd::new(SvdOptions { ordering, ..SvdOptions::default() });
        // Minimum of three tries, as in `driver_run_allocations`.
        let events = |a: &Matrix, full: bool| {
            (0..3)
                .map(|_| {
                    let before = allocation_count();
                    if full {
                        solver.decompose(a).unwrap();
                    } else {
                        solver.singular_values(a).unwrap();
                    }
                    allocation_count() - before
                })
                .min()
                .expect("three tries")
        };
        for full in [false, true] {
            let (at_12, at_128) = (events(&small, full), events(&large, full));
            let slack = 4;
            assert!(
                at_128 <= at_12 + slack,
                "{} {}: {at_128} events at n = 128 vs {at_12} at n = 12",
                ordering.name(),
                if full { "decompose" } else { "singular_values" }
            );
        }
    }
}

#[test]
fn a_split_gram_build_allocates_no_more_than_a_small_solve() {
    // At 4096×64 the Gram build splits over the rayon pool and carries
    // partial sums between panels. The part list lives on the stack and
    // each thread's carried sums are sized once, so after one warm-up call
    // (which starts the pool and sizes them) a one-shot solve allocates no
    // more than one at 48×12, which does neither. Both count 7 events; the
    // bound has no slack, because a per-call part list or carry buffer
    // would add only one or two.
    let _guard = serial_guard();
    let solver = HestenesSvd::new(SvdOptions::default());
    let small = gen::uniform(48, 12, 5);
    let tall = gen::uniform(4096, 64, 5);
    solver.singular_values(&tall).unwrap();
    // Minimum of three tries, as in `driver_run_allocations`.
    let events = |a: &Matrix| {
        (0..3)
            .map(|_| {
                let before = allocation_count();
                solver.singular_values(a).unwrap();
                allocation_count() - before
            })
            .min()
            .expect("three tries")
    };
    let (at_small, at_tall) = (events(&small), events(&tall));
    assert!(at_tall <= at_small, "{at_tall} events at 4096×64 vs {at_small} at 48×12");
}

#[test]
fn serving_loop_reuses_one_workspace_and_bounds_per_job_allocations() {
    // A served single job is a one-shot solve, so the serving steady state
    // inherits the sweep engine's zero-allocation discipline: the per-job
    // allocation events (ticket, completion slot, the solve's Gram, plan and
    // result vectors) are a small constant independent of how many jobs
    // have been served.
    let _guard = serial_guard();
    use hjsvd::serve::{JobSpec, ServiceConfig, SolveService};
    use std::time::Duration;

    let service = SolveService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });

    // Pre-generate every matrix so measured deltas are service-side only.
    let mats: Vec<Matrix> = (0..9).map(|k| gen::uniform(32, 12, 50 + k)).collect();
    let mut mats = mats.into_iter();

    // Warm-up: the first jobs size the queue spine and the tenant table.
    for _ in 0..3 {
        assert!(service.solve(JobSpec::new(mats.next().unwrap())).unwrap().result.is_ok());
    }

    // Steady state: per-job allocation events stay bounded by a constant.
    let mut deltas = Vec::new();
    for m in mats {
        let before = allocation_count();
        assert!(service.solve(JobSpec::new(m)).unwrap().result.is_ok());
        deltas.push(allocation_count() - before);
    }
    let bound = 64;
    let worst = deltas.iter().copied().max().unwrap();
    assert!(worst <= bound, "a served job allocated {worst} times (> {bound}): {deltas:?}");
    // No drift: late jobs cost no more than early ones (same shape, warm
    // everything) — the loop is not accumulating per-job state. A couple
    // of events of slack absorbs harness-thread noise on either endpoint.
    assert!(
        *deltas.last().unwrap() <= deltas.first().unwrap() + 2,
        "per-job allocations grew across the serving loop: {deltas:?}"
    );
    assert!(service.shutdown(Duration::from_secs(5)).drained_cleanly);
}

#[test]
fn batch_workspace_solves_allocate_only_results_after_warmup() {
    // The SoA batch engine follows the same discipline as the sweep
    // workspaces: the first batch sizes the interleaved triangle and every
    // per-lane buffer; repeated same-shape batches never grow the
    // workspace again, so steady-state allocation traffic is the
    // per-problem result construction alone (values, history, stats) — a
    // constant per batch, independent of how many batches have run. The
    // 128 problems of 24×16 split into one cache block per pool thread
    // (each swept on its own thread, or all inline on one); the 24 of 16×8
    // stay one block.
    let _guard = serial_guard();
    let solver = HestenesSvd::new(SvdOptions::default());
    for (count, m, n, seed) in [(24, 16, 8, 70), (128, 24, 16, 170)] {
        let mats: Vec<Matrix> = (0..count).map(|k| gen::uniform(m, n, seed + k)).collect();
        let mut ws = BatchWorkspace::new();

        // Warm-up batch: sizes the SoA triangle and the lane-state buffers.
        let first = BatchDriver::new(&solver).solve(&mut ws, &mats);
        assert!(first.iter().all(|r| r.is_ok()), "warm-up batch must solve");
        let warm = ws.allocations();
        assert!(warm > 0, "warm-up must have sized the workspace");

        let mut deltas = Vec::new();
        for _ in 0..6 {
            let before = allocation_count();
            let batch = BatchDriver::new(&solver).solve(&mut ws, &mats);
            deltas.push(allocation_count() - before);
            assert!(batch.iter().all(|r| r.is_ok()));
        }
        // The workspace itself is in zero-allocation steady state...
        assert_eq!(ws.allocations(), warm, "workspace grew after warm-up");
        // ...and whole-batch traffic is bounded by result construction: a
        // small constant per problem.
        let bound = mats.len() * 16;
        let worst = deltas.iter().copied().max().unwrap();
        assert!(worst <= bound, "a batch solve allocated {worst} times (> {bound}): {deltas:?}");
        // No drift across batches (same shapes, warm workspace); a couple
        // of events of slack absorbs harness-thread noise.
        assert!(
            *deltas.last().unwrap() <= deltas.first().unwrap() + 2,
            "per-batch allocations grew across repeated solves: {deltas:?}"
        );
    }
}

#[test]
fn reused_workspace_allocations_are_per_problem_not_per_sweep() {
    // One plan buffer carried across problems of different shapes:
    // a new problem's first sweep costs a bounded handful of events — the
    // driver's bookkeeping plus any plan regrowth — and every later sweep
    // of that problem costs zero.
    let _guard = serial_guard();
    let problems: Vec<Matrix> = [(40usize, 20usize), (30, 12), (18, 6)]
        .iter()
        .enumerate()
        .map(|(k, &(m, n))| gen::uniform(m, n, 17 + k as u64))
        .collect();
    let mut plan = Sweep::new();

    for (k, a) in problems.iter().enumerate() {
        let (m, n) = a.shape();
        // First sweep of this problem on buffers that last served another
        // shape: the per-problem warm-up. Bounded by a few buffer events,
        // independent of the number of rounds or sweeps. Each try first
        // runs the previous problem, and the minimum of five is kept (see
        // `driver_run_allocations`), which also leaves out the one-time
        // growth of the fresh buffer.
        let previous = &problems[(k + problems.len() - 1) % problems.len()];
        let warmup = (0..5)
            .map(|_| {
                driver_run_allocations(previous, 1, true, PairGuard::default(), &mut plan, 1);
                driver_run_allocations(a, 1, true, PairGuard::default(), &mut plan, 1)
            })
            .min()
            .expect("five tries");
        let bound = 11;
        assert!(warmup <= bound, "warm-up on {m}x{n} allocated {warmup} times (> {bound})");

        // Steady state: zero allocations per sweep, hence zero per round.
        let one = driver_run_allocations(a, 1, true, PairGuard::default(), &mut plan, 5);
        let four = driver_run_allocations(a, 4, true, PairGuard::default(), &mut plan, 5);
        assert!(four <= one, "steady-state sweeps on {m}x{n} allocated ({four} vs {one})");
    }
}
