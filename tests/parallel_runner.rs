//! Integration tests for parallel execution: the worker pool and the
//! sweep engine on top of it must reproduce the sequential results
//! exactly (simulations are deterministic and share no mutable state).

use pythia::runner::{run_parallel, run_workload, RunSpec};
use pythia_sim::stats::SimReport;
use pythia_stats::metrics;
use pythia_sweep::{ConfigPoint, SweepSpec};
use pythia_workloads::generators::PatternKind;
use pythia_workloads::suites::Suite;
use pythia_workloads::{TraceSpec, Workload};

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "w-stream".into(),
            suite: Suite::Spec06,
            spec: TraceSpec::new("w-stream", PatternKind::Stream { store_every: 0 }).with_seed(41),
        },
        Workload {
            name: "w-gems".into(),
            suite: Suite::Spec06,
            spec: TraceSpec::new(
                "w-gems",
                PatternKind::PageVisit {
                    offsets: vec![0, 23],
                },
            )
            .with_seed(42),
        },
        Workload {
            name: "w-chase".into(),
            suite: Suite::Spec06,
            spec: TraceSpec::new("w-chase", PatternKind::PointerChase).with_seed(43),
        },
    ]
}

#[test]
fn run_parallel_preserves_order() {
    let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0usize..64)
        .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
        .collect();
    let results = run_parallel(jobs, 8);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(*r, i * i);
    }
}

#[test]
fn run_parallel_single_thread_works() {
    let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| 7), Box::new(|| 9)];
    assert_eq!(run_parallel(jobs, 1), vec![7, 9]);
}

#[test]
#[should_panic(expected = "at least one worker")]
fn zero_threads_rejected() {
    let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| 1)];
    let _ = run_parallel(jobs, 0);
}

/// Every (workload, prefetcher) simulation of the fixture grid as an
/// independent job, baselines first.
fn jobs(ws: &[Workload], spec: RunSpec) -> Vec<Box<dyn FnOnce() -> SimReport + Send>> {
    let mut jobs: Vec<Box<dyn FnOnce() -> SimReport + Send>> = Vec::new();
    for p in ["none", "stride", "pythia"] {
        for w in ws {
            let w = w.clone();
            jobs.push(Box::new(move || run_workload(&w, p, &spec)));
        }
    }
    jobs
}

#[test]
fn parallel_evaluation_matches_sequential() {
    let ws = workloads();
    let prefetchers = ["stride", "pythia"];
    let run = RunSpec::single_core().with_budget(10_000, 40_000);

    // The pool returns byte-identical reports for any thread count.
    let serial = run_parallel(jobs(&ws, run), 1);
    assert_eq!(serial, run_parallel(jobs(&ws, run), 4));

    // The sweep engine on the same grid reproduces the plain sequential
    // evaluation: metrics of each direct run against its baseline.
    let spec = SweepSpec::new("parallel")
        .with_workloads(ws.clone())
        .with_prefetchers(&prefetchers)
        .with_config(ConfigPoint::from_run_spec("base", &run));
    let par = pythia_sweep::run(&spec, 4).expect("valid sweep");
    assert_eq!(par.cells.len(), ws.len() * prefetchers.len());
    let n = ws.len();
    for (wi, w) in ws.iter().enumerate() {
        for (pi, p) in prefetchers.iter().enumerate() {
            let cell = &par.cells[wi * prefetchers.len() + pi];
            assert_eq!(
                (cell.unit.as_str(), cell.prefetcher.as_str()),
                (w.name.as_str(), *p)
            );
            let expected = metrics::compare(&serial[wi], &serial[(pi + 1) * n + wi]);
            assert_eq!(cell.metrics, expected, "{}/{p}", w.name);
        }
    }
}

#[test]
fn parallel_evaluation_with_more_threads_than_jobs() {
    let ws = workloads()[..1].to_vec();
    let run = RunSpec::single_core().with_budget(5_000, 20_000);
    let spec = SweepSpec::new("wide")
        .with_workloads(ws)
        .with_prefetchers(&["stride"])
        .with_config(ConfigPoint::from_run_spec("base", &run));
    let r = pythia_sweep::run(&spec, 64).expect("valid sweep");
    assert_eq!((r.baselines.len(), r.cells.len()), (1, 1));
}
