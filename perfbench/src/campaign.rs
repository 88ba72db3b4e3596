//! `campaign_ladder`: one op is one `sweep::engine::run_all` of a campaign
//! shaped like Fig. 9 — a `HEADLINE_PREFETCHERS` panel and a `LADDER`
//! panel over the same seeded profile traces, sharing their `none`
//! baselines — on two threads, followed by the markdown render a
//! `pythia-cli sweep` user reads. The only workload that runs the registry
//! prefetchers, the `run_parallel` tail, planning, cross-panel baseline
//! dedup, merge and render.
//!
//! The traced op rebuilds `run_all` from its public parts —
//! `plan_campaign`, `run_parallel` over timed cell closures,
//! `merge_cells` — and runs each cell through the tracing adapters. The
//! merged result must equal the untraced one byte for byte, which also
//! proves the cells were simulated exactly as `CellJob::run` would.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use pythia::runner::{run_parallel, run_sources_with};
use pythia_bench::figures::{HEADLINE_PREFETCHERS, LADDER};
use pythia_sim::stats::SimReport;
use pythia_sweep::engine::{plan_campaign, run_all};
use pythia_sweep::spec::PrefetcherKind;
use pythia_sweep::{ConfigPoint, SweepResult, SweepSpec, WorkUnit};
use pythia_workloads::profiles::Profile;

use crate::exact::{set_end_to_end, set_sim_counts};
use crate::layers::{Layers, SourceLayer, TimedPrefetcher, TimedSource};
use crate::sim::split;
use crate::stats::{beyond, median, ms, quantile};
use crate::{rounds, Args, Outcome};

const NAME: &str = "campaign_ladder";
/// Worker threads, as on a 2-vCPU host.
const THREADS: usize = 2;
/// Per-cell budget. Small enough that a run holds well over a hundred
/// campaigns, so `op_p90_ms` has ten samples beyond it.
const WARMUP: u64 = 20_000;
const MEASURE: u64 = 80_000;
/// `expected`-profile traces the campaign runs (indices into the
/// profile's six).
const UNITS: [usize; 2] = [0, 2];

/// The two Fig. 9-shaped panels over traces drawn from `seed`.
fn panels(seed: u64) -> Vec<SweepSpec> {
    let traces = Profile::Expected.workloads(seed);
    let units: Vec<WorkUnit> = UNITS
        .iter()
        .map(|&i| WorkUnit::single(traces[i].clone()))
        .collect();
    let config = ConfigPoint::single_core("base", WARMUP, MEASURE);
    vec![
        SweepSpec::new("headline")
            .with_units(units.clone())
            .with_prefetchers(&HEADLINE_PREFETCHERS)
            .with_config(config.clone()),
        SweepSpec::new("ladder")
            .with_units(units)
            .with_prefetchers(&LADDER)
            .with_config(config),
    ]
}

/// One simulation of a planned campaign, in `plan_campaign`'s order.
#[derive(Clone)]
struct Cell {
    unit: WorkUnit,
    prefetcher: String,
    config: ConfigPoint,
    seed: u64,
}

fn name_of(kind: &PrefetcherKind) -> String {
    match kind {
        PrefetcherKind::Named(n) => n.clone(),
        PrefetcherKind::Pythia(_) => panic!("the campaign names every prefetcher"),
    }
}

/// The cells `plan_campaign` expands `specs` into: per panel, the
/// baselines not planned by an earlier panel, then every measured cell
/// in grid order.
fn expand(specs: &[SweepSpec]) -> Vec<Cell> {
    let mut cells = Vec::new();
    let mut planned = HashSet::new();
    for spec in specs {
        for u in &spec.units {
            for cp in &spec.configs {
                for &seed in &spec.seeds {
                    if planned.insert((u.label.clone(), cp.label.clone(), seed)) {
                        cells.push(Cell {
                            unit: u.clone(),
                            prefetcher: name_of(&spec.baseline.kind),
                            config: cp.clone(),
                            seed,
                        });
                    }
                }
            }
        }
        for u in &spec.units {
            for cp in &spec.configs {
                for p in &spec.prefetchers {
                    for &seed in &spec.seeds {
                        cells.push(Cell {
                            unit: u.clone(),
                            prefetcher: name_of(&p.kind),
                            config: cp.clone(),
                            seed,
                        });
                    }
                }
            }
        }
    }
    cells
}

impl Cell {
    /// Simulates the cell as `CellJob::run` does, through the adapters.
    fn run_traced(&self, layers: &Arc<Layers>) -> SimReport {
        let len = (self.config.warmup + self.config.measure) as usize;
        let sources = self
            .unit
            .workloads
            .iter()
            .map(|w| {
                let mut w = w.clone();
                w.spec.seed = w.spec.seed.wrapping_add(self.seed);
                TimedSource::boxed(w.source(len), SourceLayer::TraceGen, layers)
            })
            .collect();
        run_sources_with(sources, &self.config.run_spec(), |core| {
            TimedPrefetcher::build(&self.prefetcher, core, layers)
        })
    }
}

/// The byte form two results are compared in (wall-clock telemetry
/// stripped).
fn canonical(result: SweepResult) -> String {
    result.stripped().to_json().render()
}

/// One traced op's parts.
struct TracedOp {
    plan_ms: f64,
    cell_ms: Vec<f64>,
    run_ms: f64,
    merge_ms: f64,
    render_ms: f64,
    total_ms: f64,
    merged: String,
    reports: Vec<SimReport>,
}

fn traced_op(
    specs: &[SweepSpec],
    cells: &[Cell],
    layers: &Arc<Layers>,
) -> Result<TracedOp, String> {
    let started = Instant::now();
    let plan = plan_campaign(NAME, specs)?;
    let plan_ms = ms(started.elapsed());
    if plan.job_count() != cells.len() {
        return Err(format!(
            "plan has {} jobs, the benchmark expected {}",
            plan.job_count(),
            cells.len()
        ));
    }
    let jobs: Vec<Box<dyn FnOnce() -> (SimReport, f64) + Send>> = cells
        .iter()
        .map(|cell| {
            let (cell, layers) = (cell.clone(), Arc::clone(layers));
            Box::new(move || {
                let started = Instant::now();
                let report = cell.run_traced(&layers);
                (report, ms(started.elapsed()))
            }) as Box<dyn FnOnce() -> (SimReport, f64) + Send>
        })
        .collect();
    let run_started = Instant::now();
    let (reports, cell_ms): (Vec<SimReport>, Vec<f64>) =
        run_parallel(jobs, THREADS).into_iter().unzip();
    let run_ms = ms(run_started.elapsed());
    let merge_started = Instant::now();
    let merged = plan.merge_cells(&reports)?;
    let merge_ms = ms(merge_started.elapsed());
    let render_started = Instant::now();
    std::hint::black_box(merged.render("md")?);
    let render_ms = ms(render_started.elapsed());
    let total_ms = ms(started.elapsed());
    Ok(TracedOp {
        plan_ms,
        cell_ms,
        run_ms,
        merge_ms,
        render_ms,
        total_ms,
        merged: canonical(merged),
        reports,
    })
}

/// The untraced op: `run_all` plus the markdown render. Returns the
/// canonical result.
fn op(specs: &[SweepSpec]) -> Result<String, String> {
    let result = run_all(NAME, specs, THREADS)?;
    std::hint::black_box(result.render("md")?);
    Ok(canonical(result))
}

/// One set-up: the panels, their planned cells, and the warm-up
/// campaign's result every op must reproduce.
struct Ladder {
    specs: Vec<SweepSpec>,
    cells: Vec<Cell>,
    reference: SweepResult,
    reference_bytes: String,
}

/// `campaign_ladder`.
pub fn campaign_ladder(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let layers = Arc::new(Layers::default());
    let mut plain = Vec::new();
    let mut traced: Vec<TracedOp> = Vec::new();
    let (ladder, wall) = rounds(
        args,
        &mut out,
        |_, _| {
            let specs = panels(args.seed);
            let cells = expand(&specs);
            // Untimed warm-up campaign, which also yields the reference.
            let reference = run_all(NAME, &specs, THREADS).expect("the campaign is valid");
            let reference_bytes = canonical(reference.clone());
            Ladder {
                specs,
                cells,
                reference,
                reference_bytes,
            }
        },
        |a, b| a.reference_bytes == b.reference_bytes,
        |ladder, deadline, out| {
            while Instant::now() < deadline {
                let op_started = Instant::now();
                let result = op(&ladder.specs);
                plain.push(ms(op_started.elapsed()));
                out.check(
                    matches!(&result, Ok(r) if *r == ladder.reference_bytes),
                    || format!("run_all result differs from the first: {:?}", result.err()),
                );
                if args.trace {
                    match traced_op(&ladder.specs, &ladder.cells, &layers) {
                        Ok(t) => {
                            out.check(t.merged == ladder.reference_bytes, || {
                                "traced campaign differs from run_all".into()
                            });
                            traced.push(t);
                        }
                        Err(e) => out.check(false, || format!("traced campaign: {e}")),
                    }
                }
            }
        },
    );
    let wall = wall.as_secs_f64();
    let Ladder {
        specs,
        cells,
        reference,
        ..
    } = ladder;
    let instructions: u64 = cells
        .iter()
        .map(|c| (c.config.warmup + c.config.measure) * c.unit.workloads.len() as u64)
        .sum();

    let measured: Vec<f64> = reference.cells.iter().map(|c| c.raw.ipc).collect();
    let pythia: Vec<_> = reference
        .cells
        .iter()
        .filter(|c| c.sweep == "headline" && c.prefetcher == "pythia")
        .map(|c| c.metrics)
        .collect();
    set_end_to_end(&mut out, &measured, &pythia);

    if !args.trace {
        if beyond(&plain, 0.9) < 10 {
            eprintln!("warning: fewer than 10 campaigns beyond p90; op_p90_ms is thin");
        }
        out.set("ops_per_s", plain.len() as f64 / wall);
        out.set("op_p90_ms", quantile(&plain, 0.9));
        out.set(
            "sim_minst_per_s",
            (plain.len() as u64 * instructions) as f64 / wall / 1e6,
        );
        out.set("peak_rss_mb", crate::peak_rss_mb());
        return out;
    }
    let Some(first) = traced.first() else {
        out.check(false, || "no traced campaign completed".into());
        return out;
    };
    set_sim_counts(&mut out, &first.reports.iter().collect::<Vec<_>>());
    let n = traced.len() as f64;
    let all_cells: Vec<f64> = traced.iter().flat_map(|t| t.cell_ms.clone()).collect();
    let busy_ms: f64 = all_cells.iter().sum();
    let capacity_ms: f64 = traced.iter().map(|t| t.run_ms * THREADS as f64).sum();
    let mean = |f: &dyn Fn(&TracedOp) -> f64| traced.iter().map(f).sum::<f64>() / n;
    out.set(
        "trace.overhead_share",
        median(&traced.iter().map(|t| t.total_ms).collect::<Vec<_>>()) / median(&plain) - 1.0,
    );
    out.set("sweep.plan_ms", mean(&|t| t.plan_ms));
    out.set("sweep.cell_p50_ms", median(&all_cells));
    out.set("sweep.cell_p90_ms", quantile(&all_cells, 0.9));
    // Baselines each panel needs, less those the plan runs.
    let needed: usize = specs
        .iter()
        .map(|s| s.units.len() * s.configs.len() * s.seeds.len())
        .sum();
    let planned = cells.len() - specs.iter().map(SweepSpec::cell_count).sum::<usize>();
    out.set("sweep.baselines_shared", (needed - planned) as f64);
    out.set("runner.tail_idle_share", 1.0 - busy_ms / capacity_ms);
    out.set("sweep.merge_ms", mean(&|t| t.merge_ms));
    out.set("stats.render_ms", mean(&|t| t.render_ms));
    split(&mut out, &layers, busy_ms * 1e6, n * instructions as f64, n);
    out
}
