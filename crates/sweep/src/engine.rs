//! Grid expansion and parallel execution.
//!
//! There is one expansion ([`plan_campaign`]), one row assembly
//! ([`CampaignPlan`]'s merge) and one executor behind [`run`],
//! [`run_cached`] and [`run_all`]; `pythia-serve` schedules the same
//! planned [`CellJob`]s cell by cell.
//!
//! Jobs carry *lazy* trace-source factories: a job closure owns only the
//! (cheap) workload specs and opens streaming [`TraceSource`]s inside the
//! worker, so neither the queue nor any worker ever holds a materialized
//! trace and per-job peak memory is independent of trace length.

use pythia::runner::{build_pythia_with, run_parallel, run_sources, run_sources_with};
use pythia_sim::stats::{SimReport, Throughput};
use pythia_sim::trace::TraceSource;
use pythia_stats::metrics;

use crate::result::{CellResult, RawSummary, SweepResult};
use crate::spec::{ConfigPoint, PrefetcherKind, SweepSpec, WorkUnit};

/// Memoizes baseline simulations across campaigns.
///
/// Within one campaign [`plan_campaign`] already shares baselines between
/// panels; across campaigns the §4.3 DSE procedures call the engine once
/// per objective evaluation with the same workload cross-section every
/// time, and [`run_cached`] serves those repeats from here. Keys cover
/// everything that determines a baseline run — workload specs, system
/// config, budgets, seed offset and the baseline prefetcher — so a hit is
/// bit-identical to a fresh simulation (simulations are deterministic).
#[derive(Debug, Default)]
pub struct BaselineCache {
    map: std::collections::HashMap<String, SimReport>,
}

impl BaselineCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized baseline reports.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn key(unit: &WorkUnit, kind: &PrefetcherKind, config: &ConfigPoint, seed: u64) -> String {
        format!(
            "{:?}|{kind:?}|{:?}|{}|{}|{seed}",
            unit.workloads.iter().map(|w| &w.spec).collect::<Vec<_>>(),
            config.system,
            config.warmup,
            config.measure
        )
    }
}

/// Runs one simulation for a grid coordinate, streaming every trace.
fn simulate(unit: &WorkUnit, kind: &PrefetcherKind, config: &ConfigPoint, seed: u64) -> SimReport {
    let spec = config.run_spec();
    let len = (config.warmup + config.measure) as usize;
    let sources: Vec<Box<dyn TraceSource>> = unit
        .workloads
        .iter()
        .map(|w| {
            let mut w = w.clone();
            w.spec.seed = w.spec.seed.wrapping_add(seed);
            w.source(len)
        })
        .collect();
    match kind {
        PrefetcherKind::Named(name) => run_sources(sources, name, &spec),
        PrefetcherKind::Pythia(cfg) => {
            let cfg = cfg.clone();
            run_sources_with(sources, &spec, move |_core| build_pythia_with(cfg.clone()))
        }
    }
}

/// Executes a sweep across `threads` worker threads and returns its typed
/// result: the single-panel campaign `run_all(&spec.name, [spec])`.
///
/// Every simulation in the grid — baselines included — is an independent
/// job on the shared [`run_parallel`] pool; results come back in grid order
/// regardless of scheduling, so the output is byte-identical for any thread
/// count (including 1).
///
/// # Errors
///
/// Returns the first [`SweepSpec::validate`] error; never fails after
/// validation passes.
pub fn run(spec: &SweepSpec, threads: usize) -> Result<SweepResult, String> {
    run_all(&spec.name, std::slice::from_ref(spec), threads)
}

/// [`run`] with a [`BaselineCache`]: baseline coordinates already in the
/// cache are served from memory instead of re-simulated, and fresh
/// baseline reports are inserted for later campaigns. Results are
/// bit-identical to an uncached [`run`].
///
/// # Errors
///
/// Returns the first [`SweepSpec::validate`] error.
pub fn run_cached(
    spec: &SweepSpec,
    threads: usize,
    cache: &mut BaselineCache,
) -> Result<SweepResult, String> {
    execute(
        &plan_campaign(&spec.name, std::slice::from_ref(spec))?,
        threads,
        cache,
    )
}

/// Runs several sweeps (e.g. the panels of one figure) and merges them
/// under `name`.
///
/// The whole campaign — every panel's baselines and cells, as planned by
/// [`plan_campaign`] — fans out over `threads` workers as one batch of
/// independent cell jobs, and [`CampaignPlan::merge_cells`] reassembles
/// the result in grid order. Panels with overlapping (units × configs ×
/// seeds) share baseline jobs: Fig. 9's two panels cover the same
/// 50-workload pool, for example.
///
/// # Errors
///
/// Returns the first validation error among the specs.
pub fn run_all(name: &str, specs: &[SweepSpec], threads: usize) -> Result<SweepResult, String> {
    execute(
        &plan_campaign(name, specs)?,
        threads,
        &mut BaselineCache::new(),
    )
}

/// The one executor behind [`run`], [`run_cached`] and [`run_all`]:
/// serves baseline jobs found in `cache`, runs every other job of the
/// plan on the [`run_parallel`] pool, records the fresh baselines in
/// `cache`, and merges the reports. The throughput telemetry counts the
/// executed jobs only (cache hits cost no wall time).
fn execute(
    plan: &CampaignPlan,
    threads: usize,
    cache: &mut BaselineCache,
) -> Result<SweepResult, String> {
    let mut slots: Vec<Option<SimReport>> = plan
        .jobs
        .iter()
        .map(|j| {
            j.baseline_key
                .as_ref()
                .and_then(|k| cache.map.get(k).cloned())
        })
        .collect();
    let pending: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_none()).collect();
    let jobs: Vec<Box<dyn FnOnce() -> SimReport + Send>> = pending
        .iter()
        .map(|&i| {
            let j = plan.jobs[i].clone();
            Box::new(move || j.run()) as Box<dyn FnOnce() -> SimReport + Send>
        })
        .collect();
    let instructions = pending.iter().map(|&i| plan.jobs[i].instructions).sum();
    let started = std::time::Instant::now();
    let reports = run_parallel(jobs, threads.max(1));
    let throughput = Throughput::new(instructions, started.elapsed().as_secs_f64());
    for (i, report) in pending.into_iter().zip(reports) {
        slots[i] = Some(report);
    }
    let reports: Vec<SimReport> = slots
        .into_iter()
        .map(|s| s.expect("every job is cached or executed"))
        .collect();
    let mut out = plan.merge_cells(&reports)?;
    out.throughput = Some(throughput);
    for (job, report) in plan.jobs.iter().zip(reports) {
        if let Some(key) = &job.baseline_key {
            cache.map.entry(key.clone()).or_insert(report);
        }
    }
    Ok(out)
}

/// Coordinates of one schedulable simulation inside a planned campaign:
/// the panel it was planned under and its position within that panel's
/// deterministic expansion (baseline jobs first, then measured cells in
/// grid order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// Index of the panel ([`SweepSpec`]) this job was planned under. A
    /// baseline shared by several panels belongs to the first panel that
    /// needed it.
    pub panel: usize,
    /// Position within the panel's expansion.
    pub index: usize,
}

/// One independent simulation of a planned campaign — the unit a
/// cell-granular scheduler hands to a worker.
///
/// The job owns (cheap) clones of its grid coordinates; traces are opened
/// lazily inside [`CellJob::run`], so holding a plan never holds a
/// materialized trace.
#[derive(Debug, Clone)]
pub struct CellJob {
    /// Where this job sits in the campaign.
    pub id: CellId,
    /// Instructions this job simulates across all cores (warmup +
    /// measure), for throughput telemetry and progress accounting.
    pub instructions: u64,
    unit: WorkUnit,
    kind: PrefetcherKind,
    config: ConfigPoint,
    seed: u64,
    /// The [`BaselineCache`] key of a baseline job (`None` for a measured
    /// cell), so the executor can serve the job from the cache.
    baseline_key: Option<String>,
}

impl CellJob {
    /// Runs the simulation. Deterministic: the same job always produces a
    /// byte-identical report, on any thread, in any process.
    pub fn run(&self) -> SimReport {
        simulate(&self.unit, &self.kind, &self.config, self.seed)
    }
}

/// One panel's share of a [`CampaignPlan`]: the spec plus the mapping
/// from its rows back to flat job indices.
#[derive(Debug)]
struct PanelPlan {
    spec: SweepSpec,
    /// Flat job index of each baseline report, in (unit, config, seed)
    /// expansion order. May point into an earlier panel when the baseline
    /// coordinate is shared.
    baseline_sources: Vec<usize>,
    /// Flat index of this panel's first measured cell; the panel's
    /// `spec.cell_count()` cells are contiguous from here.
    cells_start: usize,
}

/// A campaign expanded into an ordered set of independent [`CellJob`]s
/// plus the bookkeeping to reassemble their reports into a
/// [`SweepResult`] byte-identical to [`run_all`]'s.
///
/// The flat job order is panel-major with each panel's baselines planned
/// before its cells, and baselines deduplicated across panels (first
/// panel wins), so a job's baseline always precedes it. Executing the
/// jobs in *any* order and merging is equivalent to [`run_all`].
#[derive(Debug)]
pub struct CampaignPlan {
    name: String,
    jobs: Vec<CellJob>,
    panels: Vec<PanelPlan>,
}

/// Expands a campaign (panels of one figure) into a [`CampaignPlan`] —
/// the engine's one grid expansion.
///
/// Per panel in order: baseline jobs first (one per unit × config × seed
/// coordinate not already planned by an earlier panel), then every
/// measured cell in grid order (unit-major, then config, then
/// prefetcher, then seed).
///
/// # Errors
///
/// Returns the first [`SweepSpec::validate`] error among the panels.
pub fn plan_campaign(name: &str, specs: &[SweepSpec]) -> Result<CampaignPlan, String> {
    let mut jobs: Vec<CellJob> = Vec::new();
    let mut panels: Vec<PanelPlan> = Vec::with_capacity(specs.len());
    let mut planned_baselines: std::collections::HashMap<String, usize> =
        std::collections::HashMap::new();
    for (pi, spec) in specs.iter().enumerate() {
        spec.validate()?;
        let mut within = 0usize;
        let mut baseline_sources =
            Vec::with_capacity(spec.units.len() * spec.configs.len() * spec.seeds.len());
        for u in &spec.units {
            for cp in &spec.configs {
                for &seed in &spec.seeds {
                    let key = BaselineCache::key(u, &spec.baseline.kind, cp, seed);
                    let source = *planned_baselines.entry(key.clone()).or_insert_with(|| {
                        let flat = jobs.len();
                        jobs.push(CellJob {
                            id: CellId {
                                panel: pi,
                                index: within,
                            },
                            instructions: (cp.warmup + cp.measure) * u.cores() as u64,
                            unit: u.clone(),
                            kind: spec.baseline.kind.clone(),
                            config: cp.clone(),
                            seed,
                            baseline_key: Some(key),
                        });
                        within += 1;
                        flat
                    });
                    baseline_sources.push(source);
                }
            }
        }
        let cells_start = jobs.len();
        for u in &spec.units {
            for cp in &spec.configs {
                for p in &spec.prefetchers {
                    for &seed in &spec.seeds {
                        jobs.push(CellJob {
                            id: CellId {
                                panel: pi,
                                index: within,
                            },
                            instructions: (cp.warmup + cp.measure) * u.cores() as u64,
                            unit: u.clone(),
                            kind: p.kind.clone(),
                            config: cp.clone(),
                            seed,
                            baseline_key: None,
                        });
                        within += 1;
                    }
                }
            }
        }
        panels.push(PanelPlan {
            spec: spec.clone(),
            baseline_sources,
            cells_start,
        });
    }
    Ok(CampaignPlan {
        name: name.to_string(),
        jobs,
        panels,
    })
}

impl CampaignPlan {
    /// The campaign name the merged result will carry.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The planned jobs, in flat (panel-major, baselines-first) order.
    pub fn jobs(&self) -> &[CellJob] {
        &self.jobs
    }

    /// Number of planned jobs (baselines + cells, after dedup).
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Total instructions the plan simulates, for throughput telemetry.
    pub fn planned_instructions(&self) -> u64 {
        self.jobs.iter().map(|j| j.instructions).sum()
    }

    /// Reassembles a complete set of cell reports — `reports[i]` from
    /// `jobs()[i]`, executed in any order, by any worker — into the
    /// [`SweepResult`] [`run_all`] produces, minus the
    /// wall-clock telemetry (i.e. byte-identical to its
    /// [`SweepResult::stripped`] form).
    ///
    /// # Errors
    ///
    /// Returns an error when `reports.len() != job_count()`.
    pub fn merge_cells(&self, reports: &[SimReport]) -> Result<SweepResult, String> {
        if reports.len() != self.jobs.len() {
            return Err(format!(
                "campaign {:?}: {} report(s) for {} planned job(s)",
                self.name,
                reports.len(),
                self.jobs.len()
            ));
        }
        let slots: Vec<Option<&SimReport>> = reports.iter().map(Some).collect();
        Ok(self.assemble(&slots))
    }

    /// Merges the completed prefix of a partially executed campaign:
    /// `slots[i]` holds `jobs()[i]`'s report once that job has finished.
    ///
    /// Rows are emitted in final order and stop at the first row whose
    /// report (or whose baseline's report) is still missing — per array,
    /// so every partial's `baselines` and `cells` are exact prefixes of
    /// the complete result's arrays, and a fully populated `slots`
    /// reproduces [`CampaignPlan::merge_cells`] byte-identically.
    ///
    /// # Errors
    ///
    /// Returns an error when `slots.len() != job_count()`.
    pub fn merge_prefix(&self, slots: &[Option<SimReport>]) -> Result<SweepResult, String> {
        if slots.len() != self.jobs.len() {
            return Err(format!(
                "campaign {:?}: {} slot(s) for {} planned job(s)",
                self.name,
                slots.len(),
                self.jobs.len()
            ));
        }
        let refs: Vec<Option<&SimReport>> = slots.iter().map(Option::as_ref).collect();
        Ok(self.assemble(&refs))
    }

    /// Builds the result rows available from the given report slots,
    /// truncating each row array at its first not-yet-computable row.
    fn assemble(&self, slots: &[Option<&SimReport>]) -> SweepResult {
        let mut baselines = Vec::new();
        let mut cells = Vec::new();
        let mut more_baselines = true;
        let mut more_cells = true;
        for panel in &self.panels {
            let spec = &panel.spec;
            let baseline_index = |ui: usize, ci: usize, si: usize| {
                (ui * spec.configs.len() + ci) * spec.seeds.len() + si
            };
            'baselines: for (ui, u) in spec.units.iter().enumerate() {
                for (ci, cp) in spec.configs.iter().enumerate() {
                    for (si, &seed) in spec.seeds.iter().enumerate() {
                        if !more_baselines {
                            break 'baselines;
                        }
                        let Some(report) =
                            slots[panel.baseline_sources[baseline_index(ui, ci, si)]]
                        else {
                            more_baselines = false;
                            break 'baselines;
                        };
                        baselines.push(CellResult {
                            sweep: spec.name.clone(),
                            unit: u.label.clone(),
                            group: u.group.clone(),
                            prefetcher: spec.baseline.label.clone(),
                            config: cp.label.clone(),
                            seed,
                            metrics: metrics::compare(report, report),
                            raw: RawSummary::of(report),
                        });
                    }
                }
            }
            let mut flat = panel.cells_start;
            'cells: for (ui, u) in spec.units.iter().enumerate() {
                for (ci, cp) in spec.configs.iter().enumerate() {
                    for p in &spec.prefetchers {
                        for (si, &seed) in spec.seeds.iter().enumerate() {
                            if !more_cells {
                                break 'cells;
                            }
                            let baseline =
                                slots[panel.baseline_sources[baseline_index(ui, ci, si)]];
                            let (Some(baseline), Some(report)) = (baseline, slots[flat]) else {
                                more_cells = false;
                                break 'cells;
                            };
                            flat += 1;
                            cells.push(CellResult {
                                sweep: spec.name.clone(),
                                unit: u.label.clone(),
                                group: u.group.clone(),
                                prefetcher: p.label.clone(),
                                config: cp.label.clone(),
                                seed,
                                metrics: metrics::compare(baseline, report),
                                raw: RawSummary::of(report),
                            });
                        }
                    }
                }
            }
        }
        SweepResult {
            name: self.name.clone(),
            baselines,
            cells,
            throughput: None,
        }
    }
}
