//! The two single-simulation workloads.
//!
//! * `sim_pythia`: one op is one single-core `runner::run_sources` of one
//!   streamed `expected`-profile trace with Pythia, cycling through the
//!   profile's six traces. The paper's regime, and the only workload where
//!   the agent does much work.
//! * `replay_none`: the six `adversarial` traces are recorded to files
//!   during set-up; one op replays one file with no prefetcher. Bypasses
//!   both trace generation and the agent, and is miss-heavy.
//!
//! Both run on one thread. Op times differ from trace to trace, so a
//! percentile over the mixed ops would sit on the boundary between two
//! traces and jump with a single op; `op_p90_ms` is instead the geometric
//! mean over the six traces of each trace's own 90th percentile.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pythia::runner::{run_sources, run_sources_with, RunSpec};
use pythia_sim::stats::SimReport;
use pythia_sim::trace::{FileTraceSource, TraceSource, TraceWriter};
use pythia_stats::metrics::geomean;
use pythia_workloads::profiles::Profile;
use pythia_workloads::Workload;

use crate::exact::{compare_all, digest, set_end_to_end, set_sim_counts};
use crate::layers::{Layers, SourceLayer, TimedPrefetcher, TimedSource};
use crate::stats::{beyond, median, ms, quantile};
use crate::{rounds, Args, Outcome, RunDir};

/// Where one op's trace comes from.
#[derive(Clone)]
enum Input {
    /// Streamed from a generator.
    Stream(Workload),
    /// Replayed from a recorded file.
    File(PathBuf),
}

/// One sim workload after set-up: its inputs, the prefetcher under test,
/// and the reference report each trace must reproduce.
struct SimSet {
    inputs: Vec<Input>,
    prefetcher: &'static str,
    spec: RunSpec,
    references: Vec<SimReport>,
}

impl SimSet {
    /// Runs trace `t` through the untraced public path.
    fn op(&self, t: usize) -> SimReport {
        match &self.inputs[t] {
            Input::Stream(w) => run_sources(
                vec![w.source(self.spec.trace_len())],
                self.prefetcher,
                &self.spec,
            ),
            Input::File(path) => run_sources(vec![open(path)], self.prefetcher, &self.spec),
        }
    }

    /// Runs trace `t` with every layer boundary timed into `layers`.
    fn traced_op(&self, t: usize, layers: &Arc<Layers>) -> SimReport {
        let source = match &self.inputs[t] {
            Input::Stream(w) => TimedSource::boxed(
                w.source(self.spec.trace_len()),
                SourceLayer::TraceGen,
                layers,
            ),
            Input::File(path) => {
                // `open` validates the whole file in one decode pass.
                let started = Instant::now();
                let file = FileTraceSource::open(path)
                    .unwrap_or_else(|e| panic!("replay {}: {e}", path.display()));
                layers.add_decode(started.elapsed(), file.len());
                TimedSource::boxed(Box::new(file), SourceLayer::Decode, layers)
            }
        };
        let name = self.prefetcher;
        run_sources_with(vec![source], &self.spec, |core| {
            TimedPrefetcher::build(name, core, layers)
        })
    }

    fn instructions_per_op(&self) -> u64 {
        self.spec.warmup + self.spec.measure
    }
}

fn open(path: &PathBuf) -> Box<dyn TraceSource> {
    Box::new(
        FileTraceSource::open(path).unwrap_or_else(|e| panic!("replay {}: {e}", path.display())),
    )
}

/// Records `w`'s first `len` records to `path`.
fn record(w: &Workload, len: usize, path: &PathBuf) {
    let mut writer =
        TraceWriter::create(path).unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
    let mut source = w.source(len);
    while let Some(r) = source.next_record() {
        writer
            .write_record(&r)
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    writer
        .finish()
        .unwrap_or_else(|e| panic!("finish {}: {e}", path.display()));
}

/// Whether two set-ups produced the same reference reports.
fn same_references(a: &SimSet, b: &SimSet) -> bool {
    a.references.len() == b.references.len()
        && a.references
            .iter()
            .zip(&b.references)
            .all(|(x, y)| digest(x) == digest(y))
}

/// `sim_pythia`.
pub fn sim_pythia(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let spec = RunSpec::single_core();
    let mut samples = Samples::default();
    let ((set, baselines), wall) = rounds(
        args,
        &mut out,
        |_, _| {
            let traces = Profile::Expected.workloads(args.seed);
            // The `none` run each trace's Pythia metrics compare against.
            let baselines: Vec<SimReport> = traces
                .iter()
                .map(|w| run_sources(vec![w.source(spec.trace_len())], "none", &spec))
                .collect();
            let mut set = SimSet {
                inputs: traces.into_iter().map(Input::Stream).collect(),
                prefetcher: "pythia",
                spec,
                references: Vec::new(),
            };
            // Untimed warm-up pass, which also yields the reference reports.
            set.references = (0..set.inputs.len()).map(|t| set.op(t)).collect();
            (set, baselines)
        },
        |(a, _), (b, _)| same_references(a, b),
        |(set, _), deadline, out| samples.slice(args, set, deadline, out),
    );
    samples.finish(args, &set, wall, &mut out);
    let measured: Vec<&SimReport> = set.references.iter().collect();
    set_end_to_end(
        &mut out,
        &ipcs(&measured),
        &compare_all(&baselines, &set.references),
    );
    set_sim_counts(&mut out, &measured);
    out
}

/// `replay_none`.
pub fn replay_none(args: &Args, run_dir: &RunDir) -> Outcome {
    let mut out = Outcome::default();
    // Half `sim_pythia`'s budget: a replay costs about twice as much per
    // instruction, and a run must hold 100 ops per trace for `op_p90_ms`.
    let spec = RunSpec::single_core().with_budget(25_000, 100_000);
    let mut samples = Samples::default();
    let (set, wall) = rounds(
        args,
        &mut out,
        |i, out| {
            let dir = run_dir.dir(&format!("traces-{i}"));
            let traces = Profile::Adversarial.workloads(args.seed);
            let mut set = SimSet {
                inputs: Vec::new(),
                prefetcher: "none",
                spec,
                references: Vec::new(),
            };
            for (t, w) in traces.iter().enumerate() {
                let path = dir.join(format!("{t}.trace"));
                record(w, spec.trace_len(), &path);
                set.inputs.push(Input::File(path));
                // Replaying the recording must reproduce the streamed run;
                // the replay doubles as the untimed warm-up op.
                let streamed = run_sources(vec![w.source(spec.trace_len())], "none", &spec);
                let replayed = set.op(t);
                out.check(digest(&streamed) == digest(&replayed), || {
                    format!("{}: file replay differs from the streamed run", w.name)
                });
                set.references.push(replayed);
            }
            set
        },
        same_references,
        |set, deadline, out| samples.slice(args, set, deadline, out),
    );
    samples.finish(args, &set, wall, &mut out);
    // How Pythia fares on the same recordings, run after the timed phase
    // so this workload's host time never includes the agent.
    let pythia = SimSet {
        inputs: set.inputs.clone(),
        prefetcher: "pythia",
        spec,
        references: Vec::new(),
    };
    let with: Vec<SimReport> = (0..pythia.inputs.len()).map(|t| pythia.op(t)).collect();
    let measured: Vec<&SimReport> = set.references.iter().collect();
    set_end_to_end(
        &mut out,
        &ipcs(&measured),
        &compare_all(&set.references, &with),
    );
    set_sim_counts(&mut out, &measured);
    out
}

fn ipcs(reports: &[&SimReport]) -> Vec<f64> {
    reports.iter().map(|r| r.geomean_ipc()).collect()
}

/// Op times (per trace) and layer tallies gathered over a run's timed
/// slices.
#[derive(Default)]
struct Samples {
    plain: Vec<Vec<f64>>,
    traced: Vec<Vec<f64>>,
    layers: Arc<Layers>,
    ops: u64,
}

impl Samples {
    /// One timed slice: whole cycles over the traces until `deadline`.
    /// Untraced, every op is timed; traced, each trace alternates an
    /// untraced and a traced op so the tracing overhead is measured under
    /// the same host conditions.
    fn slice(&mut self, args: &Args, set: &SimSet, deadline: Instant, out: &mut Outcome) {
        let n = set.inputs.len();
        self.plain.resize(n, Vec::new());
        self.traced.resize(n, Vec::new());
        let references: Vec<u64> = set.references.iter().map(digest).collect();
        while Instant::now() < deadline {
            for (t, &reference) in references.iter().enumerate() {
                let op_started = Instant::now();
                let report = set.op(t);
                self.plain[t].push(ms(op_started.elapsed()));
                self.ops += 1;
                out.check(digest(&report) == reference, || {
                    format!("trace {t}: op report differs from the reference")
                });
                if args.trace {
                    let op_started = Instant::now();
                    let report = set.traced_op(t, &self.layers);
                    self.traced[t].push(ms(op_started.elapsed()));
                    out.check(digest(&report) == reference, || {
                        format!("trace {t}: traced report differs from the untraced one")
                    });
                }
            }
        }
    }

    /// Sets the host-time metrics (untraced) or the layer split (traced)
    /// over `wall`, the summed time of the slices.
    fn finish(&self, args: &Args, set: &SimSet, wall: Duration, out: &mut Outcome) {
        if args.trace {
            set_layers(out, set, &self.plain, &self.traced, &self.layers);
        } else {
            set_host_metrics(out, set, &self.plain, self.ops, wall);
        }
    }
}

fn set_host_metrics(out: &mut Outcome, set: &SimSet, plain: &[Vec<f64>], ops: u64, wall: Duration) {
    let thin = plain.iter().map(|s| beyond(s, 0.9)).min().unwrap_or(0);
    if thin < 10 {
        eprintln!("warning: only {thin} samples beyond p90 for some trace; op_p90_ms is thin");
    }
    let secs = wall.as_secs_f64();
    out.set("ops_per_s", ops as f64 / secs);
    let p90: Vec<f64> = plain.iter().map(|s| quantile(s, 0.9)).collect();
    out.set("op_p90_ms", geomean(&p90));
    out.set(
        "sim_minst_per_s",
        (ops * set.instructions_per_op()) as f64 / secs / 1e6,
    );
    out.set("peak_rss_mb", crate::peak_rss_mb());
}

fn set_layers(
    out: &mut Outcome,
    set: &SimSet,
    plain: &[Vec<f64>],
    traced: &[Vec<f64>],
    layers: &Layers,
) {
    let ratios: Vec<f64> = plain
        .iter()
        .zip(traced)
        .map(|(p, t)| median(t) / median(p))
        .collect();
    out.set("trace.overhead_share", geomean(&ratios) - 1.0);
    let ops = traced.iter().map(Vec::len).sum::<usize>() as f64;
    let total_ns = traced.iter().flatten().sum::<f64>() * 1e6;
    split(
        out,
        layers,
        total_ns,
        ops * set.instructions_per_op() as f64,
        ops,
    );
}

/// Sets the layer shares of `total_ns` of simulation time (the sum of the
/// timed simulations) and the per-unit costs. `System`'s self time is
/// what the timed children leave.
pub fn split(out: &mut Outcome, layers: &Layers, total_ns: f64, instructions: f64, ops: f64) {
    let get = |c: &std::sync::atomic::AtomicU64| Layers::get(c) as f64;
    let per = |ns: f64, n: f64| if n > 0.0 { ns / n } else { 0.0 };
    let tracegen = get(&layers.tracegen_ns);
    let decode = get(&layers.decode_ns);
    let pythia = get(&layers.pythia_ns);
    let registry = get(&layers.registry_ns);
    let system = total_ns - tracegen - decode - pythia - registry;
    out.set("workloads.tracegen_share", tracegen / total_ns);
    out.set(
        "workloads.tracegen_ns_per_record",
        per(tracegen, get(&layers.tracegen_records)),
    );
    out.set("sim.decode_share", decode / total_ns);
    out.set(
        "sim.decode_ns_per_record",
        per(decode, get(&layers.decode_records)),
    );
    out.set("sim.system_share", system / total_ns);
    out.set("sim.system_ns_per_inst", per(system, instructions));
    out.set("core.pythia_share", pythia / total_ns);
    out.set(
        "core.pythia_ns_per_demand",
        per(pythia, get(&layers.pythia_demands)),
    );
    out.set("core.pythia_calls", per(get(&layers.pythia_demands), ops));
    out.set("prefetchers.share", registry / total_ns);
    out.set(
        "prefetchers.ns_per_demand",
        per(registry, get(&layers.registry_demands)),
    );
}
