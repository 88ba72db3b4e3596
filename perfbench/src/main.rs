//! End-to-end benchmark of the Pythia reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the metric catalogue is read from
//! `BENCHMARK.json` there, and temporary files (trace recordings, the
//! service's store and journal) live under `.perfbench_tmp/` and are
//! removed before exit. The last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! See `perfbench/README.md` for the workloads, metrics and predictions.
//!
//! `--setup-only 1` (with `--workload serve_rw`) only sets the service up
//! once and prints the set-up time and the finished campaign's ETag;
//! `serve_rw` runs its extra set-ups that way, in child processes.

mod campaign;
mod exact;
mod layers;
mod serve;
mod sim;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pythia_stats::json::{parse, Json};

use crate::stats::median;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["sim_pythia", "replay_none", "campaign_ladder", "serve_rw"];

/// How many times each run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Only set up once and print the set-up time (`serve_rw`).
    pub setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            "--setup-only" => &mut setup_only,
            other => return Err(format!("unknown option {other:?}")),
        };
        if slot.replace(value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seed = match seed {
        None => 1,
        Some(s) => s.parse().map_err(|_| format!("bad --seed {s:?}"))?,
    };
    let seconds: f64 = match seconds {
        None => 10.0,
        Some(s) => s.parse().map_err(|_| format!("bad --seconds {s:?}"))?,
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("bad --trace {t:?}; 0 or 1")),
    };
    let setup_only = match setup_only.as_deref() {
        None | Some("0") => false,
        Some("1") if workload == "serve_rw" => true,
        Some("1") => return Err("--setup-only is for serve_rw".into()),
        Some(t) => return Err(format!("bad --setup-only {t:?}; 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        setup_only,
    })
}

/// What one run measured: the op tally and every metric it produced.
#[derive(Default)]
pub struct Outcome {
    /// Ops (and set-up checks) attempted.
    pub attempted: u64,
    /// Ops that failed or whose output check failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one checked op or check; a failed one is reported on
    /// stderr so a run's failures can be read back.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Cuts a run into [`SETUP_REPEATS`] rounds of one set-up followed by an
/// equal slice of the timed phase, so the set-ups are spread over the run
/// like the ops and meet the same host conditions. `timed` runs ops on a
/// set-up until the deadline it is given. Sets `setup_s` to the median
/// set-up time and checks every set-up agrees with the first (`same`).
/// Returns the first set-up and the summed wall time of the slices.
pub fn rounds<S>(
    args: &Args,
    out: &mut Outcome,
    mut set_up: impl FnMut(usize, &mut Outcome) -> S,
    same: impl Fn(&S, &S) -> bool,
    mut timed: impl FnMut(&S, Instant, &mut Outcome),
) -> (S, Duration) {
    let slice = args.seconds / SETUP_REPEATS as u32;
    let mut setup_s = Vec::new();
    let mut wall = Duration::ZERO;
    let mut first: Option<S> = None;
    for i in 0..SETUP_REPEATS {
        let started = Instant::now();
        let set = set_up(i, out);
        setup_s.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        timed(&set, started + slice, out);
        wall += started.elapsed();
        match &first {
            None => first = Some(set),
            Some(f) => out.check(same(f, &set), || {
                format!("set-up {i} disagrees with the first")
            }),
        }
    }
    out.set("setup_s", median(&setup_s));
    (first.expect("at least one round"), wall)
}

/// Temporary directory for one run, removed when dropped.
pub struct RunDir(PathBuf);

impl RunDir {
    fn create(workload: &str) -> Result<Self, String> {
        let dir = Path::new(".perfbench_tmp").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// A fresh subdirectory.
    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        dir
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// Peak resident set size of this process image, in MiB: `VmHWM` from
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` would also count the
/// launcher this process was exec'd from, e.g. `cargo run`.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has VmHWM in kB");
    kib / 1024.0
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(catalogue: &Json, section: &str) -> Result<Vec<(String, String)>, String> {
    let entries = catalogue
        .get(section)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {section:?} list"))?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{section} entry without {k:?}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

fn run(args: &Args) -> Result<String, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let catalogue = parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let end_to_end = declared(&catalogue, "end_to_end")?;
    let per_layer = declared(&catalogue, "per_layer")?;

    eprintln!(
        "host: nproc={} cpu_features={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        pythia_obs::host::cpu_features().join("+")
    );
    let run_dir = RunDir::create(&args.workload)?;
    if args.setup_only {
        return serve::set_up_only(args, &run_dir);
    }
    let outcome = match args.workload.as_str() {
        "sim_pythia" => sim::sim_pythia(args),
        "replay_none" => sim::replay_none(args, &run_dir),
        "campaign_ladder" => campaign::campaign_ladder(args),
        "serve_rw" => serve::serve_rw(args, &run_dir)?,
        _ => unreachable!("workload names are checked by parse_args"),
    };
    drop(run_dir);

    let known: Vec<&str> = end_to_end
        .iter()
        .chain(&per_layer)
        .map(|(n, _)| n.as_str())
        .collect();
    if let Some(stray) = outcome.metrics.keys().find(|k| !known.contains(k)) {
        return Err(format!(
            "metric {stray:?} is not declared in BENCHMARK.json"
        ));
    }
    let wanted = if args.trace { &per_layer } else { &end_to_end };
    let mut metrics = Json::obj();
    for (name, unit) in wanted {
        let value = match outcome.metrics.get(name.as_str()) {
            Some(&v) => v,
            // A layer the workload does not reach did no work in it.
            None if args.trace => 0.0,
            None => return Err(format!("workload produced no {name:?}")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name:?} is not finite ({value})"));
        }
        metrics = metrics.set(
            name,
            Json::obj()
                .set("value", Json::Num(value))
                .set("unit", unit.as_str()),
        );
    }
    Ok(Json::obj()
        .set("correct", outcome.failed == 0)
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set("metrics", metrics)
        .render())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
