//! `serve_rw`: an in-process `pythia-serve` (one worker, one sim thread,
//! a fresh result store and journal) under two tenants on keep-alive
//! connections.
//!
//! * The **writer** is a closed loop without think time. One op submits a
//!   fresh single-trace Pythia spec (a new seed, so a new digest), polls
//!   its status every [`POLL`], and fetches the result.
//! * The **reader** is an open loop, one read due every
//!   [`READ_INTERVAL`], well below capacity. Each read resubmits the
//!   campaign finished during set-up (a cache hit) and fetches its result
//!   conditionally (a 304). Every [`HEAVY_EVERY`]th read also fetches the
//!   full result and scrapes `GET /metrics`; heavy reads are a quarter of
//!   all reads, so p50 and p90 each fall inside one kind of read rather
//!   than on the boundary between them. A read is timed from when it was
//!   due.
//!
//! Reads are almost pure HTTP, store and render; writes also pay for cell
//! execution and the journal fsync.

use std::process::Command;
use std::time::{Duration, Instant};

use pythia_bench::figures::HEADLINE_PREFETCHERS;
use pythia_serve::http::{ClientConn, Reply};
use pythia_serve::server::{ServeConfig, Server};
use pythia_sim::stats::SimReport;
use pythia_stats::json::{parse, Json};
use pythia_sweep::codec::{fnv1a_64, spec_json};
use pythia_sweep::engine::{plan_campaign, run_all, CellJob};
use pythia_sweep::{ConfigPoint, SweepResult, SweepSpec, WorkUnit};
use pythia_workloads::profiles::{derive_seed, Profile};

use crate::exact::{set_end_to_end, set_sim_counts};
use crate::stats::{beyond, median, ms, quantile};
use crate::{Args, Outcome, RunDir, SETUP_REPEATS};

/// Writer status-poll interval.
const POLL: Duration = Duration::from_millis(2);
/// Reader pacing: one read due per interval (5 reads/s), below the
/// slowest read's service time so the reader builds no backlog.
const READ_INTERVAL: Duration = Duration::from_millis(200);
/// One read in this many is heavy.
const HEAVY_EVERY: u64 = 4;
/// The `expected`-profile trace every write simulates, under a new seed.
const WRITE_TRACE: usize = 0;
/// Warmup and measured instructions of every served simulation.
const WARMUP: u64 = 50_000;
const MEASURE: u64 = 200_000;

/// The spec of write `i`: one fresh trace, Pythia against `none`.
fn write_spec(seed: u64, i: u64) -> SweepSpec {
    let trace =
        Profile::Expected.workloads(derive_seed(seed, &format!("write-{i}")))[WRITE_TRACE].clone();
    SweepSpec::new(&format!("write-{i}"))
        .with_units([WorkUnit::single(trace)])
        .with_prefetchers(&["pythia"])
        .with_config(ConfigPoint::single_core("base", WARMUP, MEASURE))
}

/// The reader's campaign: the six `expected` traces under the headline
/// prefetchers.
fn read_spec(seed: u64) -> SweepSpec {
    SweepSpec::new("reads")
        .with_workloads(Profile::Expected.workloads(seed))
        .with_prefetchers(&HEADLINE_PREFETCHERS)
        .with_config(ConfigPoint::single_core("base", WARMUP, MEASURE))
}

fn body(spec: &SweepSpec, tenant: &str) -> Vec<u8> {
    Json::obj()
        .set("spec", spec_json(spec))
        .set("tenant", tenant)
        .render()
        .into_bytes()
}

fn field(reply: &Reply, key: &str) -> Result<Json, String> {
    let text = std::str::from_utf8(&reply.body).map_err(|_| "reply is not utf-8")?;
    parse(text)?
        .get(key)
        .cloned()
        .ok_or_else(|| format!("reply has no {key:?}: {text}"))
}

fn expect(reply: &Reply, status: u16, what: &str) -> Result<(), String> {
    if reply.status == status {
        Ok(())
    } else {
        Err(format!(
            "{what}: HTTP {} (wanted {status}): {}",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ))
    }
}

/// Client-side timings of one write.
struct Write {
    digest: String,
    etag: String,
    total_ms: f64,
    submit_ms: f64,
    status_ms: Vec<f64>,
    result_ms: f64,
    body: Vec<u8>,
}

/// Submits `spec`, polls it to completion, and fetches its JSON result.
fn write(conn: &mut ClientConn, spec: &SweepSpec, tenant: &str) -> Result<Write, String> {
    let started = Instant::now();
    let reply = conn.request("POST", "/campaigns", &body(spec, tenant))?;
    let submit_ms = ms(started.elapsed());
    expect(&reply, 202, "submit of a new campaign")?;
    let digest = field(&reply, "digest")?
        .as_str()
        .ok_or("digest is not a string")?
        .to_string();
    let mut status_ms = Vec::new();
    loop {
        std::thread::sleep(POLL);
        let polled = Instant::now();
        let reply = conn.request("GET", &format!("/campaigns/{digest}"), b"")?;
        status_ms.push(ms(polled.elapsed()));
        expect(&reply, 200, "status")?;
        match field(&reply, "status")?.as_str() {
            Some("done") => break,
            Some("queued" | "running") => {}
            other => return Err(format!("campaign {digest} ended {other:?}")),
        }
    }
    let fetched = Instant::now();
    let reply = conn.request(
        "GET",
        &format!("/campaigns/{digest}/result?format=json"),
        b"",
    )?;
    let result_ms = ms(fetched.elapsed());
    expect(&reply, 200, "result")?;
    let etag = reply
        .header("etag")
        .ok_or("result without an ETag")?
        .to_string();
    Ok(Write {
        digest,
        etag,
        total_ms: ms(started.elapsed()),
        submit_ms,
        status_ms,
        result_ms,
        body: reply.body,
    })
}

/// The finished campaign the reader reads.
struct Finished {
    body: Vec<u8>,
    digest: String,
    etag: String,
}

/// One read: resubmit (must be a cache hit) and conditional fetch (must
/// be a 304); a heavy read also fetches the full result (must be the
/// finished bytes) and scrapes `/metrics`. Returns the `/metrics` time of
/// a heavy read.
fn read(
    conn: &mut ClientConn,
    read_body: &[u8],
    done: &Finished,
    heavy: bool,
) -> Result<Option<f64>, String> {
    let reply = conn.request("POST", "/campaigns", read_body)?;
    expect(&reply, 200, "resubmit")?;
    if field(&reply, "cached")?.as_bool() != Some(true) {
        return Err("resubmission was not a cache hit".into());
    }
    let target = format!("/campaigns/{}/result?format=json", done.digest);
    let reply = conn.request_with("GET", &target, b"", &[("if-none-match", &done.etag)])?;
    expect(&reply, 304, "conditional fetch")?;
    if !heavy {
        return Ok(None);
    }
    let reply = conn.request("GET", &target, b"")?;
    expect(&reply, 200, "full fetch")?;
    if reply.body != done.body {
        return Err("full fetch differs from the finished result".into());
    }
    let started = Instant::now();
    let reply = conn.request("GET", "/metrics", b"")?;
    let metrics_ms = ms(started.elapsed());
    expect(&reply, 200, "metrics")?;
    Ok(Some(metrics_ms))
}

/// A served instance after set-up.
struct Service {
    addr: String,
    read_body: Vec<u8>,
    finished: Finished,
}

fn set_up(seed: u64, dir: std::path::PathBuf) -> Result<Service, String> {
    let config = ServeConfig {
        workers: 1,
        sim_threads: 1,
        cache_dir: Some(dir),
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", &config)?.spawn()?;
    let addr = handle.addr().to_string();
    let mut conn = ClientConn::connect(&addr)?;
    let spec = read_spec(seed);
    let first = write(&mut conn, &spec, "reader")?;
    let read_body = body(&spec, "reader");
    let finished = Finished {
        body: first.body,
        digest: first.digest,
        etag: first.etag,
    };
    // Untimed warm-up: one write, one light and one heavy read.
    write(&mut conn, &write_spec(seed, u64::MAX), "writer")?;
    read(&mut conn, &read_body, &finished, false)?;
    read(&mut conn, &read_body, &finished, true)?;
    Ok(Service {
        addr,
        read_body,
        finished,
    })
}

/// The reader's samples.
#[derive(Default)]
struct Reads {
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    metrics_ms: Vec<f64>,
    attempted: u64,
    errors: Vec<String>,
}

fn reader(service: &Service, deadline: Instant) -> Reads {
    let mut reads = Reads::default();
    let mut conn = match ClientConn::connect(&service.addr) {
        Ok(c) => c,
        Err(e) => {
            reads.attempted = 1;
            reads.errors.push(e);
            return reads;
        }
    };
    let start = Instant::now();
    for k in 0u32.. {
        let due = start + READ_INTERVAL * k;
        if due >= deadline || Instant::now() >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        reads.lag_ms.push(ms(Instant::now().duration_since(due)));
        reads.attempted += 1;
        let heavy = u64::from(k) % HEAVY_EVERY == HEAVY_EVERY - 1;
        match read(&mut conn, &service.read_body, &service.finished, heavy) {
            Ok(metrics_ms) => {
                reads.latency_ms.push(ms(due.elapsed()));
                reads.metrics_ms.extend(metrics_ms);
            }
            Err(e) => reads.errors.push(e),
        }
    }
    reads
}

/// The writer's samples.
#[derive(Default)]
struct Writes {
    ops: Vec<Write>,
    attempted: u64,
    errors: Vec<String>,
}

fn writer(service: &Service, seed: u64, deadline: Instant) -> Writes {
    let mut writes = Writes::default();
    let mut conn = match ClientConn::connect(&service.addr) {
        Ok(c) => c,
        Err(e) => {
            writes.attempted = 1;
            writes.errors.push(e);
            return writes;
        }
    };
    for i in 0u64.. {
        if Instant::now() >= deadline {
            break;
        }
        writes.attempted += 1;
        match write(&mut conn, &write_spec(seed, i), "writer") {
            Ok(w) => writes.ops.push(w),
            Err(e) => writes.errors.push(e),
        }
    }
    writes
}

/// The direct, in-process result a served campaign must equal.
fn direct(spec: &SweepSpec) -> Vec<u8> {
    run_all(&spec.name, std::slice::from_ref(spec), 1)
        .expect("the spec is valid")
        .stripped()
        .to_json()
        .render_pretty()
        .into_bytes()
}

/// FNV-1a digest of a finished campaign's bytes.
fn body_digest(finished: &Finished) -> String {
    format!("{:016x}", fnv1a_64(&finished.body))
}

/// `--setup-only 1`: one set-up, timed; the line to print is the set-up
/// time in seconds and the finished campaign's digest.
pub fn set_up_only(args: &Args, run_dir: &RunDir) -> Result<String, String> {
    let started = Instant::now();
    let service = set_up(args.seed, run_dir.dir("serve"))?;
    let setup_s = started.elapsed().as_secs_f64();
    Ok(format!("{setup_s} {}", body_digest(&service.finished)))
}

/// One set-up in a child process, so this process's peak RSS covers one
/// server (a server cannot be shut down through the API). Returns the
/// child's set-up time and finished-campaign digest.
fn child_set_up(seed: u64) -> Result<(f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = seed.to_string();
    let output = Command::new(exe)
        .args([
            "--workload",
            "serve_rw",
            "--seed",
            &seed,
            "--setup-only",
            "1",
        ])
        .output()
        .map_err(|e| format!("start the set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .last()
        .and_then(|l| l.split_once(' '))
        .and_then(|(s, d)| Some((s.parse().ok()?, d.to_string())));
    match parsed {
        Some(p) if output.status.success() => Ok(p),
        _ => Err(format!(
            "set-up child ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )),
    }
}

/// `serve_rw`.
pub fn serve_rw(args: &Args, run_dir: &RunDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    for _ in 1..SETUP_REPEATS {
        let (secs, digest) = child_set_up(args.seed)?;
        setup_s.push(secs);
        digests.push(digest);
    }
    let started = Instant::now();
    let service = set_up(args.seed, run_dir.dir("serve"))?;
    setup_s.push(started.elapsed().as_secs_f64());
    out.set("setup_s", median(&setup_s));
    let digest = body_digest(&service.finished);
    for earlier in &digests {
        out.check(*earlier == digest, || {
            "set-up repeats served different results".into()
        });
    }

    let started = Instant::now();
    let deadline = started + args.seconds;
    let (writes, reads) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(&service, args.seed, deadline));
        let r = s.spawn(|| reader(&service, deadline));
        (
            w.join().expect("writer thread panicked"),
            r.join().expect("reader thread panicked"),
        )
    });
    let wall = started.elapsed().as_secs_f64();

    // Output checks: every op's own checks, the first write against a
    // direct run, and the finished campaign against a direct run.
    for e in writes.errors.iter().chain(&reads.errors) {
        eprintln!("op failed: {e}");
    }
    out.attempted += writes.attempted + reads.attempted;
    out.failed += (writes.errors.len() + reads.errors.len()) as u64;
    if let Some(first) = writes.ops.first() {
        let expected = direct(&write_spec(args.seed, 0));
        out.check(first.body == expected, || {
            "first write differs from a direct run_all".into()
        });
    }
    let spec = read_spec(args.seed);
    out.check(service.finished.body == direct(&spec), || {
        "served campaign differs from a direct run_all".into()
    });
    if writes.ops.is_empty() || reads.latency_ms.is_empty() {
        return Err("no write or no read completed".into());
    }

    let finished = std::str::from_utf8(&service.finished.body)
        .map_err(|_| "result is not utf-8".to_string())
        .and_then(parse)
        .and_then(|j| SweepResult::from_json(&j))?;
    let ipcs: Vec<f64> = finished.cells.iter().map(|c| c.raw.ipc).collect();
    let pythia: Vec<_> = finished
        .cells
        .iter()
        .filter(|c| c.prefetcher == "pythia")
        .map(|c| c.metrics)
        .collect();
    set_end_to_end(&mut out, &ipcs, &pythia);

    let op_ms: Vec<f64> = writes.ops.iter().map(|w| w.total_ms).collect();
    if !args.trace {
        if beyond(&op_ms, 0.9) < 10 {
            eprintln!("warning: fewer than 10 writes beyond p90; op_p90_ms is thin");
        }
        out.set("ops_per_s", op_ms.len() as f64 / wall);
        out.set("op_p90_ms", quantile(&op_ms, 0.9));
        // Each write simulates its trace twice: `none` and Pythia.
        out.set(
            "sim_minst_per_s",
            (op_ms.len() as u64 * 2 * (WARMUP + MEASURE)) as f64 / wall / 1e6,
        );
        out.set("peak_rss_mb", crate::peak_rss_mb());
        return Ok(out);
    }

    let submit: Vec<f64> = writes.ops.iter().map(|w| w.submit_ms).collect();
    let status: Vec<f64> = writes
        .ops
        .iter()
        .flat_map(|w| w.status_ms.clone())
        .collect();
    let result: Vec<f64> = writes.ops.iter().map(|w| w.result_ms).collect();
    out.set("serve.submit_p50_ms", median(&submit));
    out.set("serve.status_p50_ms", median(&status));
    out.set("serve.result_p50_ms", median(&result));
    out.set("serve.metrics_p50_ms", median(&reads.metrics_ms));
    out.set(
        "serve.polls_per_write",
        status.len() as f64 / writes.ops.len() as f64,
    );
    out.set("serve.read_p50_ms", median(&reads.latency_ms));
    out.set("serve.read_p90_ms", quantile(&reads.latency_ms, 0.9));
    out.set("serve.read_lag_p90_ms", quantile(&reads.lag_ms, 0.9));
    out.set("trace.overhead_share", 0.0);
    // Every completed read received exactly one 304.
    server_side(&mut out, &service, reads.latency_ms.len() as u64)?;

    // The finished campaign's simulations, re-run in-process for their
    // counts; merged, they must give the served bytes.
    let plan = plan_campaign(&spec.name, std::slice::from_ref(&spec))?;
    let reports: Vec<SimReport> = plan.jobs().iter().map(CellJob::run).collect();
    let merged = plan.merge_cells(&reports)?.to_json().render_pretty();
    out.check(merged.as_bytes() == service.finished.body, || {
        "re-simulated campaign differs from the served one".into()
    });
    set_sim_counts(&mut out, &reports.iter().collect::<Vec<_>>());
    Ok(out)
}

/// Server-side layer metrics from one `GET /metrics` scrape.
/// `not_modified` is how many 304s the reader received.
fn server_side(out: &mut Outcome, service: &Service, not_modified: u64) -> Result<(), String> {
    let mut conn = ClientConn::connect(&service.addr)?;
    let reply = conn.request("GET", "/metrics", b"")?;
    expect(&reply, 200, "metrics")?;
    let text = std::str::from_utf8(&reply.body).map_err(|_| "metrics not utf-8")?;
    let m = parse(text)?;
    let num = |path: &[&str]| -> Result<f64, String> {
        let mut j = &m;
        for key in path {
            j = j
                .get(key)
                .ok_or_else(|| format!("/metrics has no {path:?}"))?;
        }
        j.as_f64()
            .ok_or_else(|| format!("/metrics {path:?} is not a number"))
    };
    out.set(
        "serve.queue_wait_p50_ms",
        num(&["latency", "cell_queue_wait_us", "p50"])? / 1e3,
    );
    out.set(
        "serve.cell_exec_p50_ms",
        num(&["latency", "cell_execution_us", "p50"])? / 1e3,
    );
    out.set(
        "serve.fsync_p50_ms",
        num(&["latency", "journal_fsync_us", "p50"])? / 1e3,
    );
    out.set(
        "serve.store_hit_ratio",
        num(&["counters", "cache_hits"])? / num(&["counters", "submitted"])?,
    );
    out.set(
        "serve.not_modified_ratio",
        not_modified as f64 / num(&["latency", "routes_us", "result", "count"])?,
    );
    Ok(())
}
