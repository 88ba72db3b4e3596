//! Outside-in tracing: adapters that time calls into one layer from the
//! benchmark's side of a public trait, without touching library code.
//!
//! * [`TimedSource`] wraps any `TraceSource` and times the batches the
//!   simulator pulls from it: trace generation for streamed traces,
//!   decode for file replay.
//! * [`TimedPrefetcher`] wraps any `Prefetcher` and times every hook the
//!   simulator calls, booking Pythia and the registry prefetchers apart.
//!
//! Both add into one shared [`Layers`] tally. A simulation's self time
//! (`System` minus its children) is the op time minus these parts, so the
//! split adds up to the op time by construction; the cost of the clocks
//! themselves lands in that self time and is reported separately as the
//! traced-minus-untraced op time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pythia::runner::build_prefetcher;
use pythia_sim::prefetch::{
    AgentProbe, DemandAccess, FillEvent, PrefetchRequest, Prefetcher, SystemFeedback,
};
use pythia_sim::stats::PrefetcherStats;
use pythia_sim::trace::{TraceRecord, TraceSource};

/// Seed `runner::run_sources` gives the prefetcher of core `core`; the
/// traced factory must build the same prefetcher for reports to match.
fn runner_seed(core: usize) -> u64 {
    0x517e_a5e5 ^ core as u64
}

/// Nanoseconds and call counts for each timed layer. Shared by the
/// adapters of one simulation (or of every cell of a campaign, across
/// worker threads), hence atomics.
#[derive(Debug, Default)]
pub struct Layers {
    /// Time inside streamed trace generation.
    pub tracegen_ns: AtomicU64,
    /// Records produced by streamed trace generation.
    pub tracegen_records: AtomicU64,
    /// Time inside trace-file decode.
    pub decode_ns: AtomicU64,
    /// Records decoded from trace files.
    pub decode_records: AtomicU64,
    /// Time inside Pythia's hooks.
    pub pythia_ns: AtomicU64,
    /// Demand accesses handed to Pythia.
    pub pythia_demands: AtomicU64,
    /// Time inside the registry prefetchers' hooks.
    pub registry_ns: AtomicU64,
    /// Demand accesses handed to registry prefetchers.
    pub registry_demands: AtomicU64,
}

impl Layers {
    fn add(counter: &AtomicU64, value: u64) {
        counter.fetch_add(value, Ordering::Relaxed);
    }

    /// Books decode work done outside the simulator's pulls (the
    /// validation pass of `FileTraceSource::open`).
    pub fn add_decode(&self, elapsed: std::time::Duration, records: u64) {
        Self::add(&self.decode_ns, elapsed.as_nanos() as u64);
        Self::add(&self.decode_records, records);
    }

    /// Reads one counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Which layer a [`TimedSource`] books its time to.
#[derive(Debug, Clone, Copy)]
pub enum SourceLayer {
    /// A streamed generator (`Workload::source`).
    TraceGen,
    /// A trace file (`FileTraceSource`).
    Decode,
}

/// A `TraceSource` that times every batch it hands the simulator.
pub struct TimedSource {
    inner: Box<dyn TraceSource>,
    layer: SourceLayer,
    layers: Arc<Layers>,
}

impl TimedSource {
    /// Wraps `inner`, booking its time to `layer`.
    pub fn boxed(
        inner: Box<dyn TraceSource>,
        layer: SourceLayer,
        layers: &Arc<Layers>,
    ) -> Box<dyn TraceSource> {
        Box::new(Self {
            inner,
            layer,
            layers: Arc::clone(layers),
        })
    }

    fn book(&self, started: Instant, records: usize) {
        let ns = started.elapsed().as_nanos() as u64;
        let (time, count) = match self.layer {
            SourceLayer::TraceGen => (&self.layers.tracegen_ns, &self.layers.tracegen_records),
            SourceLayer::Decode => (&self.layers.decode_ns, &self.layers.decode_records),
        };
        Layers::add(time, ns);
        Layers::add(count, records as u64);
    }
}

impl TraceSource for TimedSource {
    fn next_record(&mut self) -> Option<TraceRecord> {
        let started = Instant::now();
        let record = self.inner.next_record();
        self.book(started, usize::from(record.is_some()));
        record
    }

    fn reset(&mut self) {
        let started = Instant::now();
        self.inner.reset();
        self.book(started, 0);
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn next_batch(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        let started = Instant::now();
        let n = self.inner.next_batch(out, max);
        self.book(started, n);
        n
    }
}

/// A `Prefetcher` that times every hook the simulator calls.
pub struct TimedPrefetcher {
    inner: Box<dyn Prefetcher>,
    is_pythia: bool,
    layers: Arc<Layers>,
}

impl TimedPrefetcher {
    /// Builds prefetcher `name` exactly as `runner::run_sources` would for
    /// `core`, wrapped. `none` does no work and is returned bare, so its
    /// (empty) calls are not charged the cost of a clock read.
    ///
    /// # Panics
    ///
    /// Panics on a name `runner::build_prefetcher` does not know; the
    /// benchmark only names registered prefetchers.
    pub fn build(name: &str, core: usize, layers: &Arc<Layers>) -> Box<dyn Prefetcher> {
        let inner = build_prefetcher(name, runner_seed(core))
            .unwrap_or_else(|| panic!("unknown prefetcher {name:?}"));
        if name == "none" {
            return inner;
        }
        Box::new(Self {
            inner,
            is_pythia: name == "pythia",
            layers: Arc::clone(layers),
        })
    }

    fn book(&self, started: Instant, demands: u64) {
        let ns = started.elapsed().as_nanos() as u64;
        let (time, count) = if self.is_pythia {
            (&self.layers.pythia_ns, &self.layers.pythia_demands)
        } else {
            (&self.layers.registry_ns, &self.layers.registry_demands)
        };
        Layers::add(time, ns);
        if demands > 0 {
            Layers::add(count, demands);
        }
    }
}

impl Prefetcher for TimedPrefetcher {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_demand_into(
        &mut self,
        access: &DemandAccess,
        feedback: &SystemFeedback,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let started = Instant::now();
        self.inner.on_demand_into(access, feedback, out);
        self.book(started, 1);
    }

    fn on_fill(&mut self, event: &FillEvent) {
        let started = Instant::now();
        self.inner.on_fill(event);
        self.book(started, 0);
    }

    fn on_useful(&mut self, line: u64) {
        let started = Instant::now();
        self.inner.on_useful(line);
        self.book(started, 0);
    }

    fn on_useful_batch(&mut self, lines: &[u64]) {
        let started = Instant::now();
        self.inner.on_useful_batch(lines);
        self.book(started, 0);
    }

    fn on_useless(&mut self, line: u64) {
        let started = Instant::now();
        self.inner.on_useless(line);
        self.book(started, 0);
    }

    fn stats(&self) -> PrefetcherStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn telemetry_probe(&self) -> Option<AgentProbe> {
        self.inner.telemetry_probe()
    }
}
