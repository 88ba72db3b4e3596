//! Simulated (exact) metrics: they repeat bit-for-bit for a seed, so any
//! change that only makes the simulator faster must leave them as they are.

use pythia_sim::stats::SimReport;
use pythia_stats::json::sim_report_wire_json;
use pythia_stats::metrics::{self, geomean, Metrics};
use pythia_sweep::codec::fnv1a_64;

use crate::Outcome;

/// FNV-1a digest of a report's lossless wire form.
pub fn digest(report: &SimReport) -> u64 {
    fnv1a_64(sim_report_wire_json(report).render().as_bytes())
}

/// Appendix A.6 metrics of each `(none, with)` pair of runs of one trace.
pub fn compare_all(none: &[SimReport], with: &[SimReport]) -> Vec<Metrics> {
    none.iter()
        .zip(with)
        .map(|(n, w)| metrics::compare(n, w))
        .collect()
}

/// Sets `sim_ipc` and the `pythia_*` metrics over Pythia's runs:
/// geomean speedup, and mean coverage and overprediction.
///
/// `sim_ipc` is the arithmetic mean of the IPCs of the op's measured runs:
/// a geometric mean would follow the near-zero IPC of a thrashing trace,
/// which moves several-fold from seed to seed.
pub fn set_end_to_end(out: &mut Outcome, ipcs: &[f64], pythia: &[Metrics]) {
    out.set("sim_ipc", ipcs.iter().sum::<f64>() / ipcs.len() as f64);
    let n = pythia.len() as f64;
    let speedups: Vec<f64> = pythia.iter().map(|m| m.speedup).collect();
    out.set("pythia_speedup", geomean(&speedups));
    out.set(
        "pythia_coverage",
        pythia.iter().map(|m| m.coverage).sum::<f64>() / n,
    );
    out.set(
        "pythia_overprediction",
        pythia.iter().map(|m| m.overprediction).sum::<f64>() / n,
    );
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Sets the `sim.*` counts, summed over `reports` (one op's simulations)
/// and normalised per kilo-instruction or as ratios.
pub fn set_sim_counts(out: &mut Outcome, reports: &[&SimReport]) {
    let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    let instructions = sum(&|r| r.cores.iter().map(|c| c.instructions).sum());
    let pki = |n: u64| ratio(n * 1000, instructions);
    let l1d = sum(&|r| r.l1d.iter().map(|c| c.demand_misses()).sum());
    let l2 = sum(&|r| r.l2.iter().map(|c| c.demand_misses()).sum());
    let llc = sum(&|r| r.llc.demand_misses());
    let stall = sum(&|r| {
        r.l1d
            .iter()
            .chain(&r.l2)
            .chain(std::iter::once(&r.llc))
            .map(|c| c.mshr_stall_cycles)
            .sum()
    });
    let useful_late = |r: &SimReport| {
        r.l2.iter()
            .chain(std::iter::once(&r.llc))
            .fold((0, 0), |(u, l), c| {
                (u + c.useful_prefetches, l + c.late_prefetch_hits)
            })
    };
    let useful = sum(&|r| useful_late(r).0);
    let late = sum(&|r| useful_late(r).1);
    let issued = sum(&|r| r.prefetchers.iter().map(|p| p.issued).sum());
    let pf_useful = sum(&|r| r.prefetchers.iter().map(|p| p.useful).sum());
    let high_bw = sum(&|r| r.dram.bw_bucket_windows[2] + r.dram.bw_bucket_windows[3]);
    let windows = sum(&|r| r.dram.bw_bucket_windows.iter().sum());
    let row_hits = sum(&|r| r.dram.row_hits);
    let row_misses = sum(&|r| r.dram.row_misses);

    out.set("sim.l1d_mpki", pki(l1d));
    out.set("sim.l2_mpki", pki(l2));
    out.set("sim.llc_mpki", pki(llc));
    out.set("sim.mshr_stall_cpi", ratio(stall, instructions));
    out.set("sim.dram_reads_pki", pki(sum(&|r| r.dram.total_reads())));
    out.set(
        "sim.dram_row_hit_ratio",
        ratio(row_hits, row_hits + row_misses),
    );
    out.set("sim.pf_issued_pki", pki(issued));
    out.set("sim.pf_useful_ratio", ratio(pf_useful, issued));
    out.set("sim.pf_late_ratio", ratio(late, useful));
    out.set("sim.high_bw_fraction", ratio(high_bw, windows));
}
