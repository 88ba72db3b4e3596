//! Golden-report pins for every figure-registry campaign.
//!
//! Each registered figure runs at a tiny `PYTHIA_BENCH_SCALE` and the
//! digest of its rendered result JSON (throughput telemetry stripped) is
//! compared against a checked-in golden value. Any change to the hot
//! paths — cache layout, QVStore storage, EQ indexing, trace decode —
//! that perturbs even one counter of one cell shows up as a digest
//! mismatch here, so performance rewrites cannot silently change results.
//!
//! The digests pin IEEE float arithmetic on the x86-64 CI target; when a
//! figure's definition (or an intentional semantic change) moves them,
//! regenerate with:
//!
//! ```text
//! PYTHIA_GOLDEN_PRINT=1 cargo test -q --test golden_reports -- --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

use pythia_stats::json::Json;

/// Scale every figure runs at (budgets floor at 1 K warmup + 4 K measured
/// instructions per cell).
const SCALE: &str = "0.01";

/// Worker threads per figure: the engine's output is pinned byte-identical
/// for any thread count, so this only affects wall time.
const THREADS: usize = 4;

/// `(figure id, FNV-1a-64 digest of the stripped result JSON)`.
///
/// Re-goldened for the workload-generator bugfixes (and extended with the
/// `robust01`–`robust03` campaigns): the `DeltaChain` page-crossing fix
/// (the delta index no longer resets, so every `cactusADM`/`leslie3d`-style
/// chain emits a different stream), the `SpatialFootprint` mid-visit noise
/// fix (`sphinx3`/`canneal`/`facesim` deviating visits now perturb region
/// learning), and the `Phased` phase-accounting fix (phases now last
/// `phase_len` memory records instead of ~10×, moving `server-2`) each
/// change trace content, so every figure containing an affected workload
/// moved. Only fig14 and fig15 — pure-Ligra figures built solely on
/// `IrregularGraph` — kept their previous digests, which is exactly the
/// expected blast radius.
const GOLDEN: &[(&str, u64)] = &[
    ("fig01", 0x26d1d2bb768e9506),
    ("fig07", 0x5c4d3cd503be1a0a),
    ("fig08a", 0x47548df7ded3cac5),
    ("fig08b", 0x96584179d85380fb),
    ("fig08c", 0x53f86327eaf143e7),
    ("fig08d", 0x4ef027f623392632),
    ("fig09", 0x74f59f61f05013eb),
    ("fig10", 0x5d3414014e66f389),
    ("fig11", 0xcddd16b054dd210f),
    ("fig12", 0xd6e4f0ffecb06a06),
    ("fig14", 0x29da07107a0d2523),
    ("fig15", 0x258d9e8a365538bd),
    ("fig16", 0xe082db9d532fe449),
    ("fig17", 0xb16375583367dfcc),
    ("fig20", 0x0b5e5a8e3e2d5203),
    ("fig21", 0xd00de047a1561e49),
    ("fig22", 0x18d317f855295ca5),
    ("fig23", 0x386858539920840d),
    ("tab02", 0x7c5a87744c549402),
    ("ablation", 0x2a21bc9250e2f281),
    ("robust01", 0xda77ba76528232c6),
    ("robust02", 0x8e5ff91c116aae72),
    ("robust03", 0xdf31b053c6c12441),
];

/// FNV-1a 64-bit — the same digest the content-addressed campaign cache
/// uses, re-exported so the two cannot drift.
use pythia_sweep::codec::fnv1a_64 as fnv1a;

/// Drops the wall-clock throughput telemetry, the only nondeterministic
/// part of a sweep artifact.
fn strip_throughput(json: Json) -> Json {
    match json {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "throughput")
                .collect(),
        ),
        other => other,
    }
}

#[test]
fn every_figure_registry_entry_pins_its_report_digest() {
    // One test, one process: the scale variable is process-global and the
    // figure budgets read it when specs are built.
    std::env::set_var("PYTHIA_BENCH_SCALE", SCALE);

    let print_mode = std::env::var("PYTHIA_GOLDEN_PRINT").is_ok();
    let mut computed = Vec::new();
    let mut mismatches = Vec::new();
    for def in pythia_bench::figures::registry() {
        let specs = (def.build)();
        let result =
            pythia_sweep::engine::run_all(def.id, &specs, THREADS).expect("figure runs clean");
        let tables = (def.tables)(&result);
        assert!(
            tables.lines().any(|l| l.starts_with("| ---")),
            "{}: paper tables render no markdown table:\n{tables}",
            def.id
        );
        let digest = fnv1a(strip_throughput(result.to_json()).render().as_bytes());
        computed.push((def.id, digest));
        match GOLDEN.iter().find(|(id, _)| *id == def.id) {
            Some(&(_, expected)) if expected == digest => {}
            Some(&(_, expected)) => mismatches.push(format!(
                "{}: digest {digest:#018x} != pinned {expected:#018x}",
                def.id
            )),
            None => mismatches.push(format!("{}: no pinned digest for this figure", def.id)),
        }
    }
    // Retired figures must drop their pins too.
    for (id, _) in GOLDEN {
        if !computed.iter().any(|(cid, _)| cid == id) {
            mismatches.push(format!("{id}: pinned digest for an unregistered figure"));
        }
    }

    if print_mode {
        println!("const GOLDEN: &[(&str, u64)] = &[");
        for (id, digest) in &computed {
            println!("    ({id:?}, {digest:#018x}),");
        }
        println!("];");
        return;
    }
    assert!(
        mismatches.is_empty(),
        "golden report digests changed — if intentional, regenerate with \
         PYTHIA_GOLDEN_PRINT=1 cargo test --test golden_reports -- --nocapture\n{}",
        mismatches.join("\n")
    );
}
