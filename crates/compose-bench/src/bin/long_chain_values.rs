//! Long-chain initial-value maintenance: incremental store vs per-push
//! re-collect, one layer in isolation.
//!
//! A [`CompositionSession`] keeps the accumulator's evaluated initial
//! values (the paper's §3 collection step) in an [`IncrementalValues`]
//! store: seeded once, then each push re-evaluates only its dependency
//! closure. The reference is [`collect`] over the whole accumulator before
//! every push — O(n) per push, so an n-model chain pays O(n²) evaluation
//! work on value-heavy corpora.
//!
//! This binary composes chains of value-heavy models (many parameters and
//! chained initial assignments) once, untimed, recording the accumulator
//! after every push together with the [`ValueDelta`] that push appended.
//! It then checks `snapshot() == collect` at every step and times the two
//! value layers over the recorded accumulators:
//!
//! * **re-collect** — one [`collect`] per push;
//! * **incremental** — [`IncrementalValues::seed`] on the first
//!   accumulator plus one [`IncrementalValues::absorb`] per later push.
//!
//! Writes `BENCH_values.json` at the workspace root; `ci.sh` gates the
//! length-128 speedup at ≥ 2x.
//!
//! Run with: `cargo run --release -p compose-bench --bin long_chain_values`
//!
//! [`CompositionSession`]: sbml_compose::session::CompositionSession

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use compose_bench::time_median;
use sbml_compose::initial_values::{collect, IncrementalValues, ValueDelta};
use sbml_compose::{ComposeOptions, CompositionSession};
use sbml_model::builder::ModelBuilder;
use sbml_model::Model;

const CHAIN_LENGTHS: [usize; 4] = [2, 8, 32, 128];

/// Parameters + chained initial assignments per chain model.
const VALUES_PER_MODEL: usize = 24;

/// Workspace root (grandparent of this crate's manifest dir).
fn workspace_root() -> PathBuf {
    option_env!("CARGO_MANIFEST_DIR")
        .map(Path::new)
        .and_then(|p| p.parent())
        .and_then(|p| p.parent())
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Model `i` of the chain: a couple of shared species link neighbours
/// (so merging does real matching work), and `VALUES_PER_MODEL`
/// parameters with chained initial assignments make value collection the
/// dominant per-push cost — each model's assignment chain starts from its
/// own seed parameter, so the accumulator's assignment count grows
/// linearly with chain length.
fn value_heavy_model(i: usize) -> Model {
    let mut b = ModelBuilder::new(format!("m{i}"))
        .compartment("cell", 1.0)
        .species(&format!("S{i}"), i as f64)
        .species(&format!("S{}", i + 1), 0.0)
        .parameter(&format!("seed{i}"), 1.0 + i as f64)
        .reaction(
            &format!("r{i}"),
            &[format!("S{i}").as_str()],
            &[format!("S{}", i + 1).as_str()],
            &format!("seed{i}*S{i}"),
        );
    for j in 0..VALUES_PER_MODEL {
        let id = format!("p{i}_{j}");
        b = b.parameter(&id, 0.0);
        let previous = if j == 0 { format!("seed{i}") } else { format!("p{i}_{}", j - 1) };
        b = b.initial_assignment(&id, &format!("{previous} * 1.0625 + {j}"));
    }
    b.build()
}

struct Row {
    length: usize,
    recollect_seconds: f64,
    incremental_seconds: f64,
    assignments: usize,
}

/// The component-list lengths of `m`: the delta a push appending to `m`
/// hands the value store.
fn delta_of(m: &Model) -> ValueDelta {
    ValueDelta {
        functions: m.function_definitions.len(),
        compartments: m.compartments.len(),
        species: m.species.len(),
        parameters: m.parameters.len(),
        initial_assignments: m.initial_assignments.len(),
    }
}

/// Compose `chain` through one session, recording the accumulator after
/// every push and the delta each push after the first appended.
fn record(chain: &[Model]) -> (Vec<Model>, Vec<ValueDelta>) {
    let options = ComposeOptions::default();
    let mut session = CompositionSession::new(&options);
    let mut accumulators: Vec<Model> = Vec::with_capacity(chain.len());
    let mut deltas = Vec::with_capacity(chain.len());
    for m in chain {
        if let Some(previous) = accumulators.last() {
            deltas.push(delta_of(previous));
        }
        session.push(m);
        accumulators.push(session.model().clone());
    }
    (accumulators, deltas)
}

/// Seed on the first accumulator, absorb every later push; returns the
/// final store.
fn incremental(accumulators: &[Model], deltas: &[ValueDelta]) -> IncrementalValues {
    let mut store = IncrementalValues::seed(&accumulators[0]);
    for (acc, delta) in accumulators[1..].iter().zip(deltas) {
        store.absorb(acc, delta);
    }
    store
}

fn main() {
    println!("long-chain initial values — per-push re-collect vs incremental store");
    println!(
        "{:>7} {:>16} {:>16} {:>9} {:>12}",
        "length", "re-collect (s)", "incremental (s)", "speedup", "assignments"
    );

    let mut rows = Vec::new();
    for length in CHAIN_LENGTHS {
        let chain: Vec<Model> = (0..length).map(value_heavy_model).collect();
        let runs = if length >= 32 { 3 } else { 5 };
        let (accumulators, deltas) = record(&chain);

        // The store must equal a fresh collect after every push before
        // anything is timed.
        let mut store = IncrementalValues::seed(&accumulators[0]);
        assert_eq!(store.snapshot(), collect(&accumulators[0]), "seed at length {length}");
        for (k, (acc, delta)) in accumulators[1..].iter().zip(&deltas).enumerate() {
            store.absorb(acc, delta);
            assert_eq!(store.snapshot(), collect(acc), "push {} at length {length}", k + 1);
        }

        let recollect_seconds = time_median(runs, || {
            for acc in &accumulators {
                std::hint::black_box(collect(acc));
            }
        });
        let incremental_seconds = time_median(runs, || {
            std::hint::black_box(incremental(&accumulators, &deltas));
        });

        let row = Row {
            length,
            recollect_seconds,
            incremental_seconds,
            assignments: accumulators.last().map_or(0, |m| m.initial_assignments.len()),
        };
        println!(
            "{:>7} {:>16.6} {:>16.6} {:>8.2}x {:>12}",
            row.length,
            row.recollect_seconds,
            row.incremental_seconds,
            row.recollect_seconds / row.incremental_seconds.max(1e-12),
            row.assignments,
        );
        rows.push(row);
    }

    let last = rows.last().expect("at least one chain length");
    let final_speedup = last.recollect_seconds / last.incremental_seconds.max(1e-12);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        compose_bench::host_parallelism()
    ));
    // Single-threaded measurement; recorded for cross-machine comparability.
    json.push_str("  \"threads\": 1,\n");
    json.push_str("  \"benchmark\": \"long_chain_values\",\n");
    json.push_str("  \"corpus\": \"deterministic value-heavy chain models (24 chained initial assignments each)\",\n");
    json.push_str("  \"engines\": {\n");
    json.push_str("    \"recollect\": \"initial_values::collect over each recorded accumulator (one per push)\",\n");
    json.push_str("    \"incremental\": \"IncrementalValues::seed on the first accumulator, then one absorb per push re-evaluating only its dependency closure\"\n");
    json.push_str("  },\n");
    json.push_str("  \"chains\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"length\": {}, \"recollect_seconds\": {:.6}, \"incremental_seconds\": {:.6}, \"speedup\": {:.2}, \"merged_initial_assignments\": {} }}{}\n",
            row.length,
            row.recollect_seconds,
            row.incremental_seconds,
            row.recollect_seconds / row.incremental_seconds.max(1e-12),
            row.assignments,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_incremental_values_at_length_{}\": {:.2}\n",
        last.length, final_speedup
    ));
    json.push_str("}\n");

    let path = workspace_root().join("BENCH_values.json");
    let mut out = fs::File::create(&path).expect("create BENCH_values.json");
    out.write_all(json.as_bytes()).expect("write BENCH_values.json");
    println!("\nwrote {}", path.display());
    println!(
        "length-{} chain: incremental initial values are {final_speedup:.2}x faster than per-push re-collect",
        last.length
    );
}
