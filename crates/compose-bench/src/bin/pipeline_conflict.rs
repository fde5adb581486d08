//! Conflict-heavy composition: incremental mapped-key renaming vs full
//! re-keying, both on the serial Fig. 4 merge passes.
//!
//! The workload is [`biomodels_corpus::corpus_conflict`]: every push
//! renames every shared parameter (value conflicts) and maps every alias
//! species by name, so the in-flight mapping table is hot from the
//! species pass onwards and **every** math-bearing component must
//! revalidate its cached content key under live mappings. That isolates
//! the one cost incremental renaming removes:
//!
//! * the **full re-key** engine (`incremental_key_rename=false`) rebuilds
//!   each dirty key by full re-canonicalisation of the formula;
//! * the **incremental rename** engine (the default) revalidates dirty
//!   keys by renaming the cached canonical text (O(touched leaves), dirty
//!   commutative groups only).
//!
//! The gated metric is the **chain** composition of the whole corpus
//! (one `compose_many_prepared` session — the shape where per-push merge
//! cost, not per-pair base adoption, dominates); the all-pairs sweep is
//! reported alongside. Both engines share one prepared corpus (the
//! key-rename knob is fingerprint-neutral) and are asserted bit-for-bit
//! identical before any timing. Writes `BENCH_pipeline.json` at the
//! workspace root with the `host_parallelism` it ran under (every push is
//! serial, so it does not enter the ratio); `ci.sh` gates the chain
//! speedup at ≥ 1.5x.
//!
//! Run with: `cargo run --release -p compose-bench --bin pipeline_conflict`

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use biomodels_corpus::corpus_conflict;
use compose_bench::{host_parallelism, time_median};
use sbml_compose::{compose_many_prepared, ComposeOptions, Composer, PreparedModel};

/// Models in the conflict corpus.
const MODELS: usize = 12;

fn workspace_root() -> PathBuf {
    option_env!("CARGO_MANIFEST_DIR")
        .map(Path::new)
        .and_then(|p| p.parent())
        .and_then(|p| p.parent())
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn chain(composer: &Composer, prepared: &[Arc<PreparedModel>]) -> usize {
    compose_many_prepared(composer, prepared.iter().map(Arc::as_ref)).model.species.len()
}

fn pairs(composer: &Composer, prepared: &[Arc<PreparedModel>]) -> usize {
    let mut acc = 0usize;
    for i in 0..prepared.len() {
        for j in (i + 1)..prepared.len() {
            acc += composer.compose_prepared(&prepared[i], &prepared[j]).model.species.len();
        }
    }
    acc
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let models = corpus_conflict(if quick { 5 } else { MODELS });
    let n = models.len();

    // Shared analysis fingerprint: the two engines differ only in the
    // key-rename knob, so one prepared corpus serves both.
    let rekey_options = ComposeOptions::default().with_incremental_key_rename(false);
    let rename_options = ComposeOptions::default();
    assert_eq!(rekey_options.fingerprint(), rename_options.fingerprint());

    let rekey = Composer::new(rekey_options);
    let rename = Composer::new(rename_options);
    let prepared: Vec<Arc<PreparedModel>> =
        models.iter().map(|m| Arc::new(rename.prepare(m))).collect();

    // Bit-for-bit identity before any timing: the full chain and a few
    // representative pairs.
    {
        let a = compose_many_prepared(&rekey, prepared.iter().map(Arc::as_ref));
        let b = compose_many_prepared(&rename, prepared.iter().map(Arc::as_ref));
        assert_eq!(a.model, b.model, "chain model diverged");
        assert_eq!(a.log.events, b.log.events, "chain log diverged");
        assert_eq!(a.mappings, b.mappings, "chain mappings diverged");
        for (i, j) in [(0usize, 1usize), (0, n - 1), (n / 2, n / 2 + 1)] {
            let a = rekey.compose_prepared(&prepared[i], &prepared[j]);
            let b = rename.compose_prepared(&prepared[i], &prepared[j]);
            assert_eq!(a.model, b.model, "pair ({i},{j}) diverged");
            assert_eq!(a.log.events, b.log.events, "pair ({i},{j}) log diverged");
            assert_eq!(a.mappings, b.mappings, "pair ({i},{j}) mappings diverged");
        }
    }

    let host_parallelism = host_parallelism();
    println!(
        "conflict corpus: {n} models, {} keyed components each; host parallelism {host_parallelism}",
        models[0].species.len()
            + models[0].reactions.len()
            + models[0].rules.len()
            + models[0].constraints.len()
            + models[0].events.len()
            + models[0].function_definitions.len()
            + models[0].compartments.len(),
    );

    let runs = if quick { 3 } else { 5 };
    let chain_rekey = time_median(runs, || {
        std::hint::black_box(chain(&rekey, &prepared));
    });
    let chain_rename = time_median(runs, || {
        std::hint::black_box(chain(&rename, &prepared));
    });
    let chain_speedup = chain_rekey / chain_rename.max(1e-12);
    println!(
        "chain ({n} pushes):   full re-key {chain_rekey:.4}s  incremental rename {chain_rename:.4}s  speedup {chain_speedup:.2}x"
    );

    let pair_runs = if quick { 1 } else { 3 };
    let pairs_rekey = time_median(pair_runs, || {
        std::hint::black_box(pairs(&rekey, &prepared));
    });
    let pairs_rename = time_median(pair_runs, || {
        std::hint::black_box(pairs(&rename, &prepared));
    });
    let pairs_speedup = pairs_rekey / pairs_rename.max(1e-12);
    println!(
        "all-pairs ({} pairs): full re-key {pairs_rekey:.4}s  incremental rename {pairs_rename:.4}s  speedup {pairs_speedup:.2}x",
        n * (n - 1) / 2
    );

    if quick {
        println!("(--quick run: BENCH_pipeline.json not written)");
        return;
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"pipeline_conflict\",\n");
    json.push_str(
        "  \"corpus\": \"biomodels_corpus::corpus_conflict (deterministic; every push renames every shared parameter and maps every alias species by name)\",\n",
    );
    json.push_str(&format!("  \"models\": {n},\n"));
    json.push_str("  \"engines\": {\n");
    json.push_str(
        "    \"full_rekey\": \"incremental_key_rename=false: serial Fig. 4 passes, dirty cached keys rebuilt by full re-canonicalisation\",\n",
    );
    json.push_str(
        "    \"incremental_rename\": \"default options: serial Fig. 4 passes, dirty cached keys revalidated by incremental rename of canonical text (dirty commutative groups only)\"\n",
    );
    json.push_str("  },\n");
    json.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    json.push_str(&format!("  \"chain_full_rekey_seconds\": {chain_rekey:.6},\n"));
    json.push_str(&format!("  \"chain_incremental_rename_seconds\": {chain_rename:.6},\n"));
    json.push_str(&format!("  \"pairs_full_rekey_seconds\": {pairs_rekey:.6},\n"));
    json.push_str(&format!("  \"pairs_incremental_rename_seconds\": {pairs_rename:.6},\n"));
    json.push_str(&format!("  \"speedup_pairs\": {pairs_speedup:.2},\n"));
    json.push_str(&format!("  \"speedup_incremental_rename\": {chain_speedup:.2}\n"));
    json.push_str("}\n");

    let path = workspace_root().join("BENCH_pipeline.json");
    let mut out = fs::File::create(&path).expect("create BENCH_pipeline.json");
    out.write_all(json.as_bytes()).expect("write BENCH_pipeline.json");
    println!("wrote {}", path.display());
}
