//! Conflict-heavy key revalidation: incremental rename of cached canonical
//! patterns vs full re-canonicalisation, one layer in isolation.
//!
//! The workload is [`biomodels_corpus::corpus_conflict`]: every push
//! renames every shared parameter (value conflicts) and maps every alias
//! species by name, so almost every formula of the incoming model
//! references a mapped id and its cached content key must be revalidated
//! under the push's mappings. A merge pass does that one of two ways:
//!
//! * **full re-key** — [`Pattern::of_mapped`]: re-canonicalise the
//!   formula from its AST under the mapping table (what light and none
//!   semantics, and every raw push, still do);
//! * **incremental rename** — [`Pattern::rename_mapped`] on the cached
//!   [`Pattern::of`] text: rewrite the touched identifier leaves and
//!   re-sort only the dirty commutative groups (what a heavy-semantics
//!   prepared push does).
//!
//! For every corpus pair `(i, j)` the mapping table is that pair's
//! `compose_prepared(..).mappings`, and the formulas are every kinetic
//! law, rule, constraint, event and function body of model `j` that
//! references a mapped id. The cached patterns are built before timing,
//! as a preparation builds them once per model. Both paths are asserted
//! byte-identical on every formula before anything is timed. Writes
//! `BENCH_pipeline.json` at the workspace root; `ci.sh` gates
//! `speedup_incremental_rename` at ≥ 1.5x.
//!
//! Run with: `cargo run --release -p compose-bench --bin pipeline_conflict`

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use biomodels_corpus::corpus_conflict;
use compose_bench::{host_parallelism, time_median_interleaved};
use sbml_compose::{ComposeOptions, Composer};
use sbml_math::pattern::Pattern;
use sbml_math::rewrite::collect_identifiers;
use sbml_math::MathExpr;
use sbml_model::Model;

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

/// Every formula of `m` whose canonical pattern can depend on id mappings.
fn formulas(m: &Model) -> Vec<MathExpr> {
    let mut out = Vec::new();
    out.extend(m.function_definitions.iter().map(|f| f.as_lambda()));
    out.extend(m.rules.iter().map(|r| r.math().clone()));
    out.extend(m.constraints.iter().map(|c| c.math.clone()));
    out.extend(m.reactions.iter().filter_map(|r| r.kinetic_law.as_ref()).map(|kl| kl.math.clone()));
    for ev in &m.events {
        out.push(ev.trigger.clone());
        out.extend(ev.delay.clone());
        out.extend(ev.assignments.iter().map(|a| a.math.clone()));
    }
    out
}

/// One corpus pair: the mapping table and the touched formulas with their
/// cached (unmapped) patterns.
struct PairWork {
    mappings: HashMap<String, String>,
    touched: Vec<(MathExpr, Pattern)>,
}

fn full_rekey(work: &[PairWork]) -> usize {
    let mut bytes = 0;
    for pair in work {
        for (expr, _) in &pair.touched {
            bytes += Pattern::of_mapped(expr, &pair.mappings).as_str().len();
        }
    }
    bytes
}

fn incremental_rename(work: &[PairWork]) -> usize {
    let mut bytes = 0;
    for pair in work {
        for (_, cached) in &pair.touched {
            bytes += cached.rename_mapped(&pair.mappings).as_str().len();
        }
    }
    bytes
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let models = corpus_conflict(if quick { 5 } else { MODELS });
    let n = models.len();

    let composer = Composer::new(ComposeOptions::default());
    let prepared: Vec<_> = models.iter().map(|m| composer.prepare(m)).collect();
    let model_formulas: Vec<Vec<MathExpr>> = models.iter().map(formulas).collect();

    let mut work = Vec::new();
    let mut total = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let mappings = composer.compose_prepared(&prepared[i], &prepared[j]).mappings;
            let touched: Vec<(MathExpr, Pattern)> = model_formulas[j]
                .iter()
                .filter(|e| collect_identifiers(e).iter().any(|id| mappings.contains_key(id)))
                .map(|e| (e.clone(), Pattern::of(e)))
                .collect();
            // Byte identity before any timing.
            for (expr, cached) in &touched {
                assert_eq!(
                    *cached.rename_mapped(&mappings),
                    Pattern::of_mapped(expr, &mappings),
                    "rename diverged from re-canonicalisation in pair ({i},{j})"
                );
            }
            total += model_formulas[j].len();
            work.push(PairWork { mappings, touched });
        }
    }
    let touched: usize = work.iter().map(|p| p.touched.len()).sum();
    assert_eq!(full_rekey(&work), incremental_rename(&work));

    let host_parallelism = host_parallelism();
    println!(
        "conflict corpus: {n} models, {} pairs, {touched} touched formulas of {total}; host parallelism {host_parallelism}",
        work.len()
    );

    let runs = if quick { 3 } else { 9 };
    let (rekey_seconds, rename_seconds) = time_median_interleaved(
        runs,
        || {
            std::hint::black_box(full_rekey(&work));
        },
        || {
            std::hint::black_box(incremental_rename(&work));
        },
    );
    let speedup = rekey_seconds / rename_seconds.max(1e-12);
    println!(
        "full re-key {rekey_seconds:.4}s  incremental rename {rename_seconds:.4}s  speedup {speedup:.2}x"
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
    json.push_str(&format!("  \"pairs\": {},\n", work.len()));
    json.push_str(&format!("  \"touched_formulas\": {touched},\n"));
    json.push_str("  \"engines\": {\n");
    json.push_str(
        "    \"full_rekey\": \"Pattern::of_mapped: every touched formula re-canonicalised from its AST under the pair's mappings\",\n",
    );
    json.push_str(
        "    \"incremental_rename\": \"Pattern::rename_mapped on the cached Pattern::of text: touched leaves rewritten, dirty commutative groups re-sorted\"\n",
    );
    json.push_str("  },\n");
    json.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    json.push_str("  \"threads\": 1,\n");
    json.push_str(&format!("  \"full_rekey_seconds\": {rekey_seconds:.6},\n"));
    json.push_str(&format!("  \"incremental_rename_seconds\": {rename_seconds:.6},\n"));
    json.push_str(&format!("  \"speedup_incremental_rename\": {speedup:.2}\n"));
    json.push_str("}\n");

    let path = workspace_root().join("BENCH_pipeline.json");
    let mut out = fs::File::create(&path).expect("create BENCH_pipeline.json");
    out.write_all(json.as_bytes()).expect("write BENCH_pipeline.json");
    println!("wrote {}", path.display());
}
