//! Differential oracle for the zero-copy session paths.
//!
//! Copy-on-write base adoption
//! ([`CompositionSession::with_shared_base`], [`Composer::compose_shared`])
//! must produce output bit-identical to adopting an eager clone of the
//! base, for every input and every option setting. This module is the
//! shared engine behind that claim — `tests/cow_differential.rs` drives it
//! across the semantics levels and paper ablations, and the `all_pairs`
//! bench binary reuses its corpus generators so the measured workload is
//! the proven one.
//!
//! The oracle composes the same `(base, pushes)` scenario twice:
//!
//! * **reference** — [`CompositionSession::with_prepared_base`]: the base
//!   is cloned up front (model, indexes, key cache), the behaviour of
//!   every release before the COW refactor;
//! * **candidate** — [`CompositionSession::with_shared_base`]: the
//!   copy-on-write path production runs.
//!
//! and asserts the composed model, the decision log, the ID mappings and
//! the collected initial values are equal. Both runs share one
//! [`PreparedModel`], so any divergence is attributable to the COW
//! machinery alone.

use std::sync::Arc;

use sbml_compose::{
    Budget, ComposeOptions, ComposeResult, Composer, CompositionSession, PreparedModel,
    SharedModel,
};
use sbml_model::builder::ModelBuilder;
use sbml_model::Model;

/// How the oracle feeds each push into the session — every entry point a
/// COW session exposes must stay differentially clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushMode {
    /// [`CompositionSession::push`] (raw model; keys computed inline by
    /// the merge passes).
    Raw,
    /// [`CompositionSession::push_prepared`] (precomputed incoming keys,
    /// revalidated by incremental rename under mappings).
    Prepared,
    /// [`CompositionSession::push_guarded`] under an unlimited
    /// [`Budget`] (the daemon's entry point).
    Guarded,
}

/// What one differential run observed about the candidate session.
#[derive(Debug, Clone, Copy)]
pub struct DifferentialOutcome {
    /// Whether the candidate's accumulator still shared the base
    /// [`Arc`] when the session finished (true ⇔ every push was absorbed
    /// without mutating the base — Duplicate-only composition).
    pub base_stayed_shared: bool,
}

/// A deterministic base model with `reactions` reaction motifs (each
/// bringing its species, parameter and rate rule along), plus one of
/// every remaining component kind so all twelve merge passes have work.
pub fn base_model(reactions: usize) -> Model {
    let mut b = ModelBuilder::new("base")
        .compartment("cell", 1.0)
        .compartment_type("ct_main")
        .species_type("st_main")
        .function("f_scale", &["x"], "x * 2")
        .initial_assignment("k_total", "k_0 + 1")
        .constraint("S_0 >= 0", Some("conservation"))
        .event("e_reset", "S_0 > 100", &[("S_0", "0")])
        .parameter("k_total", 0.0);
    for i in 0..reactions.max(1) {
        let s_in = format!("S_{i}");
        let s_out = format!("S_{}", i + 1);
        let k = format!("k_{i}");
        b = b
            .species(&s_in, i as f64 + 1.0)
            .species(&s_out, 0.0)
            .parameter(&k, 0.1 * (i as f64 + 1.0))
            .reaction(&format!("r_{i}"), &[s_in.as_str()], &[s_out.as_str()], &format!("{k} * {s_in}"))
            .rate_rule(&format!("S_{}", i + 1), &format!("{k} * {s_in}"))
    }
    b.build()
}

/// A push that is a pure subset of [`base_model`]: every component is a
/// duplicate, so a COW session absorbs it without materialising anything.
pub fn duplicate_push(slice: usize) -> Model {
    let mut b = ModelBuilder::new("dup").compartment("cell", 1.0);
    for i in 0..slice.max(1) {
        let s_in = format!("S_{i}");
        let s_out = format!("S_{}", i + 1);
        let k = format!("k_{i}");
        b = b
            .species(&s_in, i as f64 + 1.0)
            .species(&s_out, 0.0)
            .parameter(&k, 0.1 * (i as f64 + 1.0))
            .reaction(&format!("r_{i}"), &[s_in.as_str()], &[s_out.as_str()], &format!("{k} * {s_in}"));
    }
    b.build()
}

/// A push overlapping [`base_model`] — some duplicates, some fresh
/// components, one initial-amount conflict — so the merge takes every
/// decision branch and the COW session must materialise.
pub fn overlap_push(seed: usize) -> Model {
    let fresh = format!("X_{seed}");
    let fresh_k = format!("q_{seed}");
    ModelBuilder::new(format!("overlap_{seed}"))
        .compartment("cell", 1.0)
        .species("S_0", 1.0) // duplicate of the base's S_0
        .species("S_1", 42.0 + seed as f64) // initial-amount conflict
        .species(&fresh, seed as f64) // fresh
        .parameter(&fresh_k, 0.5)
        .parameter("k_0", 0.1) // duplicate
        .function("f_scale", &["x"], "x * 2") // duplicate function
        .function(&format!("g_{seed}"), &["y"], "y + 1")
        .reaction(
            &format!("rx_{seed}"),
            &[fresh.as_str()],
            &["S_0"],
            &format!("{fresh_k} * {fresh}"),
        )
        .constraint(&format!("{fresh} >= 0"), None)
        .event(&format!("ev_{seed}"), &format!("{fresh} > 10"), &[(fresh.as_str(), "0")])
        .build()
}

/// A small corpus mixing duplicate-heavy and overlap models, for batch
/// and daemon differential runs.
pub fn corpus(n: usize) -> Vec<Model> {
    (0..n)
        .map(|i| match i % 3 {
            0 => base_model(3 + i),
            1 => duplicate_push(2 + i),
            _ => overlap_push(i),
        })
        .collect()
}

fn run_pushes(
    session: &mut CompositionSession<'_>,
    prepared: &[Arc<PreparedModel>],
    mode: PushMode,
) {
    let budget = Budget::unlimited();
    let meter = budget.start();
    for p in prepared {
        match mode {
            PushMode::Raw => session.push(p.model()),
            PushMode::Prepared => session.push_prepared(p),
            PushMode::Guarded => {
                session.push_guarded(p.model(), Some(&meter)).expect("unlimited budget");
            }
        }
    }
}

/// Run one scenario through the clone oracle and the COW candidate and
/// assert bit-identity of model, log, mappings and initial values.
///
/// `options` is the semantics level or ablation under test; both sides
/// compose under it. Panics with a labelled message on any divergence.
pub fn assert_cow_matches_clone(
    options: &ComposeOptions,
    base: &Model,
    pushes: &[Model],
    mode: PushMode,
) -> DifferentialOutcome {
    let label =
        format!("mode={mode:?} semantics={:?} pushes={}", options.semantics, pushes.len());

    let composer = Composer::new(options.clone());
    let shared_base = Arc::new(composer.prepare(base));
    let prepared_pushes: Vec<Arc<PreparedModel>> =
        pushes.iter().map(|m| Arc::new(composer.prepare(m))).collect();

    let (reference, reference_values) = {
        let mut session = CompositionSession::with_prepared_base(options, &shared_base);
        assert!(!session.is_base_shared(), "the reference must own a clone ({label})");
        run_pushes(&mut session, &prepared_pushes, mode);
        let values = session.current_initial_values();
        (session.finish(), values)
    };

    let mut session = CompositionSession::with_shared_base(options, Arc::clone(&shared_base));
    run_pushes(&mut session, &prepared_pushes, mode);
    let candidate_values = session.current_initial_values();
    let base_stayed_shared = session.is_base_shared();
    let candidate = session.finish_shared();

    if base_stayed_shared {
        assert!(
            matches!(candidate.model, SharedModel::Base(_)),
            "a still-shared session must finish as SharedModel::Base ({label})"
        );
    }
    assert_eq!(
        candidate.model.as_model(),
        &reference.model,
        "composed model diverged ({label})"
    );
    assert_eq!(
        candidate.log.events, reference.log.events,
        "merge log diverged ({label})"
    );
    assert_eq!(candidate.mappings, reference.mappings, "mappings diverged ({label})");
    assert_eq!(
        candidate_values, reference_values,
        "initial values diverged ({label})"
    );
    DifferentialOutcome { base_stayed_shared }
}

/// The reference composition of a raw pair — the session starts from an
/// owned copy of `a`, nothing shared — for callers that need the oracle
/// result itself (e.g. comparing a daemon response).
pub fn reference_compose(options: &ComposeOptions, a: &Model, b: &Model) -> ComposeResult {
    Composer::new(options.clone()).compose(a, b)
}
