//! The composition engine: paper Fig. 4 (pipeline) + Fig. 5 (generic merge).
//!
//! For every component kind, each component of the second model is looked
//! up in the first model's indexes:
//!
//! 1. **by id** — a hit means the models both claim that identifier. If the
//!    contents agree (under mappings, synonyms, math patterns, units) the
//!    component is a *duplicate* and merged silently; if they disagree, the
//!    first model wins and a *conflict* is logged (paper §3: "the software
//!    then includes the first component in the model and writes a warning
//!    to a log file"). Parameters are the exception: conflicting parameters
//!    are both kept, the incoming one renamed (paper §3: "all parameters in
//!    the original models have to be included in the composed model").
//! 2. **by content key** — a hit under a different id means the same entity
//!    travelled under two names; an **ID mapping** `b → a` is recorded and
//!    applied to all later comparisons and to every inserted reference
//!    (paper Fig. 5: "S2 := S1 (rename); add mapping").
//! 3. otherwise the component is **inserted**, renamed first if its id is
//!    already taken by an unrelated component.
//!
//! The merge passes themselves live in [`crate::session`]:
//! [`Composer::compose`] is a thin wrapper over a one-shot
//! [`CompositionSession`], and [`compose_many`] /
//! [`compose_many_owned`] run the whole chain through a single session so
//! the accumulator is never cloned and its indexes are never rebuilt.

use std::collections::HashMap;
use std::sync::Arc;

use sbml_model::Model;

use crate::log::MergeLog;
use crate::options::ComposeOptions;
use crate::prepared::PreparedModel;
use crate::session::CompositionSession;

/// The outcome of one composition.
#[derive(Debug, Clone)]
pub struct ComposeResult {
    /// The composed model (first model's id retained, per Fig. 5 line 25).
    pub model: Model,
    /// Decision log (duplicates, mappings, renames, conflicts).
    pub log: MergeLog,
    /// Final ID mappings: second-model id → composed-model id, for every
    /// component that was matched or renamed.
    pub mappings: HashMap<String, String>,
}

/// A composed model that may still *be* the adopted base: the zero-copy
/// outcome of [`Composer::compose_shared`] /
/// [`CompositionSession::finish_shared`].
#[derive(Debug, Clone)]
pub enum SharedModel {
    /// At least one push changed the accumulator; this is the
    /// materialised result.
    Owned(Model),
    /// Every push was absorbed without touching the base (Duplicate-only
    /// composition): the result is the base itself, no bytes copied.
    Base(Arc<PreparedModel>),
}

impl SharedModel {
    /// The composed model, by reference — uniform over both outcomes.
    pub fn as_model(&self) -> &Model {
        match self {
            SharedModel::Owned(m) => m,
            SharedModel::Base(p) => p.model(),
        }
    }

    /// The composed model by value, cloning only in the [`SharedModel::Base`]
    /// case (the base stays shared with its other users).
    pub fn into_model(self) -> Model {
        match self {
            SharedModel::Owned(m) => m,
            SharedModel::Base(p) => p.model().clone(),
        }
    }

    /// Did the composition finish without ever copying the base?
    pub fn is_base(&self) -> bool {
        matches!(self, SharedModel::Base(_))
    }
}

/// [`ComposeResult`] for the zero-copy entry points: identical log and
/// mappings, with the model as a [`SharedModel`].
#[derive(Debug, Clone)]
pub struct SharedComposeResult {
    /// The composed model, possibly still the shared base.
    pub model: SharedModel,
    /// Decision log (duplicates, mappings, renames, conflicts).
    pub log: MergeLog,
    /// Final ID mappings, as in [`ComposeResult::mappings`].
    pub mappings: HashMap<String, String>,
}

impl SharedComposeResult {
    /// Materialise into a plain [`ComposeResult`], cloning the model only
    /// in the [`SharedModel::Base`] outcome.
    pub fn into_compose_result(self) -> ComposeResult {
        ComposeResult { model: self.model.into_model(), log: self.log, mappings: self.mappings }
    }
}

/// The SBMLCompose engine.
#[derive(Debug, Clone, Default)]
pub struct Composer {
    options: ComposeOptions,
}

impl Composer {
    /// Engine with the given options.
    pub fn new(options: ComposeOptions) -> Composer {
        Composer { options }
    }

    /// The options in use.
    pub fn options(&self) -> &ComposeOptions {
        &self.options
    }

    /// Start an incremental composition session; push models into it and
    /// [`CompositionSession::finish`] when done. Equivalent to a left fold
    /// of [`Composer::compose`] but without re-cloning and re-indexing the
    /// accumulator at every step.
    pub fn session(&self) -> CompositionSession<'_> {
        CompositionSession::new(&self.options)
    }

    /// Compose two models (paper Fig. 4). The first model is the base; the
    /// result carries its id.
    pub fn compose(&self, a: &Model, b: &Model) -> ComposeResult {
        // Fig. 5 lines 1–2: if one model is empty, return the other.
        if a.is_empty() {
            return ComposeResult {
                model: b.clone(),
                log: MergeLog::new(),
                mappings: HashMap::new(),
            };
        }
        if b.is_empty() {
            return ComposeResult {
                model: a.clone(),
                log: MergeLog::new(),
                mappings: HashMap::new(),
            };
        }

        let mut session = CompositionSession::with_base(&self.options, a.clone());
        session.push_final(b);
        session.finish()
    }

    /// Analyse a model once, for reuse across any number of compositions:
    /// canonical content keys, per-kind indexes, evaluated initial values
    /// and the global id set are computed here instead of inside every
    /// [`Composer::compose`] call. Wrap the result in an
    /// [`Arc`] to share it between threads — see
    /// [`crate::BatchComposer`] for the corpus-scale fan-out.
    pub fn prepare(&self, model: &Model) -> PreparedModel {
        PreparedModel::new(model, &self.options)
    }

    /// As [`Composer::prepare`], taking the model by value (no clone).
    pub fn prepare_owned(&self, model: Model) -> PreparedModel {
        PreparedModel::from_model(model, &self.options)
    }

    /// Compose two prepared models: [`Composer::compose`] minus the
    /// per-call re-derivation of each side's analysis. Output is
    /// bit-for-bit identical to the raw path (property-tested); panics if
    /// either preparation's options
    /// [fingerprint](ComposeOptions::fingerprint) differs from this
    /// composer's.
    pub fn compose_prepared(&self, a: &PreparedModel, b: &PreparedModel) -> ComposeResult {
        a.check_options(&self.options);
        b.check_options(&self.options);
        // Fig. 5 lines 1–2: if one model is empty, return the other.
        if a.model().is_empty() {
            return ComposeResult {
                model: b.model().clone(),
                log: MergeLog::new(),
                mappings: HashMap::new(),
            };
        }
        if b.model().is_empty() {
            return ComposeResult {
                model: a.model().clone(),
                log: MergeLog::new(),
                mappings: HashMap::new(),
            };
        }
        let mut session = CompositionSession::with_prepared_base(&self.options, a);
        session.push_prepared_final(b);
        session.finish()
    }

    /// [`Composer::compose_prepared`] without copying the base up front:
    /// the session adopts `a` copy-on-write
    /// ([`CompositionSession::with_shared_base`]), so the per-pair fixed
    /// cost is a few `Arc` bumps and a composition in which every `b`
    /// component matches the base returns [`SharedModel::Base`] — the
    /// original `Arc`, zero model bytes cloned end to end. Output (model
    /// contents, log, mappings) is bit-for-bit identical to
    /// [`Composer::compose_prepared`] (the differential harness enforces
    /// this); panics on a fingerprint mismatch, as there.
    pub fn compose_shared(&self, a: Arc<PreparedModel>, b: &PreparedModel) -> SharedComposeResult {
        a.check_options(&self.options);
        b.check_options(&self.options);
        // Fig. 5 lines 1–2: if one model is empty, return the other.
        if a.model().is_empty() {
            return SharedComposeResult {
                model: SharedModel::Owned(b.model().clone()),
                log: MergeLog::new(),
                mappings: HashMap::new(),
            };
        }
        if b.model().is_empty() {
            return SharedComposeResult {
                model: SharedModel::Base(a),
                log: MergeLog::new(),
                mappings: HashMap::new(),
            };
        }
        let mut session = CompositionSession::with_shared_base(&self.options, a);
        session.push_prepared_final(b);
        session.finish_shared()
    }
}

/// Compose a sequence of models left-to-right (library/incremental use).
///
/// Runs one [`CompositionSession`] over the whole slice: output is
/// identical to folding [`Composer::compose`] pairwise, but the
/// accumulator is built in place instead of being cloned and re-indexed
/// at every step. Callers holding owned models should prefer
/// [`compose_many_owned`], which also avoids cloning the first model.
pub fn compose_many(composer: &Composer, models: &[Model]) -> ComposeResult {
    let mut session = composer.session();
    for (i, model) in models.iter().enumerate() {
        if i + 1 == models.len() {
            session.push_final(model);
        } else {
            session.push(model);
        }
    }
    session.finish()
}

/// As [`compose_many`], but takes ownership: the first (base) model is
/// moved into the session instead of cloned, so composing a chain the
/// caller no longer needs allocates nothing for the accumulator seed.
pub fn compose_many_owned(
    composer: &Composer,
    models: impl IntoIterator<Item = Model>,
) -> ComposeResult {
    let mut session = composer.session();
    let mut models = models.into_iter().peekable();
    while let Some(model) = models.next() {
        if models.peek().is_none() {
            session.push_owned_final(model);
        } else {
            session.push_owned(model);
        }
    }
    session.finish()
}

/// As [`compose_many`], over prepared models: one session, every push
/// riding the precomputed analysis. Accepts any iterator of
/// `&PreparedModel`, so both `&[PreparedModel]` and the
/// `&[Arc<PreparedModel>]` shape used by batch workloads (via
/// `.iter().map(AsRef::as_ref)` or plain deref) work.
pub fn compose_many_prepared<'a>(
    composer: &Composer,
    models: impl IntoIterator<Item = &'a PreparedModel>,
) -> ComposeResult {
    let mut session = composer.session();
    let mut models = models.into_iter().peekable();
    while let Some(model) = models.next() {
        if models.peek().is_none() {
            session.push_prepared_final(model);
        } else {
            session.push_prepared(model);
        }
    }
    session.finish()
}

/// Reference chain composition: a left fold of pairwise
/// [`Composer::compose`] calls, cloning the accumulator at every step —
/// the paper's original O(n²) behaviour. [`compose_many`] must be
/// indistinguishable from this; it is kept (and exported) as the single
/// baseline that both the equivalence property tests and the
/// `chain_scaling` benchmark compare against.
pub fn compose_many_pairwise(composer: &Composer, models: &[Model]) -> ComposeResult {
    match models {
        [] => ComposeResult {
            model: Model::new("empty"),
            log: MergeLog::new(),
            mappings: HashMap::new(),
        },
        [single] => ComposeResult {
            model: single.clone(),
            log: MergeLog::new(),
            mappings: HashMap::new(),
        },
        [first, rest @ ..] => {
            let mut acc = ComposeResult {
                model: first.clone(),
                log: MergeLog::new(),
                mappings: HashMap::new(),
            };
            for next in rest {
                let step = composer.compose(&acc.model, next);
                acc.model = step.model;
                acc.log.events.extend(step.log.events);
                acc.mappings.extend(step.mappings);
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbml_model::builder::ModelBuilder;

    fn model(i: usize) -> Model {
        ModelBuilder::new(format!("m{i}"))
            .compartment("cell", 1.0)
            .species(&format!("S{i}"), 1.0)
            .parameter("k", 0.5)
            .build()
    }

    #[test]
    fn compose_many_matches_seed_edge_cases() {
        let composer = Composer::default();
        // Empty slice → the canonical empty model.
        let empty = compose_many(&composer, &[]);
        assert_eq!(empty.model, Model::new("empty"));
        assert!(empty.log.events.is_empty());
        assert!(empty.mappings.is_empty());
        // Singleton → that model, untouched.
        let single = compose_many(&composer, &[model(1)]);
        assert_eq!(single.model, model(1));
        assert!(single.log.events.is_empty());
    }

    #[test]
    fn compose_many_owned_matches_borrowed() {
        let composer = Composer::default();
        let models: Vec<Model> = (0..4).map(model).collect();
        let borrowed = compose_many(&composer, &models);
        let owned = compose_many_owned(&composer, models);
        assert_eq!(owned.model, borrowed.model);
        assert_eq!(owned.log.events, borrowed.log.events);
        assert_eq!(owned.mappings, borrowed.mappings);
    }

    #[test]
    fn compose_many_owned_accepts_any_iterator() {
        let composer = Composer::default();
        let result = compose_many_owned(&composer, (0..3).map(model));
        assert_eq!(result.model.id, "m0");
        assert_eq!(result.model.species.len(), 3);
    }
}
