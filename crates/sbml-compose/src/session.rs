//! The incremental composition engine.
//!
//! [`CompositionSession`] owns the accumulating merged [`Model`] together
//! with *live* per-kind [`ComponentIndex`] structures and a cache of
//! canonical content keys, so a chain composition
//! (`push(m1); push(m2); …`) does the work the paper's pairwise algorithm
//! would redo from scratch at every step exactly once:
//!
//! * **no accumulator clones** — `compose(a, b)` starts from `a.clone()`,
//!   so a left fold over an *n*-model chain clones the ever-growing result
//!   *n* times; a session keeps the accumulator in place and moves pushed
//!   models' components instead,
//! * **persistent indexes** — the by-id / by-name / by-content indexes of
//!   every component kind are updated in place as components are inserted
//!   rather than rebuilt from the whole accumulator on every push,
//! * **cached content keys** — the canonical key of a merged component
//!   (`name_key`, `math_key`-derived content keys, `unit_key`) is computed
//!   once, interned as `Arc<str>` shared between the index and the cache,
//!   and reused by every later push instead of being re-derived,
//! * **incremental initial values** — the accumulator's evaluated initial
//!   values (the paper's pre-composition collection step) are held in an
//!   [`IncrementalValues`] store that is seeded at the first merge and
//!   extended with each push's additions through a dependency graph of
//!   initial assignments, instead of re-running [`collect`] over the
//!   whole accumulator before every push,
//! * **incremental mapped-key renaming** — under heavy semantics a
//!   prepared push's cached content key whose referenced ids were
//!   remapped mid-push is revalidated by renaming the cached canonical
//!   text (the crate-internal `keyrename` module over
//!   [`sbml_math::pattern::Pattern::rename_mapped`]) — O(touched
//!   leaves) — instead of re-canonicalising the formula. Light and none
//!   semantics keep infix key text and recompute it.
//!
//! Each of these has one production path. The slower reference paths
//! survive as oracles for the differential tests and benches, not as
//! options: [`collect`] for the value store,
//! [`CompositionSession::with_prepared_base`] (eager clone) for
//! copy-on-write adoption, and the raw [`CompositionSession::push`],
//! which computes every key inline, for the key cache and renaming.
//!
//! # Anatomy and cost of one push
//!
//! A push runs the paper's Fig. 4 pipeline over the incoming model `b`
//! against the accumulator `A` (sizes `|b|`, `|A|`):
//!
//! | phase | work | cost |
//! |---|---|---|
//! | per-push reset | clear mapping table + delta indexes | O(1) amortised |
//! | initial values | incremental store lookup (seeded once) | O(1) per push (O(&#124;A&#124;) once) |
//! | incoming keys | inline in the passes (raw push), or taken from the [`PreparedModel`] | O(&#124;b&#124;) raw, O(1) per clean key prepared |
//! | merge passes | functions → units → compartment/species types → compartments → species → parameters → initial assignments → rules → constraints → reactions → events, strictly in this order; each component is an O(1) expected index probe (by id, then by content/name) plus a conflict check; under heavy semantics, stale cached keys revalidated by incremental rename (O(touched leaves)) instead of re-canonicalisation (O(formula)) | O(&#124;b&#124;) |
//! | finish | fold delta indexes under canonical merged-side keys, extend the key cache and the value store with the push's additions | O(additions) |
//!
//! Nothing in a push scales with `|A|` (whole-accumulator value
//! re-collection was removed by the incremental store), so an n-model
//! chain is O(total components) plus index-probe constants, not O(n²).
//! O(formula) recomputation of mapped keys is what the incremental rename
//! removes; `BENCH_pipeline.json` (gated ≥ 1.5x by `ci.sh`) tracks that
//! win on the conflict-heavy corpus.
//!
//! The output is bit-for-bit identical to a left fold of pairwise
//! [`Composer::compose`] calls — `tests/properties.rs` proves model, log
//! and mappings equality over randomized chains, across every semantics
//! level and paper ablation. Within one push the
//! session therefore mirrors a subtlety of the pairwise pass: a component
//! inserted *during* a push is indexed under its incoming (second-model)
//! key until the push ends, and under its canonical merged-side key
//! afterwards, exactly as a per-pass index rebuild would do. Additions are
//! staged in small per-push *delta* indexes and folded into the persistent
//! indexes when the push completes.
//!
//! [`Composer::compose`]: crate::composer::Composer::compose

use std::collections::HashMap;
use std::sync::Arc;

use sbml_model::Model;

use crate::composer::{ComposeResult, SharedComposeResult, SharedModel};
use crate::cow::{Accum, CowState};
use crate::equality::{self, MappingTable, NoMap};
use crate::guard::{self, ExecError, Meter, Site};
use crate::index::ComponentIndex;
use crate::initial_values::{collect, IncrementalValues, InitialValues, ValueDelta};
use crate::log::MergeLog;
use crate::options::ComposeOptions;
use crate::passes::{
    self, AssignmentsMut, CompartmentTypesMut, CompartmentsMut, CompartmentsRead, ConstraintsMut,
    EventsMut, FunctionsMut, IdRegistry, Incoming, IvA, MapStore, ParametersMut, PassEnv,
    PrefixMask, ReactionsMut, RulesMut, SpeciesMut, SpeciesTypesMut, UnitsMut, UnitsRead,
};
use crate::prepared::{Indexes, KeyCache, ModelAnalysis, PreparedModel};

/// Per-push staging indexes for components added during the current push,
/// keyed by their *incoming* (second-model) content/name key. Folded into
/// [`Indexes`] under canonical merged-side keys at push end.
#[derive(Debug, Clone)]
pub(crate) struct DeltaIndexes {
    pub(crate) functions_by_content: ComponentIndex,
    pub(crate) compartment_types_by_name: ComponentIndex,
    pub(crate) species_types_by_name: ComponentIndex,
    pub(crate) compartments_by_name: ComponentIndex,
    pub(crate) species_by_name: ComponentIndex,
    pub(crate) rules_by_content: ComponentIndex,
    pub(crate) constraints_by_content: ComponentIndex,
    pub(crate) reactions_by_content: ComponentIndex,
    pub(crate) events_by_content: ComponentIndex,
}

impl DeltaIndexes {
    fn new(options: &ComposeOptions) -> DeltaIndexes {
        let mk = || ComponentIndex::new(options.index);
        DeltaIndexes {
            functions_by_content: mk(),
            compartment_types_by_name: mk(),
            species_types_by_name: mk(),
            compartments_by_name: mk(),
            species_by_name: mk(),
            rules_by_content: mk(),
            constraints_by_content: mk(),
            reactions_by_content: mk(),
            events_by_content: mk(),
        }
    }

    fn clear(&mut self) {
        self.functions_by_content.clear();
        self.compartment_types_by_name.clear();
        self.species_types_by_name.clear();
        self.compartments_by_name.clear();
        self.species_by_name.clear();
        self.rules_by_content.clear();
        self.constraints_by_content.clear();
        self.reactions_by_content.clear();
        self.events_by_content.clear();
    }
}

/// Component-list lengths at the start of a push; everything past these
/// positions was added by the push currently being folded in.
#[derive(Debug, Clone, Copy)]
struct PushStart {
    functions: usize,
    units: usize,
    compartment_types: usize,
    species_types: usize,
    compartments: usize,
    species: usize,
    parameters: usize,
    initial_assignments: usize,
    rules: usize,
    constraints: usize,
    reactions: usize,
    events: usize,
}

impl PushStart {
    fn of(model: &Model) -> PushStart {
        PushStart {
            functions: model.function_definitions.len(),
            units: model.unit_definitions.len(),
            compartment_types: model.compartment_types.len(),
            species_types: model.species_types.len(),
            compartments: model.compartments.len(),
            species: model.species.len(),
            parameters: model.parameters.len(),
            initial_assignments: model.initial_assignments.len(),
            rules: model.rules.len(),
            constraints: model.constraints.len(),
            reactions: model.reactions.len(),
            events: model.events.len(),
        }
    }
}

/// An in-progress chain composition; see the [module docs](self).
///
/// ```
/// use sbml_compose::{ComposeOptions, Composer, CompositionSession};
/// use sbml_model::builder::ModelBuilder;
///
/// let options = ComposeOptions::default();
/// let mut session = CompositionSession::new(&options);
/// for part in ["glycolysis", "tca"] {
///     let m = ModelBuilder::new(part)
///         .compartment("cell", 1.0)
///         .species("pyruvate", 0.0)
///         .build();
///     session.push(&m);
/// }
/// let result = session.finish();
/// assert_eq!(result.model.species.len(), 1); // pyruvate shared
/// ```
pub struct CompositionSession<'o> {
    pub(crate) options: &'o ComposeOptions,
    /// The current push's ID mappings (second-model id → merged id) —
    /// cleared per push, drained into `mappings` at push end.
    pub(crate) push_maps: MappingTable,
    /// First-byte index over `push_maps` sources (see
    /// [`PrefixMask`]); cleared with it per push.
    pub(crate) push_mask: PrefixMask,
    /// The accumulator: a shared prepared base (copy-on-write, nothing
    /// cloned yet) or a plain owned model. See [`crate::cow`].
    pub(crate) accum: Accum,
    /// The adopted COW base, kept (sticky) so a failed push that
    /// materialised mid-pass can roll all the way back to the fully
    /// shared state. `Some` only for sessions created through
    /// [`CompositionSession::with_shared_base`].
    base: Option<Arc<PreparedModel>>,
    pub(crate) log: MergeLog,
    pub(crate) mappings: HashMap<String, String>,
    pub(crate) taken: IdRegistry,
    pub(crate) iv_a: Arc<InitialValues>,
    pub(crate) iv_b: Arc<InitialValues>,
    /// Initial values of the current accumulator when they are already
    /// known (adopted from a [`PreparedModel`] base); consumed by the next
    /// push instead of re-running [`collect`] over the accumulator.
    pub(crate) base_ivs: Option<Arc<InitialValues>>,
    /// The accumulator's initial values, maintained incrementally across
    /// pushes (seeded at the first merge, extended with each push's
    /// additions). `None` when values are not collected at all, while the
    /// accumulator is still a shared base, or before the first real merge.
    pub(crate) incremental: Option<IncrementalValues>,
    pub(crate) idx: Indexes,
    pub(crate) delta: DeltaIndexes,
    pub(crate) keys: KeyCache,
    pushes: usize,
}

impl<'o> CompositionSession<'o> {
    /// A session with an empty accumulator. The first non-empty pushed
    /// model becomes the base (its id is retained, per Fig. 5 line 25).
    pub fn new(options: &'o ComposeOptions) -> CompositionSession<'o> {
        CompositionSession {
            options,
            push_maps: MappingTable::default(),
            push_mask: PrefixMask::default(),
            accum: Accum::Owned(Model::new("empty")),
            base: None,
            log: MergeLog::new(),
            mappings: HashMap::new(),
            taken: IdRegistry::new(),
            iv_a: Arc::new(InitialValues::default()),
            iv_b: Arc::new(InitialValues::default()),
            base_ivs: None,
            incremental: None,
            idx: Indexes::new(options),
            delta: DeltaIndexes::new(options),
            keys: KeyCache::default(),
            pushes: 0,
        }
    }

    /// A session whose accumulator starts as `base`, moved in without a
    /// clone.
    pub fn with_base(options: &'o ComposeOptions, base: Model) -> CompositionSession<'o> {
        let mut session = CompositionSession::new(options);
        session.accum = Accum::Owned(base);
        session.reindex();
        session
    }

    /// A session whose accumulator starts as a clone of a prepared model,
    /// adopting its precomputed indexes, content keys and initial values
    /// instead of re-deriving them (the per-pair `reindex` + `collect`
    /// cost of the raw path).
    ///
    /// This is the eager clone-on-adopt reference for
    /// [`CompositionSession::with_shared_base`]: the copy-on-write
    /// differential tests and the fig8 fixed-cost bench compare against
    /// it. Output is bit-for-bit identical either way.
    ///
    /// Panics if `base` was prepared under options with a different
    /// [fingerprint](ComposeOptions::fingerprint).
    pub fn with_prepared_base(
        options: &'o ComposeOptions,
        base: &PreparedModel,
    ) -> CompositionSession<'o> {
        base.check_options(options);
        let mut session = CompositionSession::new(options);
        session.adopt_prepared(base);
        session
    }

    /// A session whose accumulator *is* `base`, adopted by reference:
    /// nothing is cloned — component lists, indexes, key cache and
    /// evaluated initial values all stay shared with the `Arc` until a
    /// push actually mutates the accumulator (see the `cow` module). A
    /// composition whose every incoming component matches the base
    /// (Duplicate-only) finishes with the base still fully shared;
    /// [`CompositionSession::finish_shared`] then hands the `Arc` back
    /// instead of a copy.
    ///
    /// Panics if `base` was prepared under options with a different
    /// [fingerprint](ComposeOptions::fingerprint).
    pub fn with_shared_base(
        options: &'o ComposeOptions,
        base: Arc<PreparedModel>,
    ) -> CompositionSession<'o> {
        base.check_options(options);
        let mut session = CompositionSession::new(options);
        session.taken.reset(Arc::clone(&base.analysis().taken));
        session.base_ivs = options.collect_initial_values.then(|| Arc::clone(&base.initial_values));
        session.base = Some(Arc::clone(&base));
        session.accum = Accum::Shared(base);
        session
    }

    /// The merged model so far.
    pub fn model(&self) -> &Model {
        self.accum.model()
    }

    /// Is the accumulator still fully shared with an adopted base — i.e.
    /// has no push cloned anything yet? Observability hook for the COW
    /// differential and fault-isolation tests.
    pub fn is_base_shared(&self) -> bool {
        self.accum.is_shared()
    }

    /// The cumulative merge log across all pushes.
    pub fn log(&self) -> &MergeLog {
        &self.log
    }

    /// Cumulative ID mappings (pushed-model id → merged-model id), later
    /// pushes overriding earlier ones, as a pairwise fold would.
    pub fn mappings(&self) -> &HashMap<String, String> {
        &self.mappings
    }

    /// Number of models pushed so far.
    pub fn pushes(&self) -> usize {
        self.pushes
    }

    /// Merge one model into the accumulator (borrowing; components that
    /// end up in the result are cloned, the accumulator never is).
    pub fn push(&mut self, b: &Model) {
        self.pushes += 1;
        // Fig. 5 lines 1–2: an empty side returns the other unchanged.
        if self.accum.model().is_empty() {
            self.accum = Accum::Owned(b.clone());
            self.reindex();
            return;
        }
        if b.is_empty() {
            return;
        }
        self.merge_model(&Incoming::raw(b), false);
    }

    /// Merge one model by value: as [`CompositionSession::push`], but a
    /// model that becomes the base is moved, not cloned.
    pub fn push_owned(&mut self, b: Model) {
        self.pushes += 1;
        if self.accum.model().is_empty() {
            self.accum = Accum::Owned(b);
            self.reindex();
            return;
        }
        if b.is_empty() {
            return;
        }
        self.merge_model(&Incoming::raw(&b), false);
    }

    /// [`CompositionSession::push`] for a push known to be the last before
    /// [`CompositionSession::finish`]: skips maintenance work only a later
    /// push would read. Same output, internal-only.
    pub(crate) fn push_final(&mut self, b: &Model) {
        self.pushes += 1;
        if self.accum.model().is_empty() {
            // The model becomes the result as-is; no push follows, so the
            // indexes it would seed are never consulted.
            self.accum = Accum::Owned(b.clone());
            return;
        }
        if b.is_empty() {
            return;
        }
        self.merge_model(&Incoming::raw(b), true);
    }

    /// Final-push variant of [`CompositionSession::push_owned`].
    pub(crate) fn push_owned_final(&mut self, b: Model) {
        self.pushes += 1;
        if self.accum.model().is_empty() {
            self.accum = Accum::Owned(b);
            return;
        }
        if b.is_empty() {
            return;
        }
        self.merge_model(&Incoming::raw(&b), true);
    }

    /// Merge one prepared model, reusing its precomputed analysis: name,
    /// unit and (while the push has no ID mappings) content keys come from
    /// the preparation, conflict-check lookups go through its indexes, and
    /// its evaluated initial values replace a `collect` pass. A model that
    /// becomes the base also donates its base-side indexes and key cache,
    /// skipping the reindex.
    ///
    /// Output is bit-for-bit identical to [`CompositionSession::push`] on
    /// the same model (a property test enforces this). Panics if `p` was
    /// prepared under options with a different
    /// [fingerprint](ComposeOptions::fingerprint).
    pub fn push_prepared(&mut self, p: &PreparedModel) {
        p.check_options(self.options());
        self.pushes += 1;
        if self.accum.model().is_empty() {
            self.adopt_prepared(p);
            return;
        }
        if p.model().is_empty() {
            return;
        }
        self.merge_model(&Incoming::prepared(p), false);
    }

    /// Final-push variant of [`CompositionSession::push_prepared`].
    pub(crate) fn push_prepared_final(&mut self, p: &PreparedModel) {
        p.check_options(self.options());
        self.pushes += 1;
        if self.accum.model().is_empty() {
            self.accum = Accum::Owned(p.model().clone());
            return;
        }
        if p.model().is_empty() {
            return;
        }
        self.merge_model(&Incoming::prepared(p), true);
    }

    /// [`CompositionSession::push`] with fault containment and budget
    /// governance (see [`crate::guard`]). `meter` is charged one step per
    /// incoming component (and its deadline checked) *before* the
    /// accumulator is touched, so an exhausted budget fails the push
    /// cleanly; a panic inside the merge passes is contained, the push is
    /// rolled back, and `Err` guarantees the accumulator, log and
    /// mappings are exactly their pre-push state.
    ///
    /// Output on success is bit-for-bit identical to
    /// [`CompositionSession::push`] on the same model.
    pub fn push_guarded(&mut self, b: &Model, meter: Option<&Meter>) -> Result<(), ExecError> {
        if let Some(m) = meter {
            m.charge(b.component_count() as u64, Site::Push(self.pushes))?;
        }
        self.pushes += 1;
        if self.accum.model().is_empty() {
            self.accum = Accum::Owned(b.clone());
            self.reindex();
            return Ok(());
        }
        if b.is_empty() {
            return Ok(());
        }
        self.merge_model_guarded(&Incoming::raw(b))
    }

    /// Guarded variant of [`CompositionSession::push_prepared`]: same
    /// containment and budget semantics as
    /// [`CompositionSession::push_guarded`]. Panics (only) if `p` was
    /// prepared under options with a different
    /// [fingerprint](ComposeOptions::fingerprint) — that is caller
    /// misuse, not input-driven.
    pub fn push_prepared_guarded(
        &mut self,
        p: &PreparedModel,
        meter: Option<&Meter>,
    ) -> Result<(), ExecError> {
        p.check_options(self.options());
        if let Some(m) = meter {
            m.charge(p.model().component_count() as u64, Site::Push(self.pushes))?;
        }
        self.pushes += 1;
        if self.accum.model().is_empty() {
            self.adopt_prepared(p);
            return Ok(());
        }
        if p.model().is_empty() {
            return Ok(());
        }
        self.merge_model_guarded(&Incoming::prepared(p))
    }

    /// Finish, returning the composed model, cumulative log and mappings.
    /// A still-shared COW accumulator is cloned here (once); use
    /// [`CompositionSession::finish_shared`] to keep the zero-copy result.
    pub fn finish(self) -> ComposeResult {
        ComposeResult { model: self.accum.into_model(), log: self.log, mappings: self.mappings }
    }

    /// Finish without forcing a copy: a Duplicate-only composition over an
    /// adopted base returns [`SharedModel::Base`] — the original `Arc`,
    /// refcount-bumped, no model bytes cloned end to end.
    pub fn finish_shared(self) -> SharedComposeResult {
        let model = match self.accum {
            Accum::Shared(base) => SharedModel::Base(base),
            Accum::Owned(m) => SharedModel::Owned(m),
        };
        SharedComposeResult { model, log: self.log, mappings: self.mappings }
    }

    /// The evaluated initial values of the current accumulator — exactly
    /// what the next push's conflict checks will consult: empty when
    /// [`ComposeOptions::collect_initial_values`] is off, else the
    /// incremental store's view once it is seeded, else the adopted base's
    /// values or a fresh [`collect`]. The equivalence property tests
    /// compare the store against a fresh `collect` after every push.
    pub fn current_initial_values(&self) -> InitialValues {
        if !self.options().collect_initial_values {
            return InitialValues::default();
        }
        match &self.incremental {
            Some(store) => store.snapshot(),
            // A still-shared accumulator's values are the base's evaluated
            // values, adopted at `with_shared_base`; avoid the O(model)
            // re-collect.
            None => match &self.base_ivs {
                Some(iv) if self.accum.is_shared() => iv.as_ref().clone(),
                _ => collect(self.accum.model()),
            },
        }
    }

    fn options(&self) -> &'o ComposeOptions {
        self.options
    }

    // ---------------------------------------------------------------
    // Index lifecycle
    // ---------------------------------------------------------------

    /// Rebuild every persistent index (and the key cache) from the
    /// current merged model. Only needed when the accumulator is replaced
    /// wholesale; pushes maintain the indexes incrementally.
    fn reindex(&mut self) {
        let analysis = ModelAnalysis::build(self.accum.model(), self.options(), None);
        self.taken.reset(analysis.taken);
        self.idx = analysis.idx;
        self.keys = analysis.keys;
        self.delta = DeltaIndexes::new(self.options());
        self.base_ivs = None;
        self.incremental = None;
        self.base = None;
    }

    /// Replace the accumulator with a clone of a prepared model, adopting
    /// its base-side analysis instead of rebuilding it.
    fn adopt_prepared(&mut self, p: &PreparedModel) {
        self.accum = Accum::Owned(p.model().clone());
        self.base = None;
        self.taken.reset(Arc::clone(&p.analysis().taken));
        self.idx = p.analysis().idx.clone();
        self.keys = p.analysis().keys.clone();
        self.delta = DeltaIndexes::new(self.options());
        self.incremental = None;
        self.base_ivs = self
            .options()
            .collect_initial_values
            .then(|| Arc::clone(&p.initial_values));
    }

    /// Run the Fig. 4 pipeline for one (non-empty) incoming model. With
    /// `final_push`, skip the end-of-push index and key-cache maintenance
    /// that only a subsequent push would consume (the merged model, log
    /// and mappings are unaffected) — used by the one-shot entry points.
    fn merge_model(&mut self, inc: &Incoming<'_>, final_push: bool) {
        let start = self.begin_push(inc);
        self.merge_passes_serial(inc);
        self.finish_push(start, final_push);
    }

    /// Everything a push does before the merge passes run: reset the
    /// per-push state, seed both sides' initial values, snapshot the
    /// accumulator's component-list lengths and pre-size for the incoming
    /// model. Shared by the plain and guarded merge paths.
    fn begin_push(&mut self, inc: &Incoming<'_>) -> PushStart {
        // Per-push state: fresh mappings and initial values, clean deltas
        // (exactly what a pairwise `compose` would start from).
        self.push_maps.clear();
        self.push_mask.clear();
        self.delta.clear();
        if self.options().collect_initial_values {
            if self.accum.is_shared() {
                // COW base, untouched so far: the accumulator's values ARE
                // the base's evaluated values. Serve them as a snapshot
                // (IvA::Snap) and defer any incremental seeding until a
                // push actually materialises — `base_ivs` is kept, not
                // taken, so a Duplicate-only push costs one Arc bump.
                if let Some(iv) = &self.base_ivs {
                    self.iv_a = Arc::clone(iv);
                }
            } else if self.incremental.is_none() {
                // Seed the store once — from the prepared base's
                // already-evaluated values when we have them, else one
                // collect-equivalent fixed point — and let `finish_push`
                // extend it with this push's additions. Accumulator-side
                // lookups go through `iv_a_get`.
                self.incremental = Some(match self.base_ivs.take() {
                    Some(iv) => IncrementalValues::seed_with_known(self.accum.model(), &iv),
                    None => IncrementalValues::seed(self.accum.model()),
                });
            }
            self.iv_b = match inc.ivs {
                Some(ivs) => Arc::clone(ivs),
                None => Arc::new(collect(inc.model)),
            };
        } else {
            self.base_ivs = None;
            self.incremental = None;
            self.iv_a = Arc::new(InitialValues::default());
            self.iv_b = Arc::new(InitialValues::default());
        }
        let start = PushStart::of(self.accum.model());

        // Pre-size the accumulator for the worst case (every incoming
        // component added) — one reserve beats repeated regrow-and-copy.
        // A still-shared accumulator has nothing to reserve into; sizing
        // happens if and when a list materialises.
        if let Accum::Owned(m) = &mut self.accum {
            let b = inc.model;
            m.function_definitions.reserve(b.function_definitions.len());
            m.unit_definitions.reserve(b.unit_definitions.len());
            m.compartments.reserve(b.compartments.len());
            m.species.reserve(b.species.len());
            m.parameters.reserve(b.parameters.len());
            m.initial_assignments.reserve(b.initial_assignments.len());
            m.rules.reserve(b.rules.len());
            m.constraints.reserve(b.constraints.len());
            m.reactions.reserve(b.reactions.len());
            m.events.reserve(b.events.len());
        }
        start
    }

    /// Undo a push whose merge passes did not complete: the passes only
    /// ever *append* to the accumulator (conflicts keep the first entry;
    /// reconciliation reads and logs but never rewrites), so truncating
    /// every component list and the log back to their pre-push lengths
    /// restores the exact pre-push model, and one `reindex` rebuilds the
    /// derived state from it. O(accumulator), paid only on the fault path.
    ///
    /// `was_shared` records whether the accumulator was still the fully
    /// shared COW base *before* this push: then the failed push itself did
    /// any materialising, so rollback is re-adoption — drop whatever was
    /// cloned and point back at the base `Arc`. O(1), no reindex.
    fn rollback_push(&mut self, start: PushStart, log_start: usize, was_shared: bool) {
        self.log.events.truncate(log_start);
        self.push_maps.clear();
        self.push_mask.clear();
        if was_shared {
            let base = Arc::clone(
                self.base.as_ref().expect("a shared accumulator always has its base recorded"),
            );
            self.delta.clear();
            self.taken.reset(Arc::clone(&base.analysis().taken));
            self.idx = Indexes::new(self.options());
            self.keys = KeyCache::default();
            self.incremental = None;
            self.base_ivs =
                self.options().collect_initial_values.then(|| Arc::clone(&base.initial_values));
            self.accum = Accum::Shared(base);
            return;
        }
        let m = match &mut self.accum {
            Accum::Owned(m) => m,
            Accum::Shared(_) => unreachable!("push on a shared accumulator has was_shared set"),
        };
        m.function_definitions.truncate(start.functions);
        m.unit_definitions.truncate(start.units);
        m.compartment_types.truncate(start.compartment_types);
        m.species_types.truncate(start.species_types);
        m.compartments.truncate(start.compartments);
        m.species.truncate(start.species);
        m.parameters.truncate(start.parameters);
        m.initial_assignments.truncate(start.initial_assignments);
        m.rules.truncate(start.rules);
        m.constraints.truncate(start.constraints);
        m.reactions.truncate(start.reactions);
        m.events.truncate(start.events);
        self.reindex();
    }

    /// The contained merge behind the guarded push entry points: a panic
    /// inside the passes (at any of the twelve pass boundaries, after
    /// earlier passes have already appended) is caught, the accumulator is
    /// rolled back to its exact pre-push state — re-adopting the shared
    /// base when the push started from one — and the fault returned.
    fn merge_model_guarded(&mut self, inc: &Incoming<'_>) -> Result<(), ExecError> {
        let log_start = self.log.events.len();
        // Captured before the push runs: a fault must roll a COW session
        // all the way back to the fully shared base, not to a half-cloned
        // accumulator.
        let was_shared = self.accum.is_shared();
        let start = self.begin_push(inc);
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.merge_passes_serial(inc)
        }));
        match attempt {
            Ok(()) => {
                self.finish_push(start, false);
                Ok(())
            }
            Err(payload) => {
                self.rollback_push(start, log_start, was_shared);
                Err(ExecError::Panicked {
                    site: Site::Push(self.pushes - 1),
                    detail: crate::guard::panic_detail(payload.as_ref()),
                })
            }
        }
    }

    /// Take everything the merge passes mutate out of the session for the
    /// duration of one push: COW wrappers over the shared base when the
    /// accumulator is still [`Accum::Shared`], plain moved-out owned state
    /// otherwise. Must be paired with
    /// [`CompositionSession::restore_cow_state`] on every exit path
    /// (including unwinds), or the accumulator is left empty.
    fn take_cow_state(&mut self) -> CowState {
        match &mut self.accum {
            Accum::Shared(base) => CowState::from_shared(base, &mut self.delta),
            Accum::Owned(model) => {
                CowState::from_owned(model, &mut self.idx, &mut self.keys, &mut self.delta)
            }
        }
    }

    /// Put one push's worked state back into the session. Three cases:
    /// everything still shared — the accumulator stays [`Accum::Shared`]
    /// and only the per-push deltas move (the zero-copy push); something
    /// materialised under a shared accumulator — consolidate every kind to
    /// owned (untouched kinds clone from the base here, once) and flip to
    /// [`Accum::Owned`]; accumulator already owned — move the parts back
    /// verbatim.
    fn restore_cow_state(&mut self, st: CowState) {
        if self.accum.is_shared() && !st.any_materialised() {
            debug_assert!(
                !self.taken.has_additions(),
                "a push that registered fresh IDs must have materialised"
            );
            st.restore_delta(&mut self.delta);
            return;
        }
        let shared_before = self.accum.is_shared();
        let (model, idx, keys) = st.into_owned_parts(self.accum.model(), &mut self.delta);
        self.accum = Accum::Owned(model);
        self.idx = idx;
        self.keys = keys;
        if shared_before {
            // The accumulator's contents just diverged from the base; its
            // adopted values no longer describe them. The next push seeds
            // the incremental store from the owned model in begin_push.
            self.base_ivs = None;
        }
    }

    /// Run the twelve passes in Fig. 4 order over the session's own state.
    /// The pass state is taken out as a [`CowState`] and restored on both
    /// the success and unwind paths, so a pass panic never strands a
    /// half-taken session (the guarded caller's rollback then sees a
    /// structurally whole accumulator).
    fn merge_passes_serial(&mut self, inc: &Incoming<'_>) {
        guard::fail_point(Site::Push(self.pushes.saturating_sub(1)));
        let mut st = self.take_cow_state();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_passes_serial(&mut st, inc)
        }));
        self.restore_cow_state(st);
        if let Err(payload) = attempt {
            std::panic::resume_unwind(payload);
        }
    }

    fn run_passes_serial(&mut self, st: &mut CowState, inc: &Incoming<'_>) {
        macro_rules! env {
            () => {
                &mut PassEnv {
                    options: self.options,
                    maps: MapStore { table: &mut self.push_maps, mask: &mut self.push_mask },
                    taken: &mut self.taken,
                    log: &mut self.log,
                    iv_a: match &self.incremental {
                        Some(store) => IvA::Store(store),
                        None => IvA::Snap(&self.iv_a),
                    },
                    iv_b: &self.iv_b,
                }
            };
        }
        guard::fail_point(Site::Pass(0));
        passes::functions(
            env!(),
            &mut FunctionsMut {
                list: &mut st.functions,
                by_id: &mut st.functions_by_id,
                by_content: &mut st.functions_by_content,
                delta_by_content: &mut st.functions_delta,
                keys: &mut st.functions_keys,
            },
            inc,
        );
        guard::fail_point(Site::Pass(1));
        passes::units(
            env!(),
            &mut UnitsMut {
                list: &mut st.units,
                by_id: &mut st.units_by_id,
                by_content: &mut st.units_by_content,
                keys: &mut st.units_keys,
            },
            inc,
        );
        guard::fail_point(Site::Pass(2));
        passes::compartment_types(
            env!(),
            &mut CompartmentTypesMut {
                list: &mut st.compartment_types,
                by_id: &mut st.compartment_types_by_id,
                by_name: &mut st.compartment_types_by_name,
                delta_by_name: &mut st.compartment_types_delta,
            },
            inc,
        );
        guard::fail_point(Site::Pass(3));
        passes::species_types(
            env!(),
            &mut SpeciesTypesMut {
                list: &mut st.species_types,
                by_id: &mut st.species_types_by_id,
                by_name: &mut st.species_types_by_name,
                delta_by_name: &mut st.species_types_delta,
            },
            inc,
        );
        guard::fail_point(Site::Pass(4));
        passes::compartments(
            env!(),
            &mut CompartmentsMut {
                list: &mut st.compartments,
                by_id: &mut st.compartments_by_id,
                by_name: &mut st.compartments_by_name,
                delta_by_name: &mut st.compartments_delta,
            },
            &UnitsRead { list: &st.units, by_id: &st.units_by_id },
            inc,
        );
        guard::fail_point(Site::Pass(5));
        passes::species(
            env!(),
            &mut SpeciesMut {
                list: &mut st.species,
                by_id: &mut st.species_by_id,
                by_name: &mut st.species_by_name,
                delta_by_name: &mut st.species_delta,
            },
            &UnitsRead { list: &st.units, by_id: &st.units_by_id },
            &CompartmentsRead { list: &st.compartments, by_id: &st.compartments_by_id },
            inc,
        );
        guard::fail_point(Site::Pass(6));
        passes::parameters(
            env!(),
            &mut ParametersMut { list: &mut st.parameters, by_id: &mut st.parameters_by_id },
            &UnitsRead { list: &st.units, by_id: &st.units_by_id },
            inc,
        );
        guard::fail_point(Site::Pass(7));
        passes::initial_assignments(
            env!(),
            &mut AssignmentsMut {
                list: &mut st.assignments,
                by_symbol: &mut st.assignments_by_symbol,
            },
            inc,
        );
        guard::fail_point(Site::Pass(8));
        passes::rules(
            env!(),
            &mut RulesMut {
                list: &mut st.rules,
                by_content: &mut st.rules_by_content,
                by_variable: &mut st.rules_by_variable,
                delta_by_content: &mut st.rules_delta,
            },
            inc,
        );
        guard::fail_point(Site::Pass(9));
        passes::constraints(
            env!(),
            &mut ConstraintsMut {
                list: &mut st.constraints,
                by_content: &mut st.constraints_by_content,
                delta_by_content: &mut st.constraints_delta,
            },
            inc,
        );
        guard::fail_point(Site::Pass(10));
        passes::reactions(
            env!(),
            &mut ReactionsMut {
                list: &mut st.reactions,
                by_id: &mut st.reactions_by_id,
                by_content: &mut st.reactions_by_content,
                delta_by_content: &mut st.reactions_delta,
                keys: &mut st.reactions_keys,
            },
            &UnitsRead { list: &st.units, by_id: &st.units_by_id },
            inc,
        );
        guard::fail_point(Site::Pass(11));
        passes::events(
            env!(),
            &mut EventsMut {
                list: &mut st.events,
                by_id: &mut st.events_by_id,
                by_content: &mut st.events_by_content,
                delta_by_content: &mut st.events_delta,
                keys: &mut st.events_keys,
            },
            inc,
        );
    }

    /// Fold this push's additions into the persistent indexes under their
    /// canonical merged-side keys (the keys a from-scratch index rebuild
    /// would compute), extend the key cache, and roll the push's mappings
    /// into the cumulative map. A `final_push` skips the index/key
    /// fix-ups — nothing will consume them.
    fn finish_push(&mut self, start: PushStart, final_push: bool) {
        if final_push {
            self.delta.clear();
            self.mappings.extend(self.push_maps.drain());
            return;
        }
        // Feed the incremental value store exactly the components this
        // push appended (already renamed/mapped — the merged model is the
        // source of truth); it re-evaluates only the affected dependency
        // closure, O(push), where a fresh `collect` is O(accumulator).
        // A still-shared accumulator appended nothing and has no store:
        // every range below is empty and the loops cost zero.
        if let Some(store) = &mut self.incremental {
            store.absorb(
                self.accum.model(),
                &ValueDelta {
                    functions: start.functions,
                    compartments: start.compartments,
                    species: start.species,
                    parameters: start.parameters,
                    initial_assignments: start.initial_assignments,
                },
            );
        }
        let options = self.options;
        let merged = self.accum.model();
        for pos in start.functions..merged.function_definitions.len() {
            let key = equality::function_key(options, &merged.function_definitions[pos], &NoMap);
            let key: Arc<str> = Arc::from(key.as_str());
            self.idx.functions_by_content.insert_shared(&key, pos);
            self.keys.functions.push(key);
        }
        // Units need no fix-up: their content key is invariant under
        // renaming, so both indexes were final at insertion time.
        let _ = start.units;
        for pos in start.compartment_types..merged.compartment_types.len() {
            let t = &merged.compartment_types[pos];
            self.idx
                .compartment_types_by_name
                .insert(&equality::name_key(options, &t.id, t.name.as_deref()), pos);
        }
        for pos in start.species_types..merged.species_types.len() {
            let t = &merged.species_types[pos];
            self.idx
                .species_types_by_name
                .insert(&equality::name_key(options, &t.id, t.name.as_deref()), pos);
        }
        for pos in start.compartments..merged.compartments.len() {
            let c = &merged.compartments[pos];
            self.idx
                .compartments_by_name
                .insert(&equality::name_key(options, &c.id, c.name.as_deref()), pos);
        }
        for pos in start.species..merged.species.len() {
            let s = &merged.species[pos];
            self.idx
                .species_by_name
                .insert(&equality::name_key(options, &s.id, s.name.as_deref()), pos);
        }
        // Conflict-renamed parameters are (deliberately) not visible to
        // by-id lookups within their own push; surface them now.
        for pos in start.parameters..merged.parameters.len() {
            self.idx.parameters_by_id.insert(&merged.parameters[pos].id, pos);
        }
        for pos in start.rules..merged.rules.len() {
            let key = equality::rule_key(options, &merged.rules[pos], &NoMap);
            self.idx.rules_by_content.insert(&key, pos);
        }
        for pos in start.constraints..merged.constraints.len() {
            let key = equality::constraint_key(options, &merged.constraints[pos].math, &NoMap);
            self.idx.constraints_by_content.insert(&key, pos);
        }
        if self.options().cache_patterns {
            for pos in start.reactions..merged.reactions.len() {
                let key = equality::reaction_key(options, &merged.reactions[pos], &NoMap);
                let key: Arc<str> = Arc::from(key.as_str());
                self.idx.reactions_by_content.insert_shared(&key, pos);
                self.keys.reactions.push(key);
            }
        }
        for pos in start.events..merged.events.len() {
            let key = equality::event_key(options, &merged.events[pos], &NoMap);
            let key: Arc<str> = Arc::from(key.as_str());
            self.idx.events_by_content.insert_shared(&key, pos);
            self.keys.events.push(key);
        }
        self.delta.clear();
        self.mappings.extend(self.push_maps.drain());
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composer::{compose_many, Composer};
    use sbml_model::builder::ModelBuilder;

    fn chain_model(i: usize) -> Model {
        ModelBuilder::new(format!("m{i}"))
            .compartment("cell", 1.0)
            .species(&format!("S{i}"), i as f64)
            .species(&format!("S{}", i + 1), 0.0)
            .parameter(&format!("k{i}"), 0.1 * (i + 1) as f64)
            .reaction(
                &format!("r{i}"),
                &[format!("S{i}").as_str()],
                &[format!("S{}", i + 1).as_str()],
                &format!("k{i}*S{i}"),
            )
            .build()
    }

    #[test]
    fn session_equals_pairwise_fold_on_chain() {
        let options = ComposeOptions::default();
        let composer = Composer::new(options.clone());
        let models: Vec<Model> = (0..6).map(chain_model).collect();

        let folded = compose_many(&composer, &models);

        let mut session = CompositionSession::new(&options);
        for m in &models {
            session.push(m);
        }
        let chained = session.finish();

        assert_eq!(chained.model, folded.model);
        assert_eq!(chained.log.events, folded.log.events);
        assert_eq!(chained.mappings, folded.mappings);
    }

    #[test]
    fn empty_pushes_follow_pairwise_edges() {
        let options = ComposeOptions::default();
        let composer = Composer::new(options.clone());
        let full = chain_model(3);
        let empty_a = Model::new("left_empty");
        let empty_b = Model::new("right_empty");

        // compose(empty, empty) keeps the second model — so must a session.
        let models = [empty_a.clone(), empty_b.clone()];
        let folded = compose_many(&composer, &models);
        let mut session = CompositionSession::new(&options);
        session.push(&empty_a);
        session.push(&empty_b);
        assert_eq!(session.finish().model, folded.model);

        // empty then full: the full model becomes the base.
        let mut session = CompositionSession::new(&options);
        session.push(&empty_a);
        session.push(&full);
        assert_eq!(session.finish().model, full);

        // full then empty: unchanged, no log events.
        let mut session = CompositionSession::new(&options);
        session.push(&full);
        session.push(&empty_b);
        let result = session.finish();
        assert_eq!(result.model, full);
        assert!(result.log.events.is_empty());
    }

    #[test]
    fn push_owned_moves_the_base() {
        let options = ComposeOptions::default();
        let a = chain_model(0);
        let expected = a.clone();
        let mut session = CompositionSession::new(&options);
        session.push_owned(a);
        session.push_owned(chain_model(1));
        assert_eq!(session.pushes(), 2);
        let result = session.finish();
        assert_eq!(result.model.id, expected.id);
        assert_eq!(result.model.species.len(), 3); // S0, S1, S2 — S1 shared
    }

    #[test]
    fn with_base_equals_compose() {
        let options = ComposeOptions::default();
        let composer = Composer::new(options.clone());
        let a = chain_model(0);
        let b = chain_model(1);
        let pairwise = composer.compose(&a, &b);

        let mut session = CompositionSession::with_base(&options, a.clone());
        session.push(&b);
        let chained = session.finish();
        assert_eq!(chained.model, pairwise.model);
        assert_eq!(chained.log.events, pairwise.log.events);
        assert_eq!(chained.mappings, pairwise.mappings);
    }

    #[test]
    fn self_merge_chain_is_idempotent() {
        let options = ComposeOptions::default();
        let m = chain_model(2);
        let mut session = CompositionSession::new(&options);
        for _ in 0..5 {
            session.push(&m);
        }
        let result = session.finish();
        assert_eq!(result.model.species.len(), m.species.len());
        assert_eq!(result.model.reactions.len(), m.reactions.len());
        assert_eq!(result.model.parameters.len(), m.parameters.len());
        assert_eq!(result.log.conflict_count(), 0);
    }

    #[test]
    fn prepared_pushes_equal_raw_pushes() {
        let options = ComposeOptions::default();
        let models: Vec<Model> = (0..6).map(chain_model).collect();

        let mut raw = CompositionSession::new(&options);
        for m in &models {
            raw.push(m);
        }
        let raw = raw.finish();

        let mut prepared = CompositionSession::new(&options);
        for m in &models {
            prepared.push_prepared(&PreparedModel::new(m, &options));
        }
        assert_eq!(prepared.pushes(), models.len());
        let prepared = prepared.finish();

        assert_eq!(prepared.model, raw.model);
        assert_eq!(prepared.log.events, raw.log.events);
        assert_eq!(prepared.mappings, raw.mappings);
    }

    #[test]
    fn with_prepared_base_equals_compose() {
        let options = ComposeOptions::default();
        let composer = crate::composer::Composer::new(options.clone());
        let (a, b) = (chain_model(0), chain_model(1));
        let pairwise = composer.compose(&a, &b);

        let pa = PreparedModel::new(&a, &options);
        let pb = PreparedModel::new(&b, &options);
        let mut session = CompositionSession::with_prepared_base(&options, &pa);
        session.push_prepared(&pb);
        let chained = session.finish();
        assert_eq!(chained.model, pairwise.model);
        assert_eq!(chained.log.events, pairwise.log.events);
        assert_eq!(chained.mappings, pairwise.mappings);
    }

    #[test]
    fn prepared_and_raw_pushes_interleave() {
        let options = ComposeOptions::default();
        let models: Vec<Model> = (0..4).map(chain_model).collect();
        let mut raw = CompositionSession::new(&options);
        let mut mixed = CompositionSession::new(&options);
        for (i, m) in models.iter().enumerate() {
            raw.push(m);
            if i % 2 == 0 {
                mixed.push_prepared(&PreparedModel::new(m, &options));
            } else {
                mixed.push(m);
            }
        }
        let (raw, mixed) = (raw.finish(), mixed.finish());
        assert_eq!(mixed.model, raw.model);
        assert_eq!(mixed.log.events, raw.log.events);
        assert_eq!(mixed.mappings, raw.mappings);
    }

    #[test]
    fn prepared_function_param_shadowing_a_mapped_id() {
        // Regression: model B's function f2 has a *parameter* named like
        // another component that gets mapped (g → h). The raw path
        // renames the bare body (where the param is a free id), so the
        // prepared path must not treat the lambda-bound view's emptier
        // reference set as clean.
        use sbml_math::infix;
        use sbml_model::FunctionDefinition;

        let mut a = ModelBuilder::new("a").compartment("cell", 1.0).build();
        a.function_definitions.push(FunctionDefinition::new(
            "h",
            vec!["x".into()],
            infix::parse("x*2").unwrap(),
        ));
        let mut b = ModelBuilder::new("b").compartment("cell", 1.0).build();
        b.function_definitions.push(FunctionDefinition::new(
            "g",
            vec!["x".into()],
            infix::parse("x*2").unwrap(), // content-matches h ⇒ mapping g → h
        ));
        b.function_definitions.push(FunctionDefinition::new(
            "f2",
            vec!["g".into()], // param shadows the mapped id
            infix::parse("g+1").unwrap(),
        ));

        let options = ComposeOptions::default();
        let composer = crate::composer::Composer::new(options.clone());
        let raw = composer.compose(&a, &b);
        let prepared = composer.compose_prepared(&composer.prepare(&a), &composer.prepare(&b));
        assert_eq!(prepared.model, raw.model);
        assert_eq!(prepared.log.events, raw.log.events);
        assert_eq!(prepared.mappings, raw.mappings);
    }

    #[test]
    #[should_panic(expected = "different options")]
    fn same_group_count_different_synonyms_rejected() {
        // Regression: two synonym tables with equal group counts but
        // different contents must not fingerprint equal.
        use bio_synonyms::SynonymTable;
        let mut table_a = SynonymTable::new();
        table_a.add_group(["glucose", "dextrose"]);
        let mut table_b = SynonymTable::new();
        table_b.add_group(["ATP", "adenosine triphosphate"]);
        let opts_a = ComposeOptions::default().with_synonyms(table_a);
        let opts_b = ComposeOptions::default().with_synonyms(table_b);
        let p = PreparedModel::new(&chain_model(0), &opts_a);
        let mut session = CompositionSession::new(&opts_b);
        session.push_prepared(&p);
    }

    #[test]
    #[should_panic(expected = "different options")]
    fn mismatched_preparation_is_rejected() {
        let heavy = ComposeOptions::default();
        let light = ComposeOptions::light();
        let p = PreparedModel::new(&chain_model(0), &light);
        let mut session = CompositionSession::new(&heavy);
        session.push_prepared(&p);
    }

    #[test]
    fn ablations_do_not_change_output() {
        let heavy = ComposeOptions::default();
        let no_pattern_cache = ComposeOptions::default().with_pattern_cache(false);
        let btree = ComposeOptions::default().with_index(crate::IndexKind::BTree);
        let linear = ComposeOptions::default().with_index(crate::IndexKind::LinearScan);
        let models: Vec<Model> = (0..5).map(chain_model).collect();

        let run = |options: &ComposeOptions| {
            let mut session = CompositionSession::new(options);
            for m in &models {
                session.push(m);
            }
            session.finish()
        };

        let baseline = run(&heavy);
        for options in [&no_pattern_cache, &btree, &linear] {
            let other = run(options);
            assert_eq!(other.model, baseline.model);
            assert_eq!(other.log.events, baseline.log.events);
            assert_eq!(other.mappings, baseline.mappings);
        }
    }

    #[test]
    fn incremental_values_track_collect_across_pushes() {
        // After every push, the session's value snapshot must equal a
        // fresh batch collect over the accumulator, across prepared/raw
        // interleavings.
        let options = ComposeOptions::default();
        let mut session = CompositionSession::new(&options);
        for (i, m) in (0..5).map(chain_model).enumerate() {
            if i % 2 == 0 {
                session.push(&m);
            } else {
                session.push_prepared(&PreparedModel::new(&m, &options));
            }
            assert_eq!(
                session.current_initial_values(),
                crate::initial_values::collect(session.model()),
                "push {i}"
            );
        }
    }

    #[test]
    fn incremental_values_survive_prepared_base_adoption() {
        let options = ComposeOptions::default();
        let base = PreparedModel::new(&chain_model(0), &options);
        let mut session = CompositionSession::with_prepared_base(&options, &base);
        session.push(&chain_model(1));
        assert_eq!(
            session.current_initial_values(),
            crate::initial_values::collect(session.model())
        );
        session.push(&chain_model(2));
        assert_eq!(
            session.current_initial_values(),
            crate::initial_values::collect(session.model())
        );
    }

    /// A conflict-heavy model: species ids diverge per version but share
    /// display names (name-mapped), parameters share ids with diverging
    /// values (conflict-renamed), and rules/constraints/reactions/events
    /// all reference the mapped ids — every math-bearing pass has to
    /// revalidate its cached keys under live mappings.
    fn conflict_model(v: usize) -> Model {
        use sbml_math::infix;
        use sbml_model::{Event, EventAssignment, Rule};

        let mut b = ModelBuilder::new(format!("cm{v}")).compartment("cell", 1.0);
        for j in 0..6 {
            b = b.species_named(&format!("s{v}_{j}"), &format!("spec{j}"), j as f64);
        }
        for j in 0..4 {
            b = b.parameter(&format!("k{j}"), 0.1 * (v as f64 + 1.0) * (j as f64 + 1.0));
        }
        for j in 0..4 {
            b = b.parameter(&format!("rv{v}_{j}"), 0.0);
        }
        for j in 0..4 {
            let (a, c) = (format!("s{v}_{}", j % 6), format!("s{v}_{}", (j + 1) % 6));
            b = b.reaction(
                &format!("r{v}_{j}"),
                &[a.as_str()],
                &[c.as_str()],
                &format!("k{j}*{a} + k{}*{c}", (j + 1) % 4),
            );
        }
        let mut m = b.build();
        for j in 0..3 {
            m.rules.push(Rule::Assignment {
                variable: format!("rv{v}_{j}"),
                math: infix::parse(&format!("k{j} * s{v}_{j} + s{v}_{}", j + 1)).unwrap(),
            });
        }
        for j in 0..2 {
            m.constraints.push(sbml_model::rule::Constraint {
                math: infix::parse(&format!("s{v}_{j} >= 0")).unwrap(),
                message: None,
            });
        }
        for j in 0..2 {
            let mut ev = Event::new(infix::parse(&format!("s{v}_{j} > k{j}")).unwrap());
            ev.id = Some(format!("ev{v}_{j}"));
            ev.assignments.push(EventAssignment {
                variable: format!("s{v}_{j}"),
                math: infix::parse(&format!("s{v}_{j} + 1")).unwrap(),
            });
            m.events.push(ev);
        }
        m
    }

    /// Push every model through one session, raw or prepared.
    fn run_chain(options: &ComposeOptions, models: &[Model], prepared: bool) -> ComposeResult {
        let mut session = CompositionSession::new(options);
        for m in models {
            if prepared {
                session.push_prepared(&PreparedModel::new(m, options));
            } else {
                session.push(m);
            }
        }
        session.finish()
    }

    #[test]
    fn conflict_chain_session_equals_pairwise_fold() {
        // Conflict-heavy pushes: species mapped by name, parameters
        // renamed on value conflicts, every later pass revalidating keys
        // under those mappings. Raw and prepared sessions must both equal
        // the seed pairwise fold (a fresh compose and re-index per step).
        let models: Vec<Model> = (0..4).map(conflict_model).collect();
        let options = ComposeOptions::default();
        let folded = crate::composer::compose_many_pairwise(&Composer::new(options.clone()), &models);
        assert!(
            folded.log.events.iter().any(|e| e.kind == crate::EventKind::Mapped),
            "conflict corpus must actually produce mappings"
        );
        for prepared in [false, true] {
            let out = run_chain(&options, &models, prepared);
            assert_eq!(out.model, folded.model, "prepared={prepared}");
            assert_eq!(out.log.events, folded.log.events, "prepared={prepared}");
            assert_eq!(out.mappings, folded.mappings, "prepared={prepared}");
        }
    }

    #[test]
    fn cross_kind_id_families_prepared_equals_raw() {
        // Adversarial id overlaps across kinds: an incoming parameter and
        // an incoming species fighting over one id family, a function id
        // colliding with a pre-existing species id, and references to the
        // winners from math-bearing kinds. The prepared push (cached keys
        // revalidated under the push's mappings) must equal the raw push
        // (every key computed inline) byte for byte.
        use sbml_math::infix;
        use sbml_model::{FunctionDefinition, Rule};

        let mut a = ModelBuilder::new("a")
            .compartment("cell", 1.0)
            .species("x", 1.0)
            .species("x_1", 2.0)
            .parameter("k", 1.0)
            .build();
        a.function_definitions.push(FunctionDefinition::new(
            "f",
            vec!["p".into()],
            infix::parse("p*2").unwrap(),
        ));

        let mut b = ModelBuilder::new("b")
            .compartment("cell", 1.0)
            // Species `x` id-hits A's; `x_2` is fresh but probes the same
            // family; parameter `x_9` claims into the family from a later
            // pass.
            .species("x", 9.0) // conflicting value -> Conflict, first wins
            .species("x_2", 3.0)
            .parameter("x_9", 5.0)
            .parameter("k", 7.0) // value conflict -> renamed k_1, mapping k->k_1
            .build();
        // Function under A's species id: claim_id must rename it.
        b.function_definitions.push(FunctionDefinition::new(
            "x_1",
            vec!["p".into()],
            infix::parse("p+3").unwrap(),
        ));
        b.rules.push(Rule::Assignment {
            variable: "x_9".into(),
            math: infix::parse("k * x + x_2").unwrap(),
        });
        let mut r = sbml_model::Reaction::new("rx");
        r.reactants.push(sbml_model::SpeciesReference::new("x"));
        r.products.push(sbml_model::SpeciesReference::new("x_2"));
        r.kinetic_law =
            Some(sbml_model::KineticLaw::new(infix::parse("x_1(k) * x").unwrap()));
        b.reactions.push(r);

        let options = ComposeOptions::default();
        let models = [a, b];
        let raw = run_chain(&options, &models, false);
        assert_eq!(raw.mappings.get("k").map(String::as_str), Some("k_1"));
        assert!(raw.mappings.contains_key("x_1"), "the clashing function id is renamed");
        let prepared = run_chain(&options, &models, true);
        assert_eq!(prepared.model, raw.model);
        assert_eq!(prepared.log.events, raw.log.events);
        assert_eq!(prepared.mappings, raw.mappings);
    }

    #[test]
    fn id_hit_on_a_component_added_earlier_in_the_same_push() {
        // Incoming `f` collides with the base's species `f` and is renamed
        // `f_1`; the incoming model's own `f_1` then hits that function by
        // id before `finish_push` has cached its key. The comparison must
        // use the renamed function's key, exactly as a later push would.
        // Events follow the same path.
        let a = ModelBuilder::new("a")
            .compartment("cell", 1.0)
            .species("f", 1.0)
            .species("e", 1.0)
            .build();
        let second = |f1_body: &str, e1_trigger: &str| {
            ModelBuilder::new("b")
                .compartment("cell", 1.0)
                .function("f", &["x"], "x*2")
                .function("f_1", &["x"], f1_body)
                .event("e", "time > 1", &[])
                .event("e_1", e1_trigger, &[])
                .build()
        };
        let options = ComposeOptions::default();
        for (b, kind) in [
            (second("x*2", "time > 1"), crate::EventKind::Duplicate),
            (second("x*3", "time > 2"), crate::EventKind::Conflict),
        ] {
            let models = [a.clone(), b];
            let raw = run_chain(&options, &models, false);
            let prepared = run_chain(&options, &models, true);
            assert_eq!(prepared.model, raw.model);
            assert_eq!(prepared.log.events, raw.log.events);
            for (component, id) in [("functionDefinition", "f_1"), ("event", "e_1")] {
                assert!(
                    raw.log.events.iter().any(|e| {
                        e.component == component && e.incoming_id == id && e.kind == kind
                    }),
                    "{component} {id} must be logged as {kind:?}"
                );
            }
        }
    }
}
