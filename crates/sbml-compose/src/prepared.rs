//! Per-model analysis as a reusable, shareable artifact.
//!
//! Everything the composition engine derives from a single model —
//! canonical content keys, per-kind lookup indexes, evaluated initial
//! values, the set of taken global ids — is independent of whatever that
//! model is later composed *with*. [`PreparedModel`] computes the whole
//! analysis once, up front, and every entry point
//! ([`Composer::compose_prepared`], [`CompositionSession::push_prepared`],
//! [`crate::compose_many_prepared`], [`crate::BatchComposer::all_pairs`])
//! consumes the artifact instead of re-deriving the analysis per call.
//!
//! The artifact is immutable and `Send + Sync`: wrap it in an
//! [`Arc`] and share one preparation across any number of
//! concurrent compositions — the batch all-pairs workload composes each
//! corpus model against 186 partners from a single `PreparedModel` each.
//!
//! Two kinds of cached keys live here:
//!
//! * **base-side** (`ModelAnalysis`): the persistent indexes and
//!   canonical (unmapped) content keys a [`CompositionSession`] maintains
//!   over its accumulator. Adopting a prepared base clones these instead of
//!   rebuilding them (`reindex`) from the model.
//! * **incoming-side** (`IncomingKeys`): the content/name keys of each
//!   component *as the merge pass would compute them for the second model*.
//!   Name and unit keys never depend on the in-flight ID mappings and are
//!   reused unconditionally; math-bearing keys (functions, rules,
//!   constraints, reactions, events) are reused exactly while the current
//!   push has recorded no mappings — the cached unmapped key is
//!   byte-identical to the mapped key under an empty mapping table — and
//!   recomputed from the first mapping onwards. Output is therefore
//!   bit-for-bit identical to the unprepared path.
//!
//! [`Composer::compose_prepared`]: crate::composer::Composer::compose_prepared
//! [`CompositionSession::push_prepared`]: crate::session::CompositionSession::push_prepared
//! [`CompositionSession`]: crate::session::CompositionSession

use std::collections::BTreeSet;
use std::sync::Arc;

use sbml_math::rewrite::collect_identifiers;
use sbml_math::MathExpr;
use sbml_model::{Event, FunctionDefinition, Model, Reaction, Rule};

use crate::equality::MatchContext;
use crate::index::ComponentIndex;
use crate::initial_values::{collect, InitialValues};
use crate::options::{ComposeOptions, OptionsFingerprint};

/// Persistent per-kind indexes over a model (paper Fig. 5 line 5, without
/// the per-pass rebuild). Maintained live by a session over its
/// accumulator; precomputed once per model by [`PreparedModel`].
#[derive(Debug, Clone)]
pub(crate) struct Indexes {
    pub(crate) functions_by_id: ComponentIndex,
    pub(crate) functions_by_content: ComponentIndex,
    pub(crate) units_by_id: ComponentIndex,
    pub(crate) units_by_content: ComponentIndex,
    pub(crate) compartment_types_by_id: ComponentIndex,
    pub(crate) compartment_types_by_name: ComponentIndex,
    pub(crate) species_types_by_id: ComponentIndex,
    pub(crate) species_types_by_name: ComponentIndex,
    pub(crate) compartments_by_id: ComponentIndex,
    pub(crate) compartments_by_name: ComponentIndex,
    pub(crate) species_by_id: ComponentIndex,
    pub(crate) species_by_name: ComponentIndex,
    pub(crate) parameters_by_id: ComponentIndex,
    pub(crate) assignments_by_symbol: ComponentIndex,
    pub(crate) rules_by_content: ComponentIndex,
    pub(crate) rules_by_variable: ComponentIndex,
    pub(crate) constraints_by_content: ComponentIndex,
    pub(crate) reactions_by_id: ComponentIndex,
    pub(crate) reactions_by_content: ComponentIndex,
    pub(crate) events_by_id: ComponentIndex,
    pub(crate) events_by_content: ComponentIndex,
}

impl Indexes {
    pub(crate) fn new(options: &ComposeOptions) -> Indexes {
        Indexes::with_kind(options.index)
    }

    pub(crate) fn with_kind(kind: crate::index::IndexKind) -> Indexes {
        let mk = || ComponentIndex::new(kind);
        Indexes {
            functions_by_id: mk(),
            functions_by_content: mk(),
            units_by_id: mk(),
            units_by_content: mk(),
            compartment_types_by_id: mk(),
            compartment_types_by_name: mk(),
            species_types_by_id: mk(),
            species_types_by_name: mk(),
            compartments_by_id: mk(),
            compartments_by_name: mk(),
            species_by_id: mk(),
            species_by_name: mk(),
            parameters_by_id: mk(),
            assignments_by_symbol: mk(),
            rules_by_content: mk(),
            rules_by_variable: mk(),
            constraints_by_content: mk(),
            reactions_by_id: mk(),
            reactions_by_content: mk(),
            events_by_id: mk(),
            events_by_content: mk(),
        }
    }
}

/// Canonical merged-side content keys per component position, interned as
/// `Arc<str>` shared with the content indexes. Only the kinds whose merge
/// pass compares keys on an id hit are cached; reaction keys are left out
/// when [`ComposeOptions::cache_patterns`] is off.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyCache {
    pub(crate) functions: Vec<Arc<str>>,
    pub(crate) units: Vec<Arc<str>>,
    pub(crate) reactions: Vec<Arc<str>>,
    pub(crate) events: Vec<Arc<str>>,
}

/// The base-side analysis of one model: what a session's `reindex` derives
/// from its accumulator, packaged so it can be computed once and cloned.
#[derive(Debug, Clone)]
pub(crate) struct ModelAnalysis {
    /// Every global id of the model (the session's duplicate-id registry),
    /// behind an `Arc` so adopting it is a refcount bump, not a clone of
    /// every id string.
    pub(crate) taken: Arc<crate::index::FastSet<String>>,
    /// Per-kind lookup indexes.
    pub(crate) idx: Indexes,
    /// Canonical content keys (respects the pattern-cache ablation).
    pub(crate) keys: KeyCache,
}

/// Per-component *incoming* keys: the canonical keys of each component as
/// the merge pass computes them for a second model before any ID mapping
/// has been recorded. Positional — entry `i` belongs to component `i`.
///
/// The mapping-sensitive kinds additionally carry each component's *free
/// reference set* (see [`IncomingRefs`]): the cached key equals the mapped
/// key exactly when none of those identifiers has a mapping, which lets
/// the merge reuse the cache far beyond the no-mappings-yet window.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct IncomingKeys {
    pub(crate) functions: Vec<Arc<str>>,
    pub(crate) units: Vec<Arc<str>>,
    pub(crate) compartment_types: Vec<Arc<str>>,
    pub(crate) species_types: Vec<Arc<str>>,
    pub(crate) compartments: Vec<Arc<str>>,
    pub(crate) species: Vec<Arc<str>>,
    pub(crate) rules: Vec<Arc<str>>,
    pub(crate) constraints: Vec<Arc<str>>,
    pub(crate) reactions: Vec<Arc<str>>,
    pub(crate) events: Vec<Arc<str>>,
    /// Free-reference sets of the mapping-sensitive kinds. Fresh
    /// preparations fill the cell eagerly (the sets fall out of the same
    /// pass that computes the keys); snapshot loads leave it empty and
    /// [`IncomingKeys::refs`] derives it from the model on the first
    /// compose use — refs are pure derived state (no canonicalisation,
    /// no options), so the snapshot format does not persist them.
    pub(crate) refs: std::sync::OnceLock<IncomingRefs>,
}

/// Per-component *free reference sets* of the mapping-sensitive kinds:
/// every identifier each component's key derivation would run through the
/// mapping table. Positional — entry `i` belongs to component `i` of the
/// corresponding model list. A pure function of the model (no
/// canonicalisation, no options), which is why it can live behind a
/// `OnceLock` and be rebuilt on demand after a snapshot load.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct IncomingRefs {
    pub(crate) functions: Vec<Box<[Arc<str>]>>,
    pub(crate) rules: Vec<Box<[Arc<str>]>>,
    pub(crate) constraints: Vec<Box<[Arc<str>]>>,
    pub(crate) reactions: Vec<Box<[Arc<str>]>>,
    /// Free identifiers of the kinetic law alone (no participants): the
    /// cached math *section* of a reaction key stays valid as long as
    /// these are unmapped, even when a participant has been renamed.
    pub(crate) reaction_math: Vec<Box<[Arc<str>]>>,
    pub(crate) events: Vec<Box<[Arc<str>]>>,
}

impl IncomingRefs {
    /// Collect every free-reference set of `model`, in positional order.
    fn build(model: &Model) -> IncomingRefs {
        let (reactions, reaction_math) = model.reactions.iter().map(reaction_refs).unzip();
        IncomingRefs {
            functions: model.function_definitions.iter().map(function_refs).collect(),
            rules: model.rules.iter().map(rule_refs).collect(),
            constraints: model.constraints.iter().map(|c| constraint_refs(&c.math)).collect(),
            reactions,
            reaction_math,
            events: model.events.iter().map(event_refs).collect(),
        }
    }
}

// Per-kind free-reference helpers of [`IncomingRefs::build`].

/// Refs come from the BARE body, where params are free: the merge renames
/// `f.body` directly (params included), so a param sharing a name with a
/// mapped id must count as a reference. For the content key this is merely
/// conservative (the pattern binds params positionally).
fn function_refs(f: &FunctionDefinition) -> Box<[Arc<str>]> {
    collect_identifiers(&f.body).into_iter().map(Arc::from).collect()
}

fn rule_refs(r: &Rule) -> Box<[Arc<str>]> {
    let mut refs = collect_identifiers(r.math());
    if let Some(v) = r.variable() {
        refs.insert(v.to_owned());
    }
    refs.into_iter().map(Arc::from).collect()
}

fn constraint_refs(math: &MathExpr) -> Box<[Arc<str>]> {
    collect_identifiers(math).into_iter().map(Arc::from).collect()
}

/// A reaction's full reference set (kinetic-law ids plus participants) and
/// the kinetic-law-only subset that governs reuse of the cached math
/// *section* of its key.
fn reaction_refs(r: &Reaction) -> (Box<[Arc<str>]>, Box<[Arc<str>]>) {
    let math_refs = match &r.kinetic_law {
        Some(kl) => collect_identifiers(&kl.math),
        None => BTreeSet::new(),
    };
    let mut refs = math_refs.clone();
    for sr in r.reactants.iter().chain(&r.products).chain(&r.modifiers) {
        refs.insert(sr.species.clone());
    }
    (
        refs.into_iter().map(Arc::from).collect(),
        math_refs.into_iter().map(Arc::from).collect(),
    )
}

fn event_refs(ev: &Event) -> Box<[Arc<str>]> {
    let mut refs = collect_identifiers(&ev.trigger);
    if let Some(delay) = &ev.delay {
        refs.append(&mut collect_identifiers(delay));
    }
    for a in &ev.assignments {
        refs.insert(a.variable.clone());
        refs.append(&mut collect_identifiers(&a.math));
    }
    refs.into_iter().map(Arc::from).collect()
}

/// Every canonical content/name key of `model` under `options`, one per
/// keyed component in Fig. 4 kind order — the same key families
/// [`PreparedModel::content_keys`] exposes from a full preparation,
/// derived directly for callers (e.g. match queries) that need the
/// key-set identity of a model but none of the preparation's indexes or
/// initial values. The two enumerations are pinned together by a unit
/// test so they cannot drift.
pub fn model_content_keys(model: &Model, options: &ComposeOptions) -> Vec<String> {
    let ctx = MatchContext::new(options);
    let mut keys = Vec::with_capacity(
        model.function_definitions.len()
            + model.unit_definitions.len()
            + model.compartment_types.len()
            + model.species_types.len()
            + model.compartments.len()
            + model.species.len()
            + model.rules.len()
            + model.constraints.len()
            + model.reactions.len()
            + model.events.len(),
    );
    keys.extend(model.function_definitions.iter().map(|f| ctx.function_key(f, false)));
    keys.extend(model.unit_definitions.iter().map(|u| ctx.unit_key(u)));
    keys.extend(model.compartment_types.iter().map(|t| ctx.name_key(&t.id, t.name.as_deref())));
    keys.extend(model.species_types.iter().map(|t| ctx.name_key(&t.id, t.name.as_deref())));
    keys.extend(model.compartments.iter().map(|c| ctx.name_key(&c.id, c.name.as_deref())));
    keys.extend(model.species.iter().map(|s| ctx.name_key(&s.id, s.name.as_deref())));
    keys.extend(model.rules.iter().map(|r| ctx.rule_key(r, false)));
    keys.extend(model.constraints.iter().map(|c| ctx.constraint_key(&c.math, false)));
    keys.extend(model.reactions.iter().map(|r| ctx.reaction_key(r, false)));
    keys.extend(model.events.iter().map(|ev| ctx.event_key(ev, false)));
    keys
}

/// The serialisable raw parts of a [`PreparedModel`]: the model itself,
/// every cached canonical key family (positional with the model's
/// component lists, Fig. 4 kind order), and the evaluated initial values
/// (sorted by symbol). Produced by [`PreparedModel::to_raw`], consumed by
/// [`PreparedModel::from_raw`]; the `sbml-serve` snapshot format is a
/// binary encoding of exactly this struct per corpus model.
///
/// Everything *not* here — the taken-id set, the per-kind lookup indexes,
/// the key cache, the free-reference sets — is cheap
/// derived state that the preparation rebuilds on demand from these parts,
/// with no canonicalisation, synonym closure or math evaluation. (The
/// reference sets in particular are a pure function of the model, so
/// persisting them would only store what one model walk re-derives.)
#[derive(Debug, Clone, Default)]
pub struct RawPrepared {
    /// The model the preparation belongs to.
    pub model: Model,
    /// Canonical content key per function definition.
    pub function_keys: Vec<Arc<str>>,
    /// Canonical signature key per unit definition.
    pub unit_keys: Vec<Arc<str>>,
    /// Canonical name key per compartment type.
    pub compartment_type_keys: Vec<Arc<str>>,
    /// Canonical name key per species type.
    pub species_type_keys: Vec<Arc<str>>,
    /// Canonical name key per compartment.
    pub compartment_keys: Vec<Arc<str>>,
    /// Canonical name key per species.
    pub species_keys: Vec<Arc<str>>,
    /// Canonical content key per rule.
    pub rule_keys: Vec<Arc<str>>,
    /// Canonical content key per constraint.
    pub constraint_keys: Vec<Arc<str>>,
    /// Canonical content key per reaction.
    pub reaction_keys: Vec<Arc<str>>,
    /// Canonical content key per event.
    pub event_keys: Vec<Arc<str>>,
    /// Evaluated initial values, sorted by symbol.
    pub initial_values: Vec<(String, f64)>,
}

impl IncomingKeys {
    /// The free-reference sets, deriving them from `model` on first use
    /// after a snapshot load (fresh preparations store them pre-filled).
    /// Thread-safe; at most one derivation ever runs.
    pub(crate) fn refs(&self, model: &Model) -> &IncomingRefs {
        self.refs.get_or_init(|| IncomingRefs::build(model))
    }
}

impl ModelAnalysis {
    /// Analyse `model` under `options`. With `incoming` set, additionally
    /// collect the positional incoming-side keys (what [`PreparedModel`]
    /// needs); a session's own `reindex` skips them.
    pub(crate) fn build(
        model: &Model,
        options: &ComposeOptions,
        incoming: Option<&mut IncomingKeys>,
    ) -> ModelAnalysis {
        let ctx = MatchContext::new(options);
        let mut analysis = ModelAnalysis {
            taken: Arc::new(model.global_ids().into_iter().collect()),
            idx: Indexes::new(options),
            keys: KeyCache::default(),
        };
        let idx = &mut analysis.idx;
        let keys = &mut analysis.keys;
        let mut inc = incoming;

        for (i, f) in model.function_definitions.iter().enumerate() {
            idx.functions_by_id.insert(&f.id, i);
            let key: Arc<str> = Arc::from(ctx.function_key(f, false).as_str());
            idx.functions_by_content.insert_shared(&key, i);
            keys.functions.push(Arc::clone(&key));
            if let Some(inc) = inc.as_deref_mut() {
                inc.functions.push(key);
            }
        }
        for (i, u) in model.unit_definitions.iter().enumerate() {
            idx.units_by_id.insert(&u.id, i);
            let key: Arc<str> = Arc::from(ctx.unit_key(u).as_str());
            idx.units_by_content.insert_shared(&key, i);
            keys.units.push(Arc::clone(&key));
            if let Some(inc) = inc.as_deref_mut() {
                inc.units.push(key);
            }
        }
        for (i, t) in model.compartment_types.iter().enumerate() {
            idx.compartment_types_by_id.insert(&t.id, i);
            let key: Arc<str> = Arc::from(ctx.name_key(&t.id, t.name.as_deref()).as_str());
            idx.compartment_types_by_name.insert_shared(&key, i);
            if let Some(inc) = inc.as_deref_mut() {
                inc.compartment_types.push(key);
            }
        }
        for (i, t) in model.species_types.iter().enumerate() {
            idx.species_types_by_id.insert(&t.id, i);
            let key: Arc<str> = Arc::from(ctx.name_key(&t.id, t.name.as_deref()).as_str());
            idx.species_types_by_name.insert_shared(&key, i);
            if let Some(inc) = inc.as_deref_mut() {
                inc.species_types.push(key);
            }
        }
        for (i, c) in model.compartments.iter().enumerate() {
            idx.compartments_by_id.insert(&c.id, i);
            let key: Arc<str> = Arc::from(ctx.name_key(&c.id, c.name.as_deref()).as_str());
            idx.compartments_by_name.insert_shared(&key, i);
            if let Some(inc) = inc.as_deref_mut() {
                inc.compartments.push(key);
            }
        }
        for (i, s) in model.species.iter().enumerate() {
            idx.species_by_id.insert(&s.id, i);
            let key: Arc<str> = Arc::from(ctx.name_key(&s.id, s.name.as_deref()).as_str());
            idx.species_by_name.insert_shared(&key, i);
            if let Some(inc) = inc.as_deref_mut() {
                inc.species.push(key);
            }
        }
        for (i, p) in model.parameters.iter().enumerate() {
            idx.parameters_by_id.insert(&p.id, i);
        }
        for (i, ia) in model.initial_assignments.iter().enumerate() {
            idx.assignments_by_symbol.insert(&ia.symbol, i);
        }
        for (i, r) in model.rules.iter().enumerate() {
            let key: Arc<str> = Arc::from(ctx.rule_key(r, false).as_str());
            idx.rules_by_content.insert_shared(&key, i);
            if let Some(v) = r.variable() {
                idx.rules_by_variable.insert(v, i);
            }
            if let Some(inc) = inc.as_deref_mut() {
                inc.rules.push(key);
            }
        }
        for (i, c) in model.constraints.iter().enumerate() {
            let key: Arc<str> = Arc::from(ctx.constraint_key(&c.math, false).as_str());
            idx.constraints_by_content.insert_shared(&key, i);
            if let Some(inc) = inc.as_deref_mut() {
                inc.constraints.push(key);
            }
        }
        let rxn_content = options.cache_patterns;
        for (i, r) in model.reactions.iter().enumerate() {
            idx.reactions_by_id.insert(&r.id, i);
            // Incoming reaction keys are always needed (the merge pass
            // computes one per incoming reaction regardless of caching),
            // but the by-content index honours the pattern-cache ablation.
            if rxn_content || inc.is_some() {
                let key: Arc<str> = Arc::from(ctx.reaction_key(r, false).as_str());
                if rxn_content {
                    idx.reactions_by_content.insert_shared(&key, i);
                    keys.reactions.push(Arc::clone(&key));
                }
                if let Some(inc) = inc.as_deref_mut() {
                    inc.reactions.push(key);
                }
            }
        }
        for (i, ev) in model.events.iter().enumerate() {
            if let Some(id) = &ev.id {
                idx.events_by_id.insert(id, i);
            }
            let key: Arc<str> = Arc::from(ctx.event_key(ev, false).as_str());
            idx.events_by_content.insert_shared(&key, i);
            keys.events.push(Arc::clone(&key));
            if let Some(inc) = inc.as_deref_mut() {
                inc.events.push(key);
            }
        }
        // Fresh preparations carry their reference sets pre-filled (the
        // incoming path is exactly where the merge will need them).
        if let Some(inc) = inc {
            let _ = inc.refs.set(IncomingRefs::build(model));
        }
        analysis
    }
}

/// A model bundled with its precomputed composition analysis: canonical
/// content keys, per-kind indexes, evaluated initial values and the global
/// id set — see the [module docs](self).
///
/// Produced by [`PreparedModel::new`] or
/// [`Composer::prepare`](crate::Composer::prepare); immutable afterwards,
/// so one preparation (typically behind an [`Arc`]) can
/// serve any number of concurrent compositions.
///
/// ```
/// use std::sync::Arc;
/// use sbml_compose::{ComposeOptions, Composer};
/// use sbml_model::builder::ModelBuilder;
///
/// let composer = Composer::new(ComposeOptions::default());
/// let hub = Arc::new(composer.prepare(
///     &ModelBuilder::new("hub").compartment("cell", 1.0).species("ATP", 1.0).build(),
/// ));
/// let spoke = composer.prepare(
///     &ModelBuilder::new("spoke").compartment("cell", 1.0).species("ATP", 1.0).build(),
/// );
/// // The hub's analysis is reused by every pair it participates in.
/// let merged = composer.compose_prepared(&hub, &spoke);
/// assert_eq!(merged.model.species.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PreparedModel {
    model: Model,
    fingerprint: OptionsFingerprint,
    /// The base-side analysis. Fresh preparations fill it eagerly (the
    /// keys come out of the same canonicalisation pass); snapshot loads
    /// leave it empty and [`PreparedModel::analysis`] rebuilds it from
    /// the cached incoming keys on the first composition use — corpus
    /// models that only ever answer match queries never pay for it.
    analysis: Arc<std::sync::OnceLock<ModelAnalysis>>,
    /// The option bits the lazy analysis rebuild needs (the full options
    /// — synonym table included — are not required: nothing is
    /// re-canonicalised).
    analysis_config: AnalysisConfig,
    pub(crate) incoming: IncomingKeys,
    pub(crate) initial_values: Arc<InitialValues>,
}

/// The slice of [`ComposeOptions`] that shapes a [`ModelAnalysis`] built
/// from already-canonical keys: the index structure and the pattern-cache
/// ablation flag.
#[derive(Debug, Clone, Copy)]
struct AnalysisConfig {
    index: crate::index::IndexKind,
    cache_patterns: bool,
}

impl AnalysisConfig {
    fn of(options: &ComposeOptions) -> AnalysisConfig {
        AnalysisConfig {
            index: options.index,
            cache_patterns: options.cache_patterns,
        }
    }
}

impl PreparedModel {
    /// Analyse `model` once under `options`. The preparation is only valid
    /// for composition under options with the same
    /// [fingerprint](ComposeOptions::fingerprint); every prepared entry
    /// point checks this and panics on a mismatch rather than silently
    /// composing with stale keys.
    pub fn new(model: &Model, options: &ComposeOptions) -> PreparedModel {
        PreparedModel::from_model(model.clone(), options)
    }

    /// As [`PreparedModel::new`], but takes the model by value — no clone.
    pub fn from_model(model: Model, options: &ComposeOptions) -> PreparedModel {
        let mut incoming = IncomingKeys::default();
        let analysis = ModelAnalysis::build(&model, options, Some(&mut incoming));
        let initial_values = Arc::new(if options.collect_initial_values {
            collect(&model)
        } else {
            InitialValues::default()
        });
        // The analysis fell out of the same canonicalisation pass that
        // produced the keys — store it filled.
        let cell = std::sync::OnceLock::new();
        let _ = cell.set(analysis);
        PreparedModel {
            model,
            fingerprint: options.fingerprint(),
            analysis: Arc::new(cell),
            analysis_config: AnalysisConfig::of(options),
            incoming,
            initial_values,
        }
    }

    /// The base-side analysis, rebuilding it from the cached incoming
    /// keys on first use after a snapshot load (fresh preparations carry
    /// it pre-filled). Thread-safe; at most one rebuild ever runs.
    pub(crate) fn analysis(&self) -> &ModelAnalysis {
        self.analysis.get_or_init(|| {
            ModelAnalysis::from_incoming(&self.model, &self.incoming, self.analysis_config)
        })
    }

    /// The model this preparation belongs to.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The options fingerprint the analysis was computed under.
    pub fn fingerprint(&self) -> OptionsFingerprint {
        self.fingerprint
    }

    /// The evaluated initial values collected at preparation time (empty
    /// when the options disabled collection).
    pub fn initial_values(&self) -> &InitialValues {
        &self.initial_values
    }

    /// Canonical name key of every species, positional with
    /// `model().species` — the exact keys the species merge pass compares
    /// (synonym-closed display names under heavy/light semantics, raw ids
    /// under none). Exposed so the matching layer (`sbml-match`) can
    /// invert them into posting lists instead of re-deriving them.
    pub fn species_name_keys(&self) -> &[Arc<str>] {
        &self.incoming.species
    }

    /// Canonical content key of every reaction, positional with
    /// `model().reactions` — participant multisets plus the kinetic-law
    /// pattern (commutativity-canonical under heavy semantics). The
    /// id-independent reaction identity corpus matching indexes.
    pub fn reaction_content_keys(&self) -> &[Arc<str>] {
        &self.incoming.reactions
    }

    /// Every canonical content/name key of the preparation, one per keyed
    /// component, in Fig. 4 kind order (functions, units, types,
    /// compartments, species, rules, constraints, reactions, events) —
    /// the key-set identity of the model's content, used for Jaccard
    /// similarity scoring in approximate corpus matching.
    pub fn content_keys(&self) -> impl Iterator<Item = &Arc<str>> {
        let inc = &self.incoming;
        inc.functions
            .iter()
            .chain(&inc.units)
            .chain(&inc.compartment_types)
            .chain(&inc.species_types)
            .chain(&inc.compartments)
            .chain(&inc.species)
            .chain(&inc.rules)
            .chain(&inc.constraints)
            .chain(&inc.reactions)
            .chain(&inc.events)
    }

    /// Decompose the preparation into its serialisable raw parts: the
    /// model, every cached canonical key family, and the evaluated
    /// initial values. The parts are exactly what
    /// [`PreparedModel::from_raw`] needs to reconstruct the preparation
    /// without re-canonicalising a single key — the `sbml-serve` snapshot
    /// format persists them verbatim. (Free-reference sets are *not*
    /// part of the raw form: they are derived from the model on first
    /// compose use.)
    pub fn to_raw(&self) -> RawPrepared {
        let inc = &self.incoming;
        let mut initial_values: Vec<(String, f64)> =
            self.initial_values.values.iter().map(|(k, v)| (k.clone(), *v)).collect();
        initial_values.sort_by(|a, b| a.0.cmp(&b.0));
        RawPrepared {
            model: self.model.clone(),
            function_keys: inc.functions.clone(),
            unit_keys: inc.units.clone(),
            compartment_type_keys: inc.compartment_types.clone(),
            species_type_keys: inc.species_types.clone(),
            compartment_keys: inc.compartments.clone(),
            species_keys: inc.species.clone(),
            rule_keys: inc.rules.clone(),
            constraint_keys: inc.constraints.clone(),
            reaction_keys: inc.reactions.clone(),
            event_keys: inc.events.clone(),
            initial_values,
        }
    }

    /// Reassemble a preparation from raw parts produced by
    /// [`PreparedModel::to_raw`] (possibly via a round-trip through disk).
    ///
    /// Nothing is re-canonicalised: the cached keys are taken as given
    /// and the cheap derived state — the taken-id set, the per-kind
    /// lookup indexes, the key cache — is rebuilt from them by plain
    /// hash-map insertion, mirroring the control flow of the fresh
    /// analysis (including the `cache_patterns` ablation). The caller is
    /// responsible for checking that `options` carries the fingerprint
    /// the parts were prepared under (the
    /// snapshot loader verifies the recorded
    /// [`OptionsFingerprint::stable_hash`] before calling this);
    /// structural mismatches between the parts and the model are reported
    /// as errors, never panics.
    pub fn from_raw(raw: RawPrepared, options: &ComposeOptions) -> Result<PreparedModel, String> {
        let model = raw.model;
        let check = |family: &str, got: usize, want: usize| -> Result<(), String> {
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "prepared parts for {:?} are inconsistent: {family} has {got} entries, \
                     model has {want}",
                    model.id
                ))
            }
        };
        check("function keys", raw.function_keys.len(), model.function_definitions.len())?;
        check("unit keys", raw.unit_keys.len(), model.unit_definitions.len())?;
        check(
            "compartment type keys",
            raw.compartment_type_keys.len(),
            model.compartment_types.len(),
        )?;
        check("species type keys", raw.species_type_keys.len(), model.species_types.len())?;
        check("compartment keys", raw.compartment_keys.len(), model.compartments.len())?;
        check("species keys", raw.species_keys.len(), model.species.len())?;
        check("rule keys", raw.rule_keys.len(), model.rules.len())?;
        check("constraint keys", raw.constraint_keys.len(), model.constraints.len())?;
        check("reaction keys", raw.reaction_keys.len(), model.reactions.len())?;
        check("event keys", raw.event_keys.len(), model.events.len())?;

        let incoming = IncomingKeys {
            functions: raw.function_keys,
            units: raw.unit_keys,
            compartment_types: raw.compartment_type_keys,
            species_types: raw.species_type_keys,
            compartments: raw.compartment_keys,
            species: raw.species_keys,
            rules: raw.rule_keys,
            constraints: raw.constraint_keys,
            reactions: raw.reaction_keys,
            events: raw.event_keys,
            // Left empty: [`IncomingKeys::refs`] derives the reference
            // sets from the model on the first compose use.
            refs: std::sync::OnceLock::new(),
        };

        let initial_values =
            Arc::new(InitialValues { values: raw.initial_values.into_iter().collect() });
        Ok(PreparedModel {
            model,
            fingerprint: options.fingerprint(),
            // Left empty: the length checks above guarantee the lazy
            // rebuild in [`PreparedModel::analysis`] cannot index out of
            // bounds, and a corpus that only answers match queries never
            // needs the base-side indexes at all.
            analysis: Arc::new(std::sync::OnceLock::new()),
            analysis_config: AnalysisConfig::of(options),
            incoming,
            initial_values,
        })
    }
}

impl ModelAnalysis {
    /// Rebuild the derived state exactly as [`ModelAnalysis::build`]
    /// fills it, but from the cached incoming keys instead of fresh
    /// canonicalisation. The caller guarantees every key family is
    /// positional with its component list (the snapshot loader checks
    /// the lengths before constructing the [`PreparedModel`]).
    fn from_incoming(
        model: &Model,
        incoming: &IncomingKeys,
        config: AnalysisConfig,
    ) -> ModelAnalysis {
        let mut idx = Indexes::with_kind(config.index);
        let mut keys = KeyCache::default();
        for (i, f) in model.function_definitions.iter().enumerate() {
            idx.functions_by_id.insert(&f.id, i);
            idx.functions_by_content.insert_shared(&incoming.functions[i], i);
            keys.functions.push(Arc::clone(&incoming.functions[i]));
        }
        for (i, u) in model.unit_definitions.iter().enumerate() {
            idx.units_by_id.insert(&u.id, i);
            idx.units_by_content.insert_shared(&incoming.units[i], i);
            keys.units.push(Arc::clone(&incoming.units[i]));
        }
        for (i, t) in model.compartment_types.iter().enumerate() {
            idx.compartment_types_by_id.insert(&t.id, i);
            idx.compartment_types_by_name.insert_shared(&incoming.compartment_types[i], i);
        }
        for (i, t) in model.species_types.iter().enumerate() {
            idx.species_types_by_id.insert(&t.id, i);
            idx.species_types_by_name.insert_shared(&incoming.species_types[i], i);
        }
        for (i, c) in model.compartments.iter().enumerate() {
            idx.compartments_by_id.insert(&c.id, i);
            idx.compartments_by_name.insert_shared(&incoming.compartments[i], i);
        }
        for (i, s) in model.species.iter().enumerate() {
            idx.species_by_id.insert(&s.id, i);
            idx.species_by_name.insert_shared(&incoming.species[i], i);
        }
        for (i, p) in model.parameters.iter().enumerate() {
            idx.parameters_by_id.insert(&p.id, i);
        }
        for (i, ia) in model.initial_assignments.iter().enumerate() {
            idx.assignments_by_symbol.insert(&ia.symbol, i);
        }
        for (i, r) in model.rules.iter().enumerate() {
            idx.rules_by_content.insert_shared(&incoming.rules[i], i);
            if let Some(v) = r.variable() {
                idx.rules_by_variable.insert(v, i);
            }
        }
        for i in 0..model.constraints.len() {
            idx.constraints_by_content.insert_shared(&incoming.constraints[i], i);
        }
        let rxn_content = config.cache_patterns;
        for (i, r) in model.reactions.iter().enumerate() {
            idx.reactions_by_id.insert(&r.id, i);
            if rxn_content {
                idx.reactions_by_content.insert_shared(&incoming.reactions[i], i);
                keys.reactions.push(Arc::clone(&incoming.reactions[i]));
            }
        }
        for (i, ev) in model.events.iter().enumerate() {
            if let Some(id) = &ev.id {
                idx.events_by_id.insert(id, i);
            }
            idx.events_by_content.insert_shared(&incoming.events[i], i);
            keys.events.push(Arc::clone(&incoming.events[i]));
        }

        ModelAnalysis {
            taken: Arc::new(model.global_ids().into_iter().collect()),
            idx,
            keys,
        }
    }
}

impl PreparedModel {
    /// Panic unless this preparation matches `options`; called by every
    /// prepared composition entry point.
    pub(crate) fn check_options(&self, options: &ComposeOptions) {
        assert!(
            self.fingerprint == options.fingerprint(),
            "PreparedModel for {:?} was prepared under different options \
             (fingerprint {:?} vs {:?}); re-prepare it with the composing options",
            self.model.id,
            self.fingerprint,
            options.fingerprint(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbml_model::builder::ModelBuilder;

    fn sample() -> Model {
        ModelBuilder::new("m")
            .compartment("cell", 1.0)
            .species_named("glc", "glucose", 5.0)
            .species("G6P", 0.0)
            .parameter("k", 0.4)
            .initial_assignment("G6P", "k * 10")
            .reaction("hex", &["glc"], &["G6P"], "k*glc")
            .build()
    }

    #[test]
    fn analysis_matches_model_shape() {
        let options = ComposeOptions::default();
        let m = sample();
        let p = PreparedModel::new(&m, &options);
        assert_eq!(p.model(), &m);
        assert_eq!(p.analysis().idx.species_by_id.len(), 2);
        assert_eq!(p.analysis().idx.reactions_by_id.len(), 1);
        assert_eq!(p.incoming.species.len(), 2);
        assert_eq!(p.incoming.reactions.len(), 1);
        assert_eq!(p.incoming.compartments.len(), 1);
        assert!(p.analysis().taken.contains("hex"));
        // Initial assignment evaluated at preparation time.
        assert_eq!(p.initial_values().get("G6P"), Some(4.0));
    }

    #[test]
    fn from_model_equals_new() {
        let options = ComposeOptions::default();
        let m = sample();
        let a = PreparedModel::new(&m, &options);
        let b = PreparedModel::from_model(m, &options);
        assert_eq!(a.model(), b.model());
        assert_eq!(a.incoming.species, b.incoming.species);
        assert_eq!(a.initial_values(), b.initial_values());
    }

    #[test]
    fn incoming_keys_match_fresh_context() {
        let options = ComposeOptions::default();
        let m = sample();
        let p = PreparedModel::new(&m, &options);
        let ctx = MatchContext::new(&options);
        // With no mappings recorded, mapped and unmapped keys coincide —
        // the invariant the prepared fast path relies on.
        for (i, r) in m.reactions.iter().enumerate() {
            assert_eq!(p.incoming.reactions[i].as_ref(), ctx.reaction_key(r, true));
        }
        for (i, s) in m.species.iter().enumerate() {
            assert_eq!(p.incoming.species[i].as_ref(), ctx.name_key(&s.id, s.name.as_deref()));
        }
    }

    #[test]
    fn public_key_accessors_expose_incoming_keys() {
        let options = ComposeOptions::default();
        let m = sample();
        let p = PreparedModel::new(&m, &options);
        let ctx = MatchContext::new(&options);
        assert_eq!(p.species_name_keys().len(), m.species.len());
        assert_eq!(p.species_name_keys()[0].as_ref(), ctx.name_key("glc", Some("glucose")));
        assert_eq!(p.reaction_content_keys().len(), m.reactions.len());
        assert_eq!(
            p.reaction_content_keys()[0].as_ref(),
            ctx.reaction_key(&m.reactions[0], false)
        );
        // One key per keyed component: 1 compartment + 2 species + 1 reaction.
        assert_eq!(p.content_keys().count(), 4);
    }

    #[test]
    #[should_panic(expected = "different options")]
    fn options_mismatch_is_rejected() {
        let m = sample();
        let p = PreparedModel::new(&m, &ComposeOptions::default());
        p.check_options(&ComposeOptions::light());
    }

    #[test]
    fn prepared_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedModel>();
    }

    /// A model with several entries of every keyed kind, so every key
    /// family of the preparation is exercised.
    fn every_kind() -> Model {
        use sbml_math::infix;
        use sbml_model::{Event, EventAssignment, FunctionDefinition, Rule};
        use sbml_units::{Unit, UnitKind};

        let mut m = ModelBuilder::new("all")
            .compartment("cell", 1.0)
            .compartment("nucleus", 0.2)
            .species_named("glc", "glucose", 5.0)
            .species("G6P", 0.0)
            .species("ATP", 3.0)
            .parameter("k1", 0.4)
            .parameter("k2", 1.5)
            .initial_assignment("G6P", "k1 * 10")
            .reaction("hex", &["glc"], &["G6P"], "k1*glc*ATP")
            .reaction("leak", &["G6P"], &["glc"], "k2*G6P")
            .build();
        for (i, body) in ["x*2", "x+y"].iter().enumerate() {
            m.function_definitions.push(FunctionDefinition::new(
                format!("fn{i}"),
                vec!["x".into(), "y".into()],
                infix::parse(body).unwrap(),
            ));
        }
        m.unit_definitions
            .push(sbml_units::UnitDefinition::new("per_s", vec![Unit::of(UnitKind::Second).pow(-1)]));
        m.compartment_types.push(sbml_model::CompartmentType {
            id: "ct0".into(),
            name: Some("membrane".into()),
        });
        m.species_types.push(sbml_model::SpeciesType { id: "st0".into(), name: None });
        m.rules.push(Rule::Rate {
            variable: "ATP".into(),
            math: infix::parse("0 - k2*ATP").unwrap(),
        });
        m.rules.push(Rule::Algebraic { math: infix::parse("glc + G6P - 5").unwrap() });
        m.constraints.push(sbml_model::rule::Constraint {
            math: infix::parse("glc >= 0").unwrap(),
            message: None,
        });
        let mut ev = Event::new(infix::parse("time >= 3").unwrap());
        ev.id = Some("boost".into());
        ev.delay = Some(infix::parse("k1").unwrap());
        ev.assignments.push(EventAssignment {
            variable: "ATP".into(),
            math: infix::parse("ATP + 1").unwrap(),
        });
        m.events.push(ev);
        m
    }

    #[test]
    fn model_content_keys_equal_prepared_content_keys() {
        // Pins the standalone enumeration to the preparation's: if a key
        // family is ever added to (or dropped from) IncomingKeys, this
        // test forces model_content_keys to follow.
        for options in
            [ComposeOptions::heavy(), ComposeOptions::light(), ComposeOptions::none()]
        {
            let m = every_kind();
            let p = PreparedModel::new(&m, &options);
            let mut from_prepared: Vec<&str> =
                p.content_keys().map(|k| k.as_ref()).collect();
            let direct = model_content_keys(&m, &options);
            let mut from_direct: Vec<&str> = direct.iter().map(String::as_str).collect();
            from_prepared.sort_unstable();
            from_direct.sort_unstable();
            assert_eq!(from_prepared, from_direct);
        }
    }

    #[test]
    fn raw_round_trip_preserves_preparation() {
        for options in
            [ComposeOptions::heavy(), ComposeOptions::light(), ComposeOptions::none()]
        {
            let m = every_kind();
            let fresh = PreparedModel::new(&m, &options);
            let rebuilt = PreparedModel::from_raw(fresh.to_raw(), &options)
                .expect("raw parts from to_raw are consistent");
            assert_eq!(rebuilt.model(), fresh.model());
            // Force the lazily-derived reference sets so the equality
            // below also pins them to the fresh (eager) ones.
            rebuilt.incoming.refs(rebuilt.model());
            assert_eq!(rebuilt.incoming, fresh.incoming);
            assert_eq!(rebuilt.initial_values(), fresh.initial_values());
            assert_eq!(rebuilt.fingerprint(), fresh.fingerprint());
            assert_eq!(rebuilt.analysis().taken, fresh.analysis().taken);
            assert_eq!(
                rebuilt.analysis().idx.reactions_by_content.len(),
                fresh.analysis().idx.reactions_by_content.len()
            );
            // The rebuilt preparation composes bit-identically.
            let composer = crate::Composer::new(options.clone());
            let other = PreparedModel::new(&sample(), &options);
            let a = composer.compose_prepared(&fresh, &other);
            let b = composer.compose_prepared(&rebuilt, &other);
            assert_eq!(a.model, b.model);
        }
    }

    #[test]
    fn raw_round_trip_honours_cache_ablations() {
        let options = ComposeOptions::default().with_pattern_cache(false);
        let m = every_kind();
        let fresh = PreparedModel::new(&m, &options);
        let rebuilt = PreparedModel::from_raw(fresh.to_raw(), &options).expect("consistent");
        assert_eq!(rebuilt.analysis().keys.reactions.len(), fresh.analysis().keys.reactions.len());
        assert_eq!(
            rebuilt.analysis().idx.reactions_by_content.len(),
            fresh.analysis().idx.reactions_by_content.len()
        );
        rebuilt.incoming.refs(rebuilt.model());
        assert_eq!(rebuilt.incoming, fresh.incoming);
    }

    #[test]
    fn inconsistent_raw_parts_are_rejected_not_panicking() {
        let options = ComposeOptions::default();
        let fresh = PreparedModel::new(&every_kind(), &options);
        let mut raw = fresh.to_raw();
        raw.species_keys.pop();
        let err = PreparedModel::from_raw(raw, &options).unwrap_err();
        assert!(err.contains("species keys"), "{err}");
    }
}
