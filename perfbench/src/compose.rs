//! `compose_batch`: in-process composition from SBML text.
//!
//! Each iteration runs three jobs:
//! * the corpus_187 chain: a 128-model window in size order, each
//!   model parsed from SBML text and pushed into one
//!   `CompositionSession`, then finished and written back to SBML;
//! * the `corpus_conflict` chain, the same way, where every push
//!   renames parameters and maps aliased species;
//! * Fig. 8 all-pairs over a seeded, size-stratified slice of the
//!   corpus prepared at set-up, through
//!   `BatchComposer::all_pairs_shared_with`.
//!
//! Every output is checked against the pairwise-fold oracle
//! (`compose_many_pairwise`): the chains' written SBML, merge log and
//! mappings on every iteration; each pair's full written SBML once
//! before timing and its shape digest on every iteration.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use biomodels_corpus::{corpus_187, corpus_conflict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbml_compose::rename::apply_renames;
use sbml_compose::{
    compose_many_pairwise, BatchComposer, ComposeOptions, ComposeResult, Composer,
    CompositionSession, EventKind, PreparedModel, SharedComposeResult, SharedModel,
};
use sbml_model::{parse_sbml, write_sbml, Model};

use crate::ledger::{self, Ledger, ALL_PAIRS};
use crate::stats::{median, percentile, ratio};
use crate::{peak_rss_mb, Config, Metric, Outcome};

const PARSE: &str = "sbml-model.parse_us";
const WRITE: &str = "sbml-model.write_us";
const PUSH: &str = "sbml-compose.push_us";
const FINISH: &str = "sbml-compose.finish_us";
const PREPARE: &str = "sbml-compose.prepare_us";

const EVENT_METRICS: [(EventKind, &str); 6] = [
    (EventKind::Duplicate, "sbml-compose.push_events.duplicate"),
    (EventKind::Mapped, "sbml-compose.push_events.mapped"),
    (EventKind::Added, "sbml-compose.push_events.added"),
    (EventKind::Renamed, "sbml-compose.push_events.renamed"),
    (EventKind::Conflict, "sbml-compose.push_events.conflict"),
    (EventKind::Warning, "sbml-compose.push_events.warning"),
];

/// Input sizes of one run.
struct Sizes {
    /// Chain length over corpus_187 (a window starting past the empty
    /// and tiny head of the corpus).
    chain: usize,
    /// Models in the conflict chain.
    conflict: usize,
    /// Models in the all-pairs slice.
    slice: usize,
    /// Set-up repetitions (the median is reported).
    setup_reps: usize,
}

const FULL: Sizes = Sizes {
    chain: 128,
    conflict: 12,
    slice: 40,
    setup_reps: 9,
};
const TINY: Sizes = Sizes {
    chain: 12,
    conflict: 3,
    slice: 6,
    setup_reps: 2,
};
const CHAIN_START: usize = 30;

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Give every species, parameter and reaction id of `models` the same
/// seeded suffix. The inputs differ from seed to seed while every merge
/// decision, and so the cost profile of the chain, stays the same: the
/// latency percentiles then depend on the code, not on the seed.
fn suffix_ids(models: &mut [Model], rng: &mut StdRng) {
    let tag = format!("_s{:04x}", rng.gen::<u32>() & 0xffff);
    let mut renames: HashMap<String, String> = HashMap::new();
    for model in models.iter() {
        let ids = model.species.iter().map(|x| &x.id);
        let ids = ids.chain(model.parameters.iter().map(|x| &x.id));
        for id in ids.chain(model.reactions.iter().map(|x| &x.id)) {
            renames
                .entry(id.clone())
                .or_insert_with(|| format!("{id}{tag}"));
        }
    }
    for model in models.iter_mut() {
        apply_renames(model, &renames);
    }
}

/// What a chain job must reproduce.
struct ChainOracle {
    text: String,
    result: ComposeResult,
}

impl ChainOracle {
    fn new(composer: &Composer, models: &[Model]) -> ChainOracle {
        let result = compose_many_pairwise(composer, models);
        ChainOracle {
            text: write_sbml(&result.model),
            result,
        }
    }

    fn matches(&self, result: &ComposeResult, text: &str) -> bool {
        text == self.text
            && result.log.events == self.result.log.events
            && result.mappings == self.result.mappings
    }
}

/// A composed pair's shape, cheap enough to check on every iteration;
/// `text` (a hash of the written SBML) is filled only for the full
/// pre-timing check.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PairDigest {
    species: usize,
    reactions: usize,
    components: usize,
    events: usize,
    conflicts: usize,
    mappings: usize,
    text: Option<u64>,
}

impl PairDigest {
    fn of(model: &Model, result_log: &sbml_compose::MergeLog, mappings: usize, full: bool) -> Self {
        PairDigest {
            species: model.species.len(),
            reactions: model.reactions.len(),
            components: model.component_count(),
            events: result_log.events.len(),
            conflicts: result_log.conflict_count(),
            mappings,
            text: full.then(|| {
                let mut hasher = DefaultHasher::new();
                write_sbml(model).hash(&mut hasher);
                hasher.finish()
            }),
        }
    }

    fn of_shared(result: &SharedComposeResult, full: bool) -> (PairDigest, bool) {
        let digest = PairDigest::of(
            result.model.as_model(),
            &result.log,
            result.mappings.len(),
            full,
        );
        (digest, matches!(result.model, SharedModel::Base(_)))
    }
}

/// Per-run accumulators of the timed loop.
#[derive(Default)]
struct Tally {
    pushes: u64,
    pairs: u64,
    shared_pairs: u64,
    chain_s: f64,
    pair_s: f64,
    push_latency_us: Vec<f64>,
    /// Compositions per second, per iteration.
    iteration_rate: Vec<f64>,
    events: [u64; 6],
    job_wall_us: f64,
    job_span_us: f64,
}

/// Parse each document and push it into one session, then finish and
/// write the result. Latency per push covers parse + push.
fn chain_job(
    texts: &[String],
    options: &ComposeOptions,
    ledger: &mut Ledger,
    tally: &mut Tally,
) -> Result<(ComposeResult, String), String> {
    let mut session = CompositionSession::new(options);
    for text in texts {
        let start = Instant::now();
        let model = ledger
            .span(PARSE, || parse_sbml(text))
            .map_err(|e| e.to_string())?;
        let before = session.log().events.len();
        ledger.span(PUSH, || session.push(&model));
        tally
            .push_latency_us
            .push(start.elapsed().as_secs_f64() * 1e6);
        for event in &session.log().events[before..] {
            let k = EVENT_METRICS
                .iter()
                .position(|(kind, _)| *kind == event.kind);
            tally.events[k.expect("every event kind is listed")] += 1;
        }
    }
    let result = ledger.span(FINISH, || session.finish());
    let text = ledger.span(WRITE, || write_sbml(&result.model));
    Ok((result, text))
}

pub fn run(config: &Config) -> Outcome {
    let sizes = if config.tiny { TINY } else { FULL };
    let mut out = Outcome::default();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let options = ComposeOptions::default();
    let composer = Composer::new(options.clone());

    // Seeded inputs: seeded id suffixes on both corpora, the conflict
    // chain's order (its models are all alike) and a size-stratified
    // pair slice (one model drawn from each of `slice` equal strata of
    // the size-ordered corpus, so every seed composes a similar size
    // mix). The corpus_187 chain keeps size order, as in Fig. 8.
    let mut corpus = corpus_187();
    suffix_ids(&mut corpus, &mut rng);
    let chain = corpus[CHAIN_START..CHAIN_START + sizes.chain].to_vec();
    let mut conflict = corpus_conflict(sizes.conflict);
    suffix_ids(&mut conflict, &mut rng);
    shuffle(&mut conflict, &mut rng);
    let slice_ids: Vec<usize> = (0..sizes.slice)
        .map(|k| {
            let lo = k * corpus.len() / sizes.slice;
            let hi = (k + 1) * corpus.len() / sizes.slice;
            rng.gen_range(lo..hi)
        })
        .collect();
    let chain_text: Vec<String> = chain.iter().map(write_sbml).collect();
    let conflict_text: Vec<String> = conflict.iter().map(write_sbml).collect();

    // Oracles, before any timing.
    let mut chain_oracle = ChainOracle::new(&composer, &chain);
    let conflict_oracle = ChainOracle::new(&composer, &conflict);
    if config.sabotage {
        chain_oracle.text.push_str("<!-- sabotaged expectation -->");
    }
    let pair_oracle: Vec<PairDigest> = (0..sizes.slice)
        .flat_map(|i| (i + 1..sizes.slice).map(move |j| (i, j)))
        .map(|(i, j)| {
            let pair = [corpus[slice_ids[i]].clone(), corpus[slice_ids[j]].clone()];
            let r = compose_many_pairwise(&composer, &pair);
            PairDigest::of(&r.model, &r.log, r.mappings.len(), true)
        })
        .collect();

    // Set-up: the corpus preparation all-pairs reuses, repeated.
    let mut ledger = Ledger::new(config.trace);
    let batch = BatchComposer::new(composer.clone());
    let mut setup_s = Vec::new();
    let mut prepared: Vec<Arc<PreparedModel>> = Vec::new();
    for _ in 0..sizes.setup_reps {
        let start = Instant::now();
        prepared = ledger.span_n(PREPARE, corpus.len() as u32, || {
            batch.prepare_corpus(&corpus)
        });
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let slice: Vec<Arc<PreparedModel>> = slice_ids
        .iter()
        .map(|&i| Arc::clone(&prepared[i]))
        .collect();

    // Full pair check: every pair's written SBML against the oracle.
    let full: Vec<PairDigest> =
        batch.all_pairs_shared_with(&slice, |_, _, r| PairDigest::of_shared(&r, true).0);
    for (got, want) in full.iter().zip(&pair_oracle) {
        out.check(got == want);
    }
    out.check(full.len() == pair_oracle.len());
    let cheap_oracle: Vec<PairDigest> = pair_oracle
        .iter()
        .map(|d| PairDigest {
            text: None,
            ..d.clone()
        })
        .collect();

    let overhead = if config.trace {
        trace_overhead(&chain_text, &options)
    } else {
        0.0
    };

    let mut tally = Tally::default();
    let start = Instant::now();
    while tally.pushes == 0 || start.elapsed().as_secs_f64() < config.seconds {
        let iteration = Instant::now();
        let ops_before = tally.pushes + tally.pairs;
        for (texts, oracle) in [
            (&chain_text, &chain_oracle),
            (&conflict_text, &conflict_oracle),
        ] {
            ledger.begin();
            let job = Instant::now();
            let produced = chain_job(texts, &options, &mut ledger, &mut tally);
            let wall = job.elapsed();
            tally.chain_s += wall.as_secs_f64();
            tally.job_wall_us += wall.as_secs_f64() * 1e6;
            tally.job_span_us += ledger.request_us();
            tally.pushes += texts.len() as u64;
            let ok = matches!(&produced, Ok((result, text)) if oracle.matches(result, text));
            out.attempted += texts.len() as u64;
            if !ok {
                out.failed += texts.len() as u64;
            }
        }

        ledger.begin();
        let job = Instant::now();
        let digests = ledger.span_n(ALL_PAIRS, cheap_oracle.len() as u32, || {
            batch.all_pairs_shared_with(&slice, |_, _, r| PairDigest::of_shared(&r, false))
        });
        let wall = job.elapsed();
        tally.pair_s += wall.as_secs_f64();
        tally.job_wall_us += wall.as_secs_f64() * 1e6;
        tally.job_span_us += ledger.request_us();
        tally.pairs += digests.len() as u64;
        for ((digest, shared), want) in digests.iter().zip(&cheap_oracle) {
            out.check(digest == want);
            tally.shared_pairs += u64::from(*shared);
        }
        out.check(digests.len() == cheap_oracle.len());
        let ops = (tally.pushes + tally.pairs - ops_before) as f64;
        tally
            .iteration_rate
            .push(ops / iteration.elapsed().as_secs_f64());
    }
    let elapsed = start.elapsed().as_secs_f64();

    out.detail = vec![
        Metric::new(
            "compose_models_per_s",
            tally.pushes as f64 / tally.chain_s,
            "1/s",
        ),
        Metric::new("pairs_per_s", tally.pairs as f64 / tally.pair_s, "1/s"),
        Metric::new(
            "failed_frac",
            ratio(out.failed as f64, out.attempted as f64),
            "ratio",
        ),
        Metric::new("models_pushed", tally.pushes as f64, "count"),
        Metric::new("pairs_composed", tally.pairs as f64, "count"),
        Metric::new(
            "ops_per_s",
            (tally.pushes + tally.pairs) as f64 / elapsed,
            "1/s",
        ),
    ];
    out.provenance
        .push(("compose_workers", crate::nproc().to_string()));
    if !config.trace {
        // The rate is a median over iterations, so a slow spell of the
        // host moves a few iterations, not the reported figure. The push
        // latencies spread widely (1-40 ms), so their percentiles take
        // every push of the run.
        out.metrics = vec![
            Metric::new("ops_per_s", median(&tally.iteration_rate), "1/s"),
            Metric::new("latency_p50_us", median(&tally.push_latency_us), "us"),
            Metric::new(
                "latency_p99_us",
                percentile(&tally.push_latency_us, 0.99),
                "us",
            ),
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        return out;
    }

    let totals = ledger.totals();
    let pushes = tally.pushes as f64;
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for stage in [PARSE, WRITE, PUSH, FINISH, PREPARE] {
        values.insert(stage, ledger::mean_us(&totals, stage));
    }
    values.insert("sbml-compose.pair_us", ledger::mean_us(&totals, ALL_PAIRS));
    values.insert(
        "sbml-compose.push_events",
        tally.events.iter().sum::<u64>() as f64 / pushes,
    );
    for (k, (_, name)) in EVENT_METRICS.iter().enumerate() {
        values.insert(name, tally.events[k] as f64 / pushes);
    }
    values.insert(
        "sbml-compose.cow_shared_frac",
        ratio(tally.shared_pairs as f64, tally.pairs as f64),
    );
    values.insert(
        "trace.unattributed_frac",
        ratio(tally.job_wall_us - tally.job_span_us, tally.job_wall_us),
    );
    values.insert("trace.overhead_frac", overhead);
    out.metrics = ledger::per_layer(&values);
    out
}

/// Relative cost of the spans: the first chain job with the ledger off
/// and on, back to back in alternating order, summed.
fn trace_overhead(texts: &[String], options: &ComposeOptions) -> f64 {
    let (mut off_s, mut on_s) = (0.0, 0.0);
    for round in 0..8 {
        let traced = round % 4 == 1 || round % 4 == 2;
        let mut ledger = Ledger::new(traced);
        let mut tally = Tally::default();
        let start = Instant::now();
        let _ = std::hint::black_box(chain_job(texts, options, &mut ledger, &mut tally));
        let seconds = start.elapsed().as_secs_f64();
        if traced {
            on_s += seconds;
        } else {
            off_s += seconds;
        }
    }
    on_s / off_s - 1.0
}
