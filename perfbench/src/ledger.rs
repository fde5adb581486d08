//! The call ledger: spans the benchmark records around each call it
//! makes into a workspace crate's public functions.
//!
//! Spans live in memory and are folded into the per-layer metrics when
//! the run ends. The ledger also sums the spans of the current request
//! (or composition job), which the workloads subtract from its wall
//! time; a disabled ledger runs the call and records nothing, which is
//! how the traced and untraced replays are compared for
//! `trace.overhead_frac`.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::Metric;

/// Every per-layer metric, in print order, with its unit. A workload
/// whose run never calls a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sbml-model.parse_us", "us"),
    ("sbml-model.write_us", "us"),
    ("sbml-compose.push_us", "us"),
    ("sbml-compose.push_events", "count"),
    ("sbml-compose.push_events.duplicate", "count"),
    ("sbml-compose.push_events.mapped", "count"),
    ("sbml-compose.push_events.added", "count"),
    ("sbml-compose.push_events.renamed", "count"),
    ("sbml-compose.push_events.conflict", "count"),
    ("sbml-compose.push_events.warning", "count"),
    ("sbml-compose.finish_us", "us"),
    ("sbml-compose.pair_us", "us"),
    ("sbml-compose.cow_shared_frac", "ratio"),
    ("sbml-compose.prepare_us", "us"),
    ("sbml-match.prepare_query_us", "us"),
    ("sbml-match.candidates_us", "us"),
    ("sbml-match.refine_us", "us"),
    ("sbml-match.candidates_per_query", "count"),
    ("sbml-match.exact_per_query", "count"),
    ("sbml-match.refine_yield", "ratio"),
    ("sbml-match.approx_frac", "ratio"),
    ("sbml-match.insert_us", "us"),
    ("sbml-match.remove_us", "us"),
    ("sbml-match.tombstoned_models", "count"),
    ("sbml-serve.cache_key_us", "us"),
    ("sbml-serve.cache_lookup_us", "us"),
    ("sbml-serve.cache_hit_rate", "ratio"),
    ("sbml-serve.format_us", "us"),
    ("sbml-serve.response_bytes", "bytes"),
    ("sbml-serve.codec_us", "us"),
    ("sbml-serve.wire_queue_us", "us"),
    ("sbml-serve.snapshot_load_s", "s"),
    ("sbml-serve.warmup_s", "s"),
    ("sbml-cluster.shard_rtt_us", "us"),
    ("sbml-cluster.straggler_us", "us"),
    ("sbml-cluster.merge_us", "us"),
    ("sbml-cluster.coord_overhead_us", "us"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Span stages that are not metrics themselves (their metric is
/// derived from them).
pub const QUERY_CORPUS: &str = "sbml-match.query_corpus_prepared";
pub const ALL_PAIRS: &str = "sbml-compose.all_pairs_shared_with";

struct Span {
    stage: &'static str,
    /// How many calls the span covers (a batch call counts its items).
    calls: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.
pub struct Ledger {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    request_ns: u64,
    aside_ns: u64,
}

impl Ledger {
    pub fn new(enabled: bool) -> Ledger {
        Ledger {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            request_ns: 0,
            aside_ns: 0,
        }
    }

    /// Start a new request: `request_us` and `aside_us` sum the spans
    /// from here on.
    pub fn begin(&mut self) {
        self.request_ns = 0;
        self.aside_ns = 0;
    }

    /// Run `f` inside a span of `stage` covering one call.
    pub fn span<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_n(stage, 1, f)
    }

    /// Run `f` inside a span of `stage` covering `calls` calls.
    pub fn span_n<T>(&mut self, stage: &'static str, calls: u32, f: impl FnOnce() -> T) -> T {
        let (out, ns) = self.record(stage, calls, f);
        self.request_ns += ns;
        out
    }

    /// Run `f` inside a span of `stage` that is not on the request's
    /// own call chain: a call the benchmark makes only to time it. Its
    /// span counts towards the stage's metric, and towards `aside_us`
    /// instead of `request_us`.
    pub fn span_aside<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, ns) = self.record(stage, 1, f);
        self.aside_ns += ns;
        out
    }

    fn record<T>(&mut self, stage: &'static str, calls: u32, f: impl FnOnce() -> T) -> (T, u64) {
        if !self.enabled {
            return (f(), 0);
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            stage,
            calls,
            start_ns,
            end_ns,
        });
        (out, end_ns - start_ns)
    }

    /// Summed span time of the current request's own calls, in µs.
    pub fn request_us(&self) -> f64 {
        self.request_ns as f64 / 1e3
    }

    /// Summed span time of the current request's aside calls, in µs.
    pub fn aside_us(&self) -> f64 {
        self.aside_ns as f64 / 1e3
    }

    /// Per stage: total µs and calls.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut totals: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let entry = totals.entry(span.stage).or_default();
            entry.0 += (span.end_ns - span.start_ns) as f64 / 1e3;
            entry.1 += u64::from(span.calls);
        }
        totals
    }
}

/// Mean µs per call of `stage`, 0 when it never ran.
pub fn mean_us(totals: &BTreeMap<&'static str, (f64, u64)>, stage: &str) -> f64 {
    match totals.get(stage) {
        Some(&(us, calls)) if calls > 0 => us / calls as f64,
        _ => 0.0,
    }
}

/// Total µs of `stage`, 0 when it never ran.
pub fn total_us(totals: &BTreeMap<&'static str, (f64, u64)>, stage: &str) -> f64 {
    totals.get(stage).map_or(0.0, |&(us, _)| us)
}

/// Every per-layer metric: the measured value, or 0 for a layer the
/// workload never called.
pub fn per_layer(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "unlisted per-layer metric {name}"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}
