//! `match_read` and `cluster_mixed`: closed-loop clients against a
//! live daemon or a coordinator fronting shard daemons, all in this
//! process, over loopback TCP.
//!
//! * `match_read` — one `sbml-serve` daemon (`Server::bind`, default
//!   `ServerConfig`, cache 256) over a `corpus_scale` snapshot loaded
//!   with `Snapshot::load`. Mostly MATCH, some QUERY, queries drawn
//!   Zipf-style from a pool of radius-1 and radius-2 `query_fragment`s
//!   much larger than the cache; a quarter of the pool is cut from
//!   held-out models, some of which miss and take the ranking path.
//! * `cluster_mixed` — a `Coordinator` fronting two shard daemons
//!   (`Snapshot::load_shard` + `Server::bind_shard`) over the same
//!   corpus, caches at their defaults. MATCH and QUERY with a fifth of
//!   writes: UPSERT (fresh inserts and replacements) and REMOVE of a
//!   churn set of held-out models, disjoint from every query host.
//!
//! The snapshot is built by a child process (this binary with
//! `--build-snapshot`), so the peak RSS of the run is the serving
//! state, not the one-off build.
//!
//! Set-up (`setup_s`, the median of several repetitions) covers the
//! snapshot load, the binds, the coordinator handshake and a warm-up
//! pass that sends every pool query once as MATCH and as QUERY, which
//! fills the snapshot's lazily built match graphs and key sets.
//!
//! Checks: before timing, a one-client lockstep pass compares the
//! front's MATCH bytes with in-process `format_matches` over the same
//! snapshot, whose exact hits must equal `MatchIndex::naive_hits`.
//! While timing, every reply is checked: on `match_read` it must equal
//! the warm-up reply byte for byte (which was itself checked for its
//! exit code and host); on `cluster_mixed`, where writes change the
//! answers, a corpus-host query must exit 0 listing its host, a
//! held-out query must exit 0 or 1, and each write must report the
//! insert, replacement or removal its client expects.
//!
//! The traced run (`--trace 1`) drives one client's request stream
//! through the front and replays each request in-process through the
//! public calls in the daemon's order, with a span around each call;
//! on the cluster it also sends PMATCH straight to each shard daemon
//! and merges the partials with `sbml_cluster::merge_matches`. The
//! replay index is warmed like the daemon's before any span is timed.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use biomodels_corpus::{corpus_scale, query_fragment, scale_model};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbml_cluster::{merge_matches, Coordinator, CoordinatorConfig};
use sbml_compose::{BatchComposer, ComposeOptions, Composer};
use sbml_match::MatchIndex;
use sbml_model::{parse_sbml, write_sbml};
use sbml_serve::server::cache_key;
use sbml_serve::{
    format_matches, preset_options, Client, PartialMatches, QueryCache, Request, Response, Server,
    ServerConfig, ShardIdentity, Snapshot,
};

use crate::ledger::{self, Ledger, QUERY_CORPUS};
use crate::stats::{median, percentile, ratio, windowed, windowed_rate};
use crate::{nproc, peak_rss_mb, Config, Metric, Outcome};

const PARSE: &str = "sbml-model.parse_us";
const PREPARE: &str = "sbml-compose.prepare_us";
const PREPARE_QUERY: &str = "sbml-match.prepare_query_us";
const CANDIDATES: &str = "sbml-match.candidates_us";
const INSERT: &str = "sbml-match.insert_us";
const REMOVE: &str = "sbml-match.remove_us";
const CACHE_KEY: &str = "sbml-serve.cache_key_us";
const CACHE_LOOKUP: &str = "sbml-serve.cache_lookup_us";
const FORMAT: &str = "sbml-serve.format_us";
const CODEC: &str = "sbml-serve.codec_us";
const MERGE: &str = "sbml-cluster.merge_us";

/// Shard daemons behind the coordinator.
const SHARDS: usize = 2;
/// Share of the query pool cut from held-out models. An assumption, like
/// the request mixes and the popularity below: no trace of real SBML
/// query traffic exists to measure them from.
const HELD_OUT_FRAC: f64 = 0.25;
/// Held-out query hosts are `scale_model(HELD_OUT_BASE + k)`; churn
/// models are `scale_model(CHURN_BASE + k)`. Neither range overlaps the
/// corpus or the other.
const HELD_OUT_BASE: usize = 1_000_000;
const CHURN_BASE: usize = 2_000_000;
/// Query popularity over the pool is Zipf-like: rank r (from 1) has
/// weight 1/r^ZIPF_ALPHA. The exponent is assumed, taken from web
/// caching: the middle of the 0.64-0.83 range Breslau et al. measured
/// on six web proxy traces ("Web Caching and Zipf-like Distributions:
/// Evidence and Implications", IEEE INFOCOM 1999).
const ZIPF_ALPHA: f64 = 0.75;
/// MATCH requests replayed with the ledger off and on for
/// `trace.overhead_frac`, and how many times the sample is replayed.
/// The cluster's in-process index fans each query out to its worker
/// pool, so one pass reads a few per cent either way.
const OVERHEAD_SAMPLE: usize = 256;
const OVERHEAD_ROUNDS: usize = 4;

/// Input sizes of one run.
struct Sizes {
    models: usize,
    pool: usize,
    /// Pool entries checked in lockstep against the in-process oracle.
    lockstep: usize,
    setup_reps: usize,
    churn: usize,
}

const FULL: Sizes = Sizes {
    models: 10_000,
    pool: 2048,
    lockstep: 24,
    setup_reps: 3,
    churn: 512,
};
const TINY: Sizes = Sizes {
    models: 300,
    pool: 40,
    lockstep: 6,
    setup_reps: 2,
    churn: 8,
};

/// The request mix of a workload (assumed, not measured).
struct Mix {
    query_frac: f64,
    write_frac: f64,
}

const MATCH_READ: Mix = Mix {
    query_frac: 0.15,
    write_frac: 0.0,
};
const CLUSTER_MIXED: Mix = Mix {
    query_frac: 0.10,
    write_frac: 0.20,
};

fn options() -> ComposeOptions {
    preset_options(ComposeOptions::default().semantics)
}

fn to_io(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// `perfbench --build-snapshot <path> <models> <shards>`: prepare a
/// `corpus_scale` corpus, index it and write the snapshot.
pub fn build_snapshot_main(args: &[String]) -> ExitCode {
    let [path, models, shards] = args else {
        eprintln!("perfbench: --build-snapshot <path> <models> <shards>");
        return ExitCode::from(2);
    };
    let (Ok(models), Ok(shards)) = (models.parse::<usize>(), shards.parse::<usize>()) else {
        eprintln!("perfbench: --build-snapshot needs numeric <models> and <shards>");
        return ExitCode::from(2);
    };
    let options = options();
    let batch = BatchComposer::new(Composer::new(options.clone()));
    let prepared = batch.prepare_corpus(&corpus_scale(models));
    let index = MatchIndex::build_sharded(&prepared, &options, 0, shards);
    match Snapshot::write(path, &index, &options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: writing {path}: {e}");
            ExitCode::from(1)
        }
    }
}

/// A snapshot file removed when the run ends.
struct SnapshotFile(PathBuf);

impl SnapshotFile {
    fn build(work_dir: &Path, models: usize, shards: usize) -> io::Result<SnapshotFile> {
        let path = work_dir.join(format!(
            "corpus-{}-{models}x{shards}.snap",
            std::process::id()
        ));
        let file = SnapshotFile(path);
        let status = Command::new(std::env::current_exe()?)
            .arg("--build-snapshot")
            .arg(&file.0)
            .arg(models.to_string())
            .arg(shards.to_string())
            .status()?;
        if !status.success() {
            return Err(to_io(format!("snapshot build exited with {status}")));
        }
        Ok(file)
    }
}

impl Drop for SnapshotFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One query of the pool, as the frames a client sends.
struct Entry {
    /// The corpus model the fragment was cut from; `None` when it was
    /// cut from a held-out model.
    host: Option<String>,
    match_req: Request,
    query_req: Request,
    pmatch_req: Request,
}

/// `sizes.pool` query fragments with distinct cache keys. Fragments that
/// share canonical content keys share one daemon cache entry, and the
/// cached answer names the first one's query ids, so the byte-exact
/// checks need each entry to own its key.
fn make_pool(rng: &mut StdRng, sizes: &Sizes, options: &ComposeOptions) -> Vec<Entry> {
    let mut pool = Vec::with_capacity(sizes.pool);
    let mut keys = HashSet::new();
    while pool.len() < sizes.pool {
        let held = rng.gen_bool(HELD_OUT_FRAC);
        let i = rng.gen_range(0..sizes.models) + if held { HELD_OUT_BASE } else { 0 };
        let host = scale_model(i);
        let radius = 1 + rng.gen_range(0..2usize);
        let fragment = query_fragment(&host, rng.gen_range(0..1usize << 16), radius);
        if fragment.species.is_empty() {
            continue;
        }
        let xml = write_sbml(&fragment);
        let parsed = parse_sbml(&xml).expect("a written fragment parses");
        if !keys.insert(cache_key("MATCH", &parsed, options)) {
            continue;
        }
        pool.push(Entry {
            host: (!held).then(|| host.id.clone()),
            match_req: Request::Match {
                query_xml: xml.clone(),
            },
            query_req: Request::Query {
                query_xml: xml.clone(),
            },
            pmatch_req: Request::PartialMatch { query_xml: xml },
        });
    }
    pool
}

/// A churn model's write frames.
struct Churn {
    id: String,
    upsert: Request,
    remove: Request,
}

fn make_churn(sizes: &Sizes) -> Vec<Churn> {
    (0..sizes.churn)
        .map(|k| {
            let model = scale_model(CHURN_BASE + k);
            Churn {
                upsert: Request::Upsert {
                    model_xml: write_sbml(&model),
                    slot: None,
                },
                remove: Request::Remove {
                    model_id: model.id.clone(),
                },
                id: model.id,
            }
        })
        .collect()
}

/// Zipf-like popularity over the pool; a seeded permutation decides
/// which entry holds which rank.
struct Zipf {
    cdf: Vec<f64>,
    order: Vec<usize>,
}

impl Zipf {
    fn new(n: usize, rng: &mut StdRng) -> Zipf {
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / (r as f64 + 1.0).powf(ZIPF_ALPHA);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        Zipf { cdf, order }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.order[rank]
    }
}

#[derive(Clone, Copy)]
enum Op {
    Match(usize),
    Query(usize),
    Upsert { k: usize, replace: bool },
    Remove(usize),
}

/// One closed-loop client's request stream. Each client owns a disjoint
/// part of the churn set, so it knows exactly what each write must do.
struct Stream<'a> {
    rng: StdRng,
    zipf: &'a Zipf,
    mix: &'a Mix,
    owned: Vec<usize>,
    present: Vec<bool>,
}

impl<'a> Stream<'a> {
    fn new(
        seed: u64,
        client: usize,
        clients: usize,
        zipf: &'a Zipf,
        mix: &'a Mix,
        churn: usize,
    ) -> Self {
        let owned: Vec<usize> = (client..churn).step_by(clients).collect();
        let stream_seed = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client as u64 + 1);
        Stream {
            rng: StdRng::seed_from_u64(stream_seed),
            zipf,
            mix,
            present: vec![false; owned.len()],
            owned,
        }
    }

    fn next(&mut self) -> Op {
        let u: f64 = self.rng.gen();
        if u < self.mix.write_frac && !self.owned.is_empty() {
            let j = self.rng.gen_range(0..self.owned.len());
            let k = self.owned[j];
            if !self.present[j] {
                self.present[j] = true;
                Op::Upsert { k, replace: false }
            } else if self.rng.gen_bool(0.5) {
                self.present[j] = false;
                Op::Remove(k)
            } else {
                Op::Upsert { k, replace: true }
            }
        } else if u < self.mix.write_frac + self.mix.query_frac {
            Op::Query(self.zipf.sample(&mut self.rng))
        } else {
            Op::Match(self.zipf.sample(&mut self.rng))
        }
    }
}

/// Everything the clients read.
struct Inputs {
    pool: Vec<Entry>,
    churn: Vec<Churn>,
    zipf: Zipf,
    mix: Mix,
    /// Warm-up replies per pool entry (MATCH, QUERY): the byte-exact
    /// expectation on `match_read`, where answers never change.
    reference: Option<Vec<(Vec<u8>, Vec<u8>)>>,
}

impl Inputs {
    fn request(&self, op: Op) -> &Request {
        match op {
            Op::Match(i) => &self.pool[i].match_req,
            Op::Query(i) => &self.pool[i].query_req,
            Op::Upsert { k, .. } => &self.churn[k].upsert,
            Op::Remove(k) => &self.churn[k].remove,
        }
    }

    /// Is `reply` a correct answer to `op`?
    fn check(&self, op: Op, reply: &[u8]) -> bool {
        match (op, &self.reference) {
            (Op::Match(i), Some(reference)) => reply == reference[i].0.as_slice(),
            (Op::Query(i), Some(reference)) => reply == reference[i].1.as_slice(),
            (Op::Match(i), None) => answer_ok(&self.pool[i], reply, true),
            (Op::Query(i), None) => answer_ok(&self.pool[i], reply, false),
            (Op::Upsert { k, replace }, _) => {
                let verb = if replace { "replaced" } else { "inserted" };
                let want = format!("{verb} {} model ", self.churn[k].id);
                matches!(decode_ok(reply), Some((0, body)) if body.starts_with(&want))
            }
            (Op::Remove(k), _) => {
                let want = format!("removed {}\n", self.churn[k].id);
                matches!(decode_ok(reply), Some((0, body)) if body == want)
            }
        }
    }
}

fn decode_ok(reply: &[u8]) -> Option<(u8, String)> {
    match Response::decode(reply) {
        Ok(Response::Ok { code, body }) => Some((code, String::from_utf8(body).ok()?)),
        _ => None,
    }
}

/// A MATCH or QUERY answer: a corpus-host query exits 0 and lists its
/// host; a held-out query exits 0 (hit) or 1 (miss).
fn answer_ok(entry: &Entry, reply: &[u8], is_match: bool) -> bool {
    let Some((code, body)) = decode_ok(reply) else {
        return false;
    };
    match &entry.host {
        Some(id) => {
            let listed = if is_match {
                let line = format!("exact {id} ({id}):");
                body.lines().any(|l| l.starts_with(&line))
            } else {
                let line = format!("candidate {id}");
                body.lines().any(|l| l == line)
            };
            code == 0 && listed
        }
        None => code <= 1,
    }
}

/// A running daemon, or a coordinator and its shard daemons.
struct Topology {
    front: SocketAddr,
    shards: Vec<SocketAddr>,
    threads: Vec<thread::JoinHandle<io::Result<()>>>,
    load_s: f64,
}

impl Topology {
    fn start(path: &Path, cluster: bool, options: &ComposeOptions) -> io::Result<Topology> {
        let mut topo = Topology {
            front: SocketAddr::from(([127, 0, 0, 1], 0)),
            shards: Vec::new(),
            threads: Vec::new(),
            load_s: 0.0,
        };
        match topo.spawn(path, cluster, options) {
            Ok(()) => Ok(topo),
            Err(e) => {
                topo.stop();
                Err(e)
            }
        }
    }

    fn spawn(&mut self, path: &Path, cluster: bool, options: &ComposeOptions) -> io::Result<()> {
        if !cluster {
            let start = Instant::now();
            let loaded = Snapshot::load(path, options, 0).map_err(to_io)?;
            self.load_s += start.elapsed().as_secs_f64();
            let server = Server::bind(
                "127.0.0.1:0",
                loaded.index,
                loaded.options,
                ServerConfig::default(),
            )?;
            self.front = server.local_addr();
            self.threads.push(thread::spawn(move || server.run()));
            return Ok(());
        }
        for shard in 0..SHARDS {
            let start = Instant::now();
            let loaded = Snapshot::load_shard(path, 0, shard, SHARDS).map_err(to_io)?;
            self.load_s += start.elapsed().as_secs_f64();
            let info = loaded
                .cluster
                .ok_or_else(|| to_io("shard load without cluster info"))?;
            let identity = ShardIdentity {
                shard: info.shard,
                shards: info.shards,
                global_slots: info.global_slots(&loaded.index),
                universe: info.universe,
            };
            let server = Server::bind_shard(
                "127.0.0.1:0",
                loaded.index,
                loaded.options,
                ServerConfig::default(),
                identity,
            )?;
            self.shards.push(server.local_addr());
            self.threads.push(thread::spawn(move || server.run()));
        }
        let addrs: Vec<String> = self.shards.iter().map(ToString::to_string).collect();
        let coordinator = Coordinator::bind("127.0.0.1:0", &addrs, CoordinatorConfig::default())?;
        self.front = coordinator.local_addr();
        self.threads.push(thread::spawn(move || coordinator.run()));
        Ok(())
    }

    /// Shut down the front, then every shard daemon, and join them all.
    /// False when any of them failed.
    fn stop(self) -> bool {
        let mut ok = true;
        let front = (self.front.port() != 0).then_some(self.front);
        for addr in front.into_iter().chain(self.shards.iter().copied()) {
            ok &= Client::connect(addr)
                .and_then(|mut c| c.roundtrip(&Request::Shutdown))
                .is_ok();
        }
        for handle in self.threads {
            ok &= matches!(handle.join(), Ok(Ok(())));
        }
        ok
    }
}

/// The `key value` lines of a STATS body (first occurrence wins, so a
/// coordinator's own counters shadow its shards' blocks).
fn stats(addr: SocketAddr) -> io::Result<HashMap<String, u64>> {
    let reply = Client::connect(addr)?.roundtrip_raw(&Request::Stats)?;
    let (_, body) = decode_ok(&reply).ok_or_else(|| to_io("STATS failed"))?;
    let mut map = HashMap::new();
    for line in body.lines() {
        if let Some((key, value)) = line.split_once(' ') {
            if let Ok(value) = value.parse::<u64>() {
                map.entry(key.to_owned()).or_insert(value);
            }
        }
    }
    Ok(map)
}

fn counter(map: &HashMap<String, u64>, key: &str) -> f64 {
    map.get(key).copied().unwrap_or(0) as f64
}

/// Cache hit rate between two STATS snapshots of the same server.
fn hit_rate(before: &HashMap<String, u64>, after: &HashMap<String, u64>) -> f64 {
    let hits = counter(after, "cache_hits") - counter(before, "cache_hits");
    let misses = counter(after, "cache_misses") - counter(before, "cache_misses");
    ratio(hits, hits + misses)
}

/// One warm-up client's replies: (pool index, MATCH reply, QUERY reply).
type WarmPart = Vec<(usize, Vec<u8>, Vec<u8>)>;

/// Send every pool query once as MATCH and as QUERY over `clients`
/// connections; the replies, per entry.
fn warm_up(
    front: SocketAddr,
    pool: &[Entry],
    clients: usize,
) -> io::Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let parts: Vec<io::Result<WarmPart>> = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(front)?;
                    let mut out = Vec::new();
                    for i in (c..pool.len()).step_by(clients) {
                        let m = client.roundtrip_raw(&pool[i].match_req)?;
                        let q = client.roundtrip_raw(&pool[i].query_req)?;
                        out.push((i, m, q));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client panicked"))
            .collect()
    });
    let mut replies = vec![(Vec::new(), Vec::new()); pool.len()];
    for part in parts {
        for (i, m, q) in part? {
            replies[i] = (m, q);
        }
    }
    Ok(replies)
}

/// The in-process index the lockstep pass and the traced replay use:
/// the same snapshot, loaded whole.
struct Oracle {
    index: MatchIndex,
    ids: Vec<String>,
}

impl Oracle {
    fn load(path: &Path, options: &ComposeOptions) -> io::Result<Oracle> {
        let loaded = Snapshot::load(path, options, 0).map_err(to_io)?;
        let ids = loaded
            .index
            .corpus()
            .iter()
            .map(|p| p.model().id.clone())
            .collect();
        Ok(Oracle {
            index: loaded.index,
            ids,
        })
    }

    /// The MATCH response a single in-process index gives `xml`, and
    /// whether its exact hits equal the naive scan's.
    fn expect_match(&self, xml: &str) -> Option<(Vec<u8>, bool)> {
        let query = parse_sbml(xml).ok()?;
        let result = self.index.query_corpus(&query);
        let exact: Vec<usize> = result.exact.iter().map(|h| h.model).collect();
        let naive_ok = exact == self.index.naive_hits(&query);
        let (code, text) = format_matches(&result, &self.ids, &self.ids);
        Some((
            Response::Ok {
                code,
                body: text.into_bytes(),
            }
            .encode(),
            naive_ok,
        ))
    }
}

/// What one timed client saw. Times are seconds since the timed phase
/// started, taken when each reply arrived.
#[derive(Default)]
struct Tally {
    ops: u64,
    failed: u64,
    done_at: Vec<f64>,
    match_us: Vec<(f64, f64)>,
    query_us: Vec<f64>,
    upsert_us: Vec<f64>,
    remove_us: Vec<f64>,
}

impl Tally {
    fn record(&mut self, op: Op, at: f64, us: f64) {
        self.ops += 1;
        self.done_at.push(at);
        match op {
            Op::Match(_) => self.match_us.push((at, us)),
            Op::Query(_) => self.query_us.push(us),
            Op::Upsert { .. } => self.upsert_us.push(us),
            Op::Remove(_) => self.remove_us.push(us),
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.done_at.extend(other.done_at);
        self.match_us.extend(other.match_us);
        self.query_us.extend(other.query_us);
        self.upsert_us.extend(other.upsert_us);
        self.remove_us.extend(other.remove_us);
    }
}

/// One closed-loop client: send, wait, check, repeat until `seconds`
/// have passed since `start`.
fn client_loop(
    front: SocketAddr,
    mut stream: Stream<'_>,
    inputs: &Inputs,
    start: Instant,
    seconds: f64,
) -> Tally {
    let mut tally = Tally::default();
    let Ok(mut client) = Client::connect(front) else {
        tally.failed += 1;
        return tally;
    };
    while start.elapsed().as_secs_f64() < seconds {
        let op = stream.next();
        let sent = Instant::now();
        let reply = client.roundtrip_raw(inputs.request(op));
        let us = sent.elapsed().as_secs_f64() * 1e6;
        tally.record(op, start.elapsed().as_secs_f64(), us);
        match reply {
            Ok(reply) => {
                if !inputs.check(op, &reply) {
                    tally.failed += 1;
                }
            }
            Err(_) => {
                tally.failed += 1;
                match Client::connect(front) {
                    Ok(fresh) => client = fresh,
                    Err(_) => break,
                }
            }
        }
    }
    tally
}

pub fn run(config: &Config, cluster: bool) -> Outcome {
    match run_inner(config, cluster) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            Outcome {
                attempted: 1,
                failed: 1,
                ..Outcome::default()
            }
        }
    }
}

fn run_inner(config: &Config, cluster: bool) -> io::Result<Outcome> {
    let sizes = if config.tiny { TINY } else { FULL };
    let clients = nproc().clamp(1, 2);
    let options = options();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let pool = make_pool(&mut rng, &sizes, &options);
    let inputs = Inputs {
        zipf: Zipf::new(pool.len(), &mut rng),
        pool,
        churn: if cluster {
            make_churn(&sizes)
        } else {
            Vec::new()
        },
        mix: if cluster { CLUSTER_MIXED } else { MATCH_READ },
        reference: None,
    };
    let snapshot = SnapshotFile::build(
        &config.work_dir,
        sizes.models,
        if cluster { SHARDS } else { 1 },
    )?;
    let mut out = Outcome::default();

    // Oracle answers for the lockstep sample, before any server exists.
    // The untraced run drops the oracle index before set-up so the peak
    // RSS is the serving state's.
    let oracle = Oracle::load(&snapshot.0, &options)?;
    let mut expected: Vec<Vec<u8>> = Vec::new();
    for entry in &inputs.pool[..sizes.lockstep] {
        let Request::Match { query_xml } = &entry.match_req else {
            unreachable!()
        };
        match oracle.expect_match(query_xml) {
            Some((bytes, naive_ok)) => {
                out.check(naive_ok);
                expected.push(bytes);
            }
            None => {
                out.check(false);
                expected.push(Vec::new());
            }
        }
    }
    if config.sabotage {
        expected[0].push(b'!');
    }
    let oracle = if config.trace {
        Some(oracle)
    } else {
        drop(oracle);
        None
    };

    // Set-up, repeated: load, bind, handshake, warm-up.
    let mut setup_s = Vec::new();
    let mut load_s = Vec::new();
    let mut warm_s = Vec::new();
    let mut live = None;
    for rep in 0..sizes.setup_reps {
        let start = Instant::now();
        let topo = Topology::start(&snapshot.0, cluster, &options)?;
        let warm_start = Instant::now();
        let replies = match warm_up(topo.front, &inputs.pool, clients) {
            Ok(replies) => replies,
            Err(e) => {
                topo.stop();
                return Err(e);
            }
        };
        warm_s.push(warm_start.elapsed().as_secs_f64());
        setup_s.push(start.elapsed().as_secs_f64());
        load_s.push(topo.load_s);
        if rep + 1 < sizes.setup_reps {
            if !topo.stop() {
                return Err(to_io("a server failed to shut down cleanly"));
            }
        } else {
            live = Some((topo, replies));
        }
    }
    let (topo, replies) = live.expect("at least one set-up repetition");

    let result = drive(
        config, cluster, &sizes, clients, &options, &topo, replies, inputs, &expected, oracle,
        &mut out,
    );
    let stopped = topo.stop();
    let (measured, detail, provenance) = result?;
    out.check(stopped);
    out.detail = detail;
    out.provenance = provenance;
    out.metrics = match measured {
        Measured::EndToEnd(mut metrics) => {
            metrics.push(Metric::new("setup_s", median(&setup_s), "s"));
            metrics.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
            metrics
        }
        Measured::Layers(mut values) => {
            values.insert("sbml-serve.snapshot_load_s", median(&load_s));
            values.insert("sbml-serve.warmup_s", median(&warm_s));
            ledger::per_layer(&values)
        }
    };
    Ok(out)
}

/// What the timed or the traced phase measured.
enum Measured {
    EndToEnd(Vec<Metric>),
    Layers(BTreeMap<&'static str, f64>),
}

type Drive = (Measured, Vec<Metric>, Vec<(&'static str, String)>);

/// Everything after set-up: the lockstep pass, then the timed or the
/// traced phase.
#[allow(clippy::too_many_arguments)]
fn drive(
    config: &Config,
    cluster: bool,
    sizes: &Sizes,
    clients: usize,
    options: &ComposeOptions,
    topo: &Topology,
    replies: Vec<(Vec<u8>, Vec<u8>)>,
    mut inputs: Inputs,
    expected: &[Vec<u8>],
    oracle: Option<Oracle>,
    out: &mut Outcome,
) -> io::Result<Drive> {
    // Lockstep: one client, the front's MATCH bytes against the oracle's.
    let mut client = Client::connect(topo.front)?;
    for (entry, want) in inputs.pool.iter().zip(expected) {
        let got = client.roundtrip_raw(&entry.match_req)?;
        out.check(&got == want);
    }
    drop(client);

    // Every warm-up reply must answer its query; on the read-only
    // workload they are the byte-exact expectation from here on.
    let mut held_out = 0usize;
    let mut held_out_misses = 0usize;
    for (entry, (m, q)) in inputs.pool.iter().zip(&replies) {
        out.check(answer_ok(entry, m, true) && answer_ok(entry, q, false));
        if entry.host.is_none() {
            held_out += 1;
            held_out_misses += usize::from(matches!(decode_ok(m), Some((1, _))));
        }
    }
    if !cluster {
        inputs.reference = Some(replies);
    }
    // `--sabotage` also corrupts an expectation checked only while
    // timing: the hottest query's reference reply, or the id the first
    // churn model's writes must report.
    if config.sabotage {
        match &mut inputs.reference {
            Some(reference) => reference[inputs.zipf.order[0]].0.push(b'!'),
            None => inputs.churn[0].id.push('!'),
        }
    }

    let front_stats = stats(topo.front)?;
    let mut provenance = vec![
        ("clients", clients.to_string()),
        ("models", sizes.models.to_string()),
        ("pool", inputs.pool.len().to_string()),
        (
            "cache_capacity",
            ServerConfig::default().cache_capacity.to_string(),
        ),
    ];
    if cluster {
        provenance.push((
            "coordinator_threads",
            counter(&front_stats, "threads").to_string(),
        ));
        provenance.push(("shard_daemons", topo.shards.len().to_string()));
        let shard_stats = stats(topo.shards[0])?;
        provenance.push((
            "daemon_threads",
            counter(&shard_stats, "threads").to_string(),
        ));
    } else {
        provenance.push((
            "daemon_threads",
            counter(&front_stats, "threads").to_string(),
        ));
    }
    let held_out_miss_frac = ratio(held_out_misses as f64, held_out as f64);

    if let Some(oracle) = oracle {
        let metrics = traced(config, cluster, options, topo, &inputs, oracle, out)?;
        let detail = vec![Metric::new(
            "held_out_miss_frac",
            held_out_miss_frac,
            "ratio",
        )];
        return Ok((Measured::Layers(metrics), detail, provenance));
    }

    let before = stats(topo.front)?;
    let start = Instant::now();
    let mut tally = Tally::default();
    let inputs_ref = &inputs;
    let tallies: Vec<Tally> = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let stream = Stream::new(
                    config.seed,
                    c,
                    clients,
                    &inputs_ref.zipf,
                    &inputs_ref.mix,
                    inputs_ref.churn.len(),
                );
                s.spawn(move || client_loop(topo.front, stream, inputs_ref, start, config.seconds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    for t in tallies {
        tally.absorb(t);
    }
    let after = stats(topo.front)?;
    out.attempted += tally.ops;
    out.failed += tally.failed;

    // The reported figures are medians over ~2-second windows.
    let seconds = config.seconds;
    let metrics = vec![
        Metric::new("ops_per_s", windowed_rate(&tally.done_at, seconds), "1/s"),
        Metric::new(
            "latency_p50_us",
            windowed(&tally.match_us, seconds, median),
            "us",
        ),
        Metric::new(
            "latency_p99_us",
            windowed(&tally.match_us, seconds, |v| percentile(v, 0.99)),
            "us",
        ),
    ];
    let match_us: Vec<f64> = tally.match_us.iter().map(|&(_, us)| us).collect();
    let mut detail = vec![
        Metric::new("ops_per_s", tally.ops as f64 / elapsed, "1/s"),
        Metric::new("match_p50_us", median(&match_us), "us"),
        Metric::new("match_p99_us", percentile(&match_us, 0.99), "us"),
        Metric::new("query_p50_us", median(&tally.query_us), "us"),
        Metric::new("cache_hit_rate", hit_rate(&before, &after), "ratio"),
        Metric::new(
            "failed_frac",
            ratio(out.failed as f64, out.attempted as f64),
            "ratio",
        ),
        Metric::new("held_out_miss_frac", held_out_miss_frac, "ratio"),
        Metric::new("match_samples", match_us.len() as f64, "count"),
    ];
    if cluster {
        detail.push(Metric::new("upsert_p50_us", median(&tally.upsert_us), "us"));
        detail.push(Metric::new(
            "upsert_p90_us",
            percentile(&tally.upsert_us, 0.9),
            "us",
        ));
        detail.push(Metric::new("remove_p50_us", median(&tally.remove_us), "us"));
        detail.push(Metric::new(
            "upsert_samples",
            tally.upsert_us.len() as f64,
            "count",
        ));
    }
    Ok((Measured::EndToEnd(metrics), detail, provenance))
}

/// In-process replay state: the oracle index kept in step with the
/// front (same writes, same order) and a mirror of its response cache.
struct Replay<'a> {
    options: &'a ComposeOptions,
    oracle: Oracle,
    cache: QueryCache,
    batch: BatchComposer,
    match_misses: u64,
    candidates: u64,
    exact: u64,
    approx: u64,
    requests: u64,
}

/// What the replay of one request produced: the response bytes of a
/// read, and whether the read missed the cache.
struct Replayed {
    bytes: Option<Arc<[u8]>>,
    miss: bool,
}

impl Replayed {
    /// A write, or a read that failed before it had an answer.
    fn no_reply() -> Replayed {
        Replayed {
            bytes: None,
            miss: true,
        }
    }
}

impl Replay<'_> {
    /// Run every pool query through the replay index once, untimed. The
    /// daemon's warm-up pass built its lazy match graphs and key sets;
    /// this builds the replay's, so no span pays a first-touch build
    /// the daemon never makes.
    fn warm(&self, pool: &[Entry]) {
        let index = &self.oracle.index;
        for entry in pool {
            let Request::Match { query_xml } = &entry.match_req else {
                unreachable!()
            };
            if let Ok(query) = parse_sbml(query_xml) {
                let qa = index.prepare_query(&query);
                std::hint::black_box(index.candidates_prepared(&qa));
                std::hint::black_box(index.query_corpus_prepared(&qa));
            }
        }
    }

    /// Replay `request` through the public calls in the order the
    /// daemon makes them, each inside a span.
    fn run(&mut self, request: &Request, ledger: &mut Ledger) -> Replayed {
        self.requests += 1;
        let payload = ledger.span(CODEC, || request.encode());
        let decoded = ledger.span(CODEC, || Request::decode(&payload));
        let replayed = match decoded {
            Ok(Request::Match { query_xml }) => self.read(&query_xml, true, ledger),
            Ok(Request::Query { query_xml }) => self.read(&query_xml, false, ledger),
            Ok(Request::Upsert { model_xml, .. }) => {
                self.upsert(&model_xml, ledger);
                Replayed::no_reply()
            }
            Ok(Request::Remove { model_id }) => {
                self.remove(&model_id, ledger);
                Replayed::no_reply()
            }
            _ => Replayed::no_reply(),
        };
        if let Some(bytes) = &replayed.bytes {
            let _ = ledger.span(CODEC, || Response::decode(bytes));
        }
        replayed
    }

    fn read(&mut self, xml: &str, is_match: bool, ledger: &mut Ledger) -> Replayed {
        let Ok(query) = ledger.span(PARSE, || parse_sbml(xml)) else {
            return Replayed::no_reply();
        };
        let verb = if is_match { "MATCH" } else { "QUERY" };
        let key = ledger.span(CACHE_KEY, || cache_key(verb, &query, self.options));
        let cache = &mut self.cache;
        if let Some(hit) = ledger.span(CACHE_LOOKUP, || cache.get(&key)) {
            return Replayed {
                bytes: Some(hit),
                miss: false,
            };
        }
        let index = &self.oracle.index;
        let ids = &self.oracle.ids;
        let qa = ledger.span(PREPARE_QUERY, || index.prepare_query(&query));
        // QUERY answers with the candidates. MATCH gets them inside
        // `query_corpus_prepared`; the separate call only times the
        // stage, so it stays off the request's own chain.
        let candidates = if is_match {
            ledger.span_aside(CANDIDATES, || index.candidates_prepared(&qa))
        } else {
            ledger.span(CANDIDATES, || index.candidates_prepared(&qa))
        };
        let response = if is_match {
            let result = ledger.span(QUERY_CORPUS, || index.query_corpus_prepared(&qa));
            self.match_misses += 1;
            self.candidates += result.candidates.len() as u64;
            self.exact += result.exact.len() as u64;
            self.approx += u64::from(result.exact.is_empty());
            let (code, text) = ledger.span(FORMAT, || format_matches(&result, ids, ids));
            Response::Ok {
                code,
                body: text.into_bytes(),
            }
        } else {
            // The daemon renders QUERY bodies inline, not through a
            // public call, so this stays outside the spans.
            let mut body = format!("candidates {}/{}\n", candidates.len(), index.len());
            for &m in &candidates {
                body.push_str("candidate ");
                body.push_str(&ids[m]);
                body.push('\n');
            }
            Response::Ok {
                code: u8::from(candidates.is_empty()),
                body: body.into_bytes(),
            }
        };
        let bytes: Arc<[u8]> = ledger.span(CODEC, || Arc::from(response.encode()));
        let cache = &mut self.cache;
        ledger.span(CACHE_LOOKUP, || cache.put(key, Arc::clone(&bytes)));
        Replayed {
            bytes: Some(bytes),
            miss: true,
        }
    }

    fn upsert(&mut self, xml: &str, ledger: &mut Ledger) {
        let Ok(model) = ledger.span(PARSE, || parse_sbml(xml)) else {
            return;
        };
        let batch = &self.batch;
        let prepared = ledger.span(PREPARE, || {
            batch.prepare_corpus(std::slice::from_ref(&model))
        });
        let Some(prepared) = prepared.into_iter().next() else {
            return;
        };
        self.remove(&model.id, ledger);
        let index = &mut self.oracle.index;
        ledger.span(INSERT, || index.insert(prepared));
        self.oracle.ids.push(model.id.clone());
    }

    fn remove(&mut self, id: &str, ledger: &mut Ledger) {
        if let Some(rank) = self.oracle.ids.iter().position(|m| m == id) {
            let index = &mut self.oracle.index;
            ledger.span(REMOVE, || index.remove(rank));
            self.oracle.ids.remove(rank);
        }
        let cache = &mut self.cache;
        ledger.span(CACHE_LOOKUP, || cache.clear());
    }
}

fn timed_roundtrip(client: &mut Client, request: &Request) -> io::Result<(f64, Vec<u8>)> {
    let start = Instant::now();
    let reply = client.roundtrip_raw(request)?;
    Ok((start.elapsed().as_secs_f64() * 1e6, reply))
}

/// The traced run: one client's stream through the front, each request
/// also replayed in-process under the ledger.
fn traced(
    config: &Config,
    cluster: bool,
    options: &ComposeOptions,
    topo: &Topology,
    inputs: &Inputs,
    oracle: Oracle,
    out: &mut Outcome,
) -> io::Result<BTreeMap<&'static str, f64>> {
    let mut replay = Replay {
        options,
        oracle,
        cache: QueryCache::new(ServerConfig::default().cache_capacity),
        batch: BatchComposer::new(Composer::new(options.clone())),
        match_misses: 0,
        candidates: 0,
        exact: 0,
        approx: 0,
        requests: 0,
    };
    replay.warm(&inputs.pool);
    let overhead = trace_overhead(&mut replay, inputs);

    let mut ledger = Ledger::new(true);
    let mut front = Client::connect(topo.front)?;
    let mut shards: Vec<Client> = topo
        .shards
        .iter()
        .map(Client::connect)
        .collect::<io::Result<_>>()?;
    let mut stream = Stream::new(
        config.seed,
        0,
        1,
        &inputs.zipf,
        &inputs.mix,
        inputs.churn.len(),
    );
    let mut wire_queue = Vec::new();
    let mut response_bytes = Vec::new();
    let mut shard_rtt = Vec::new();
    let mut straggler = Vec::new();
    let mut coord_overhead = Vec::new();
    let mut replay_wall_us = 0.0;
    let mut replay_span_us = 0.0;
    let before = stats(topo.front)?;
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    while Instant::now() < deadline {
        let op = stream.next();
        let request = inputs.request(op);
        ledger.begin();
        let wall = Instant::now();
        let replayed = replay.run(request, &mut ledger);
        replay_wall_us += wall.elapsed().as_secs_f64() * 1e6 - ledger.aside_us();
        let spans = ledger.request_us();
        replay_span_us += spans;

        let reply = match op {
            Op::Match(i) if cluster && replayed.miss => {
                let entry = &inputs.pool[i];
                let mut cold = Vec::new();
                let mut parts = Vec::new();
                for shard in &mut shards {
                    let (us, reply) = timed_roundtrip(shard, &entry.pmatch_req)?;
                    cold.push(us);
                    if let Ok(Response::Ok { code: 0, body }) = Response::decode(&reply) {
                        parts.extend(PartialMatches::decode(&body).ok());
                    }
                }
                let merged = ledger.span(MERGE, || {
                    merge_matches(&parts, ServerConfig::default().top_k)
                });
                let (coord_us, reply) = timed_roundtrip(&mut front, request)?;
                let mut warm = Vec::new();
                for shard in &mut shards {
                    warm.push(timed_roundtrip(shard, &entry.pmatch_req)?.0);
                }
                // No `wire_queue_us` sample here: the replay answers
                // from the whole corpus while each shard answers its
                // half, so no round trip here is comparable with the
                // replay's spans. The hops show in the cluster metrics.
                let slowest_cold = cold.iter().copied().fold(0.0, f64::max);
                let fastest_cold = cold.iter().copied().fold(f64::INFINITY, f64::min);
                shard_rtt.extend(cold.iter().copied());
                straggler.push(slowest_cold - fastest_cold);
                coord_overhead.push(coord_us - warm.iter().copied().fold(0.0, f64::max));
                out.check(
                    parts.len() == shards.len() && decode_ok(&reply).as_ref() == Some(&merged),
                );
                reply
            }
            _ => {
                let (us, reply) = timed_roundtrip(&mut front, request)?;
                if matches!(op, Op::Match(_)) {
                    wire_queue.push(us - spans);
                }
                reply
            }
        };
        if matches!(op, Op::Match(_)) {
            response_bytes.push(reply.len() as f64);
        }
        let same = replayed
            .bytes
            .as_deref()
            .is_none_or(|bytes| bytes == reply.as_slice());
        out.check(inputs.check(op, &reply) && same);
    }
    let after = stats(topo.front)?;
    let tombstoned: f64 = if cluster {
        let mut sum = 0.0;
        for &shard in &topo.shards {
            sum += counter(&stats(shard)?, "tombstoned_models");
        }
        sum
    } else {
        counter(&after, "tombstoned_models")
    };

    let totals = ledger.totals();
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for stage in [
        PARSE,
        PREPARE,
        PREPARE_QUERY,
        CANDIDATES,
        INSERT,
        REMOVE,
        CACHE_KEY,
        CACHE_LOOKUP,
        FORMAT,
        MERGE,
    ] {
        values.insert(stage, ledger::mean_us(&totals, stage));
    }
    values.insert(
        "sbml-match.refine_us",
        (ledger::mean_us(&totals, QUERY_CORPUS) - ledger::mean_us(&totals, CANDIDATES)).max(0.0),
    );
    let misses = replay.match_misses as f64;
    values.insert(
        "sbml-match.candidates_per_query",
        ratio(replay.candidates as f64, misses),
    );
    values.insert(
        "sbml-match.exact_per_query",
        ratio(replay.exact as f64, misses),
    );
    values.insert(
        "sbml-match.refine_yield",
        ratio(replay.exact as f64, replay.candidates as f64),
    );
    values.insert(
        "sbml-match.approx_frac",
        ratio(replay.approx as f64, misses),
    );
    values.insert("sbml-match.tombstoned_models", tombstoned);
    values.insert("sbml-serve.cache_hit_rate", hit_rate(&before, &after));
    values.insert("sbml-serve.response_bytes", mean(&response_bytes));
    values.insert(
        "sbml-serve.codec_us",
        ratio(ledger::total_us(&totals, CODEC), replay.requests as f64),
    );
    values.insert("sbml-serve.wire_queue_us", mean(&wire_queue));
    values.insert("sbml-cluster.shard_rtt_us", mean(&shard_rtt));
    values.insert("sbml-cluster.straggler_us", mean(&straggler));
    values.insert("sbml-cluster.coord_overhead_us", mean(&coord_overhead));
    values.insert(
        "trace.unattributed_frac",
        ratio(replay_wall_us - replay_span_us, replay_wall_us),
    );
    values.insert("trace.overhead_frac", overhead);
    Ok(values)
}

/// Relative cost of the spans: in every round, each of the same
/// uncached MATCH replays runs once with the ledger off and once on,
/// back to back in alternating order, so a slow spell of the host lands
/// on both sides.
fn trace_overhead(replay: &mut Replay<'_>, inputs: &Inputs) -> f64 {
    let saved = std::mem::replace(&mut replay.cache, QueryCache::new(0));
    let mut off = Ledger::new(false);
    let mut on = Ledger::new(true);
    let (mut off_s, mut on_s) = (0.0, 0.0);
    for round in 0..OVERHEAD_ROUNDS {
        for (i, entry) in inputs.pool.iter().take(OVERHEAD_SAMPLE).enumerate() {
            let first = (i + round) % 2 == 0;
            for traced in [first, !first] {
                let ledger = if traced { &mut on } else { &mut off };
                let start = Instant::now();
                std::hint::black_box(replay.run(&entry.match_req, ledger).bytes);
                let seconds = start.elapsed().as_secs_f64();
                if traced {
                    on_s += seconds;
                } else {
                    off_s += seconds;
                }
            }
        }
    }
    replay.cache = saved;
    replay.match_misses = 0;
    replay.candidates = 0;
    replay.exact = 0;
    replay.approx = 0;
    replay.requests = 0;
    on_s / off_s - 1.0
}
