//! End-to-end benchmark of the workspace: composition, matching and
//! serving, with a per-crate call ledger.
//!
//! ```text
//! perfbench --workload <compose_batch|match_read|cluster_mixed> --seed <n>
//!           --seconds <s> --trace <0|1> --work-dir <dir>
//!           [--size full|tiny] [--sabotage] [--rustc <version>] [--git-rev <rev>]
//!           [--source-digest <hex>]
//! ```
//!
//! `perfbench/run.py` builds this binary and calls it; see
//! `perfbench/README.md` for the workloads, the metrics and what each
//! one should move. The last stdout line is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`.
//! Two lines before it carry the provenance and the workload-specific
//! detail metrics.
//!
//! `--size tiny` shrinks every input so the smoke test can run all
//! workloads in seconds; `--sabotage` corrupts expected answers (on
//! the serving workloads one checked before timing and one checked on
//! timed requests; on `compose_batch` the chain checked every
//! iteration) so the smoke test can prove the output checks are not
//! vacuous.

mod compose;
mod ledger;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// What one run was asked to do.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub sabotage: bool,
    pub work_dir: PathBuf,
}

/// A metric as printed: name, value, unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The result of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose output was checked (timed requests, composed
    /// models and pairs, lockstep checks).
    pub attempted: u64,
    /// Operations that failed a check, got an error frame, an
    /// unexpected exit code or a socket error.
    pub failed: u64,
    /// The metrics of the last line: end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Workload-specific end-to-end figures printed on the detail line.
    pub detail: Vec<Metric>,
    /// Extra provenance facts (worker counts and the like).
    pub provenance: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Record one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The host's available parallelism (1 when undetectable).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--build-snapshot") {
        return serve::build_snapshot_main(&args[1..]);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut tiny = false;
    let mut sabotage = false;
    let mut provenance: Vec<(&'static str, String)> = Vec::new();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--sabotage" {
            sabotage = true;
            continue;
        }
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = Some(value == "1"),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--size" => tiny = value == "tiny",
            "--rustc" => provenance.push(("rustc", value)),
            "--git-rev" => provenance.push(("git_rev", value)),
            "--source-digest" => provenance.push(("source_digest", value)),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(work_dir)) =
        (workload, seed, seconds, trace, work_dir)
    else {
        return usage("--workload, --seed, --seconds, --trace and --work-dir are required");
    };
    if std::fs::create_dir_all(&work_dir).is_err() {
        return usage(&format!("cannot create work dir {}", work_dir.display()));
    }
    let config = Config {
        workload,
        seed,
        seconds,
        trace,
        tiny,
        sabotage,
        work_dir,
    };
    let outcome = match config.workload.as_str() {
        "compose_batch" => compose::run(&config),
        "match_read" => serve::run(&config, false),
        "cluster_mixed" => serve::run(&config, true),
        other => return usage(&format!("unknown workload {other}")),
    };

    provenance.extend([
        ("workload", config.workload.clone()),
        ("seed", config.seed.to_string()),
        ("seconds", config.seconds.to_string()),
        ("trace", u8::from(config.trace).to_string()),
        (
            "size",
            if config.tiny { "tiny" } else { "full" }.to_string(),
        ),
        ("nproc", nproc().to_string()),
    ]);
    provenance.extend(outcome.provenance.iter().cloned());
    let fields: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    println!("{{\"provenance\": {{{}}}}}", fields.join(", "));
    println!("{{\"detail\": {}}}", metrics_json(&outcome.detail));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    ExitCode::SUCCESS
}
