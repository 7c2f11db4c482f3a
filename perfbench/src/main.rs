//! The repository benchmark: one workload per invocation, timed untraced
//! (`--trace 0`, end-to-end metrics) or traced (`--trace 1`, per-layer
//! metrics), every output checked.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--env <json>] [--out <dir>]
//! perfbench --write-reference
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! print every metric with its quartiles and sample count, and the full
//! record (environment included) goes to `<out>/`. `perfbench/run.py`
//! builds this binary and passes the environment record; see
//! `perfbench/README.md`.

mod check;
mod kernels;
mod net;
mod stats;
mod trace;

use stats::Value;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_cycles_per_s", "cycles/s"),
    ("arbitrations_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("network.step_ns_p50", "ns"),
    ("network.step_ns_p999", "ns"),
    ("network.skip_frac", "ratio"),
    ("network.new_s", "s"),
    ("network.shard_speedup", "x"),
    ("router.nominations", "count"),
    ("router.grants", "count"),
    ("router.collisions", "count"),
    ("router.grant_ratio", "ratio"),
    ("router.escape_dispatches", "count"),
    ("router.drain_engagements", "count"),
    ("router.occupancy_mean", "packets"),
    ("router.steps_executed", "count"),
    ("router.ns_per_executed_step", "ns"),
    ("workload.build_endpoints_s", "s"),
    ("workload.txns_started", "count"),
    ("workload.txns_completed", "count"),
    ("workload.mshr_stalls", "count"),
    ("workload.peak_queue_depth", "packets"),
    ("workload.outstanding_misses_mean", "misses"),
    ("arbitration.wfa.ns_per_call", "ns"),
    ("arbitration.pim1.ns_per_call", "ns"),
    ("arbitration.islip2.ns_per_call", "ns"),
    ("arbitration.ilqf2.ns_per_call", "ns"),
    ("arbitration.iocf1.ns_per_call", "ns"),
    ("arbitration.wfa.matched_per_call", "grants"),
    ("arbitration.pim1.matched_per_call", "grants"),
    ("arbitration.islip2.matched_per_call", "grants"),
    ("arbitration.ilqf2.matched_per_call", "grants"),
    ("arbitration.iocf1.matched_per_call", "grants"),
    ("arbitration.mwm.ns_per_call", "ns"),
    ("sim_throughput_flits_router_ns", "flits/router/ns"),
    ("sim_latency_ns_mean", "ns"),
    ("sim_txn_latency_ns_mean", "ns"),
    ("trace.overhead", "x"),
];

pub const WORKLOADS: [&str; 4] = [
    "sat_spaa_8x8",
    "lowload_pim1_8x8",
    "sharded_islip2_16x16",
    kernels::NAME,
];

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// What one workload run measured and checked.
pub struct Outcome {
    /// Metrics the run measured; the table's other metrics are reported as
    /// not exercised.
    pub metrics: Vec<(&'static str, Value)>,
    /// Further facts printed with the result (digests, model outputs).
    pub info: Vec<(String, String)>,
    pub checks: check::Checks,
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    env: String,
    out: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        env: "{}".into(),
        out: PathBuf::from("perfbench/out"),
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--env" => a.env = value()?,
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            a.workload
        ));
    }
    Ok(a)
}

fn run(a: &Args) -> Result<(), String> {
    let table = if a.trace { PER_LAYER } else { END_TO_END };
    let run_id = a.seed
        ^ std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64)
        ^ u64::from(std::process::id());
    let mut tracer = trace::Tracer::new(run_id);
    let outcome = match (net::NetWorkload::named(&a.workload), a.trace) {
        (Some(w), false) => w.measure(a.seed, a.seconds),
        (Some(w), true) => w.trace(a.seed, &mut tracer),
        (None, false) => kernels::measure(a.seed, a.seconds),
        (None, true) => kernels::trace(a.seed, &mut tracer),
    };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let v = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(Value::not_exercised(), |(_, v)| *v);
        metrics.push((name, unit, v));
    }
    if let Some((stray, _)) = outcome
        .metrics
        .iter()
        .find(|(n, _)| !table.iter().any(|(t, _)| t == n))
    {
        return Err(format!(
            "workload reported {stray}, which is not in the table"
        ));
    }

    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let stem = format!("{}-seed{}-trace{}", a.workload, a.seed, u8::from(a.trace));
    let spans = a.out.join(format!("{stem}-spans.json"));
    if a.trace {
        tracer
            .write(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
    }
    let checks = &outcome.checks;
    let correct = checks.failed == 0 && checks.attempted > 0;

    let mut text = String::new();
    let _ = writeln!(
        text,
        "perfbench {} seed {} trace {} ({} s)",
        a.workload,
        a.seed,
        u8::from(a.trace),
        a.seconds
    );
    let _ = writeln!(text, "environment {}", a.env);
    let _ = writeln!(text, "model {MODEL_NOTE}");
    for (name, unit, v) in &metrics {
        let _ = writeln!(
            text,
            "metric {name} = {} {unit} (q1 {}, q3 {}, samples {})",
            v.value, v.q1, v.q3, v.n
        );
    }
    for (k, v) in &outcome.info {
        let _ = writeln!(text, "info {k} = {v}");
    }
    if a.trace {
        let _ = writeln!(text, "spans {} -> {}", tracer.len(), spans.display());
    }
    let _ = writeln!(
        text,
        "checks attempted {} failed {}",
        checks.attempted, checks.failed
    );
    for note in &checks.notes {
        let _ = writeln!(text, "check failed: {note}");
    }
    print!("{text}");

    let record = result_record(a, &metrics, &outcome, correct, &spans);
    let path = a.out.join(format!("{stem}.json"));
    std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;

    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v.value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        fields.join(", ")
    );
    Ok(())
}

const MODEL_NOTE: &str = "unvalidated against hardware: the repository holds no measurements \
    of a real 21364, so no error figure is reported; simulated outputs are checked only \
    against the stored reference digests";

/// A JSON number (non-finite values, which JSON lacks, become null).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The full record of a run as JSON: environment, every metric with its
/// quartiles and sample count, the facts and the checks.
fn result_record(
    a: &Args,
    metrics: &[(&str, &str, Value)],
    outcome: &Outcome,
    correct: bool,
    spans: &std::path::Path,
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "    \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"q1\": {}, \"q3\": {}, \"samples\": {}}}",
                num(v.value),
                num(v.q1),
                num(v.q3),
                v.n
            )
        })
        .collect();
    let info: Vec<String> = outcome
        .info
        .iter()
        .map(|(k, v)| format!("    {}: {}", json_str(k), json_str(v)))
        .collect();
    let notes: Vec<String> = outcome.checks.notes.iter().map(|n| json_str(n)).collect();
    let env = if a.env.trim_start().starts_with('{') {
        a.env.clone()
    } else {
        json_str(&a.env)
    };
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"trace\": {},\n  \"seconds\": {},\n  \
         \"environment\": {env},\n  \"model\": {},\n  \"correct\": {correct},\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \"spans\": {},\n  \
         \"metrics\": {{\n{}\n  }},\n  \"info\": {{\n{}\n  }}\n}}\n",
        json_str(&a.workload),
        a.seed,
        a.trace,
        num(a.seconds),
        json_str(MODEL_NOTE),
        outcome.checks.attempted,
        outcome.checks.failed,
        notes.join(", "),
        if a.trace {
            json_str(&spans.display().to_string())
        } else {
            "null".into()
        },
        metrics.join(",\n"),
        info.join(",\n"),
    )
}

/// Rewrites `reference.txt` with the digests of every workload at every
/// reference seed.
fn write_reference() -> Result<(), String> {
    let mut text = String::from(
        "# perfbench reference: `workload seed digest` per line. The network digest covers\n\
         # every NetworkReport field; the kernel_replay digest covers the first round's\n\
         # matchings and the oracle weights. Regenerate with `perfbench --write-reference`\n\
         # only when a change to the model is intended.\n",
    );
    for workload in WORKLOADS {
        for seed in check::REFERENCE_SEEDS {
            let digest = match net::digest_for_reference(workload, seed) {
                Some(d) => d,
                None => kernels::digest_for_reference(seed),
            };
            let _ = writeln!(text, "{workload} {seed} {digest:016x}");
            eprintln!("{workload} {seed} {digest:016x}");
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference.txt");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let result = if args.peek().map(String::as_str) == Some("--write-reference") {
        write_reference()
    } else {
        parse_args(args).and_then(|a| run(&a))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_metric_has_a_valid_name_and_a_unit() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(name_ok(name), "bad metric name {name:?}");
            assert!(unit_ok(unit), "metric {name} has a bad unit {unit:?}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are used once");
    }

    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(compact.contains(&format!("{{\"name\":\"{w}\",\"why\"")));
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload kernel_replay --seed 3 --seconds 2 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 2.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload kernel_replay --trace 2").is_err());
        assert!(parse("--workload kernel_replay --bogus 1").is_err());
        assert!(parse("--workload kernel_replay --seconds 0").is_err());
    }
}
