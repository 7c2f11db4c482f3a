//! The three network workloads: timed runs of the engines and the traced
//! run that reads the network, router and workload layers.

use crate::check::{self, check_report, Checks};
use crate::stats::{self, Value};
use crate::trace::{SpanId, Tracer};
use crate::Outcome;
use network::{NetworkConfig, NetworkReport, NetworkSim, ShardedNetworkSim, Torus};
use router::{ArbAlgorithm, RouterConfig};
use std::time::Instant;
use workload::{build_endpoints, CoherenceEndpoint, EndpointStats, TrafficPattern, WorkloadConfig};

/// Timed runs of a workload before the measurement may stop, so that every
/// median, and the rate tail with its ten samples below, rests on enough
/// samples even when `--seconds` is short.
const MIN_REPS: usize = 12;
/// Set-ups timed in a traced run.
const TRACE_SETUPS: usize = 15;
/// Least number of untraced/traced run pairs in a traced run; the tracing
/// overhead is the ratio of their median wall times.
const TRACE_PAIRS: usize = 3;
/// Step samples a traced run collects, so that the 99.9th percentile has
/// ten samples beyond it.
const TRACE_STEPS: usize = 10_000;
/// Cycles between two samples of router occupancy and outstanding misses.
const SAMPLE_EVERY: u64 = 8;
/// Alternating 1-worker/2-worker pairs timed for the shard speed-up.
const SPEEDUP_PAIRS: usize = 2;

/// One network workload: a torus, an arbiter, traffic and a run length.
pub struct NetWorkload {
    pub name: &'static str,
    /// Side of the square torus.
    side: u16,
    algorithm: ArbAlgorithm,
    traffic: fn() -> WorkloadConfig,
    warmup_cycles: u64,
    measure_cycles: u64,
    /// Engine worker threads: 1 is `NetworkSim`, more is
    /// `ShardedNetworkSim`.
    workers: usize,
}

pub const WORKLOADS: [NetWorkload; 3] = [
    NetWorkload {
        name: "sat_spaa_8x8",
        side: 8,
        algorithm: ArbAlgorithm::SpaaRotary,
        traffic: || WorkloadConfig::open_loop(TrafficPattern::Uniform, 0.1),
        warmup_cycles: 300,
        measure_cycles: 2_000,
        workers: 1,
    },
    NetWorkload {
        name: "lowload_pim1_8x8",
        side: 8,
        algorithm: ArbAlgorithm::Pim1,
        traffic: || WorkloadConfig::paper(TrafficPattern::Uniform, 0.002),
        warmup_cycles: 5_000,
        measure_cycles: 40_000,
        workers: 1,
    },
    NetWorkload {
        name: "sharded_islip2_16x16",
        side: 16,
        algorithm: ArbAlgorithm::Islip { iterations: 2 },
        traffic: || WorkloadConfig::open_loop(TrafficPattern::Uniform, 0.02),
        warmup_cycles: 400,
        measure_cycles: 2_000,
        workers: 2,
    },
];

/// Either engine, built from one configuration.
enum Engine {
    Single(Box<NetworkSim<CoherenceEndpoint>>),
    Sharded(Box<ShardedNetworkSim<CoherenceEndpoint>>),
}

impl Engine {
    fn run(&mut self) -> NetworkReport {
        match self {
            Engine::Single(sim) => sim.run(),
            Engine::Sharded(sim) => sim.run(),
        }
    }
}

/// An engine and the instants that bound its two set-up parts: endpoint
/// construction (`t0..t1`) and engine construction (`t1..t2`).
struct Setup {
    engine: Engine,
    t0: Instant,
    t1: Instant,
    t2: Instant,
}

impl Setup {
    fn build_endpoints_s(&self) -> f64 {
        (self.t1 - self.t0).as_secs_f64()
    }

    fn new_s(&self) -> f64 {
        (self.t2 - self.t1).as_secs_f64()
    }
}

impl NetWorkload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<&'static NetWorkload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    fn torus(&self) -> Torus {
        Torus::new(self.side, self.side)
    }

    fn config(&self, seed: u64) -> NetworkConfig {
        NetworkConfig {
            topology: self.torus().into(),
            router: RouterConfig::alpha_21364(self.algorithm),
            seed,
            warmup_cycles: self.warmup_cycles,
            measure_cycles: self.measure_cycles,
            fault: Default::default(),
        }
    }

    fn cycles(&self) -> u64 {
        self.warmup_cycles + self.measure_cycles
    }

    fn setup(&self, cfg: &NetworkConfig, workers: usize) -> Setup {
        let t0 = Instant::now();
        let endpoints = build_endpoints(cfg, &(self.traffic)());
        let t1 = Instant::now();
        let engine = if workers == 1 {
            Engine::Single(Box::new(NetworkSim::new(cfg.clone(), endpoints)))
        } else {
            Engine::Sharded(Box::new(ShardedNetworkSim::new(
                cfg.clone(),
                endpoints,
                workers,
            )))
        };
        Setup {
            engine,
            t0,
            t1,
            t2: Instant::now(),
        }
    }

    /// Untraced measurement: fresh set-up and a full run per repetition
    /// until `seconds` have passed, after one warm-up repetition. Rates are
    /// the ones sustained in 95% of repetitions, set-up time the median.
    /// Every report is checked.
    pub fn measure(&self, seed: u64, seconds: f64) -> Outcome {
        let cfg = self.config(seed);
        let reference = check::reference(self.name, seed);
        let mut checks = Checks::default();
        let mut setup_s = Vec::new();
        let mut cycles_per_s = Vec::new();
        let mut grants_per_s = Vec::new();

        let mut warm = self.setup(&cfg, self.workers);
        let first = warm.engine.run();
        drop(warm);
        let digest = check_report(&mut checks, "warm-up run", &first, None, reference);

        let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
        while Instant::now() < deadline || setup_s.len() < MIN_REPS {
            let mut s = self.setup(&cfg, self.workers);
            let t0 = Instant::now();
            let report = s.engine.run();
            let run_s = t0.elapsed().as_secs_f64();
            setup_s.push(s.build_endpoints_s() + s.new_s());
            drop(s);
            cycles_per_s.push(self.cycles() as f64 / run_s);
            grants_per_s.push(report.grants as f64 / run_s);
            check_report(&mut checks, "timed run", &report, Some(digest), reference);
        }

        let (cycles_per_s, below) = Value::sustained(&cycles_per_s);
        let mut info = model_outputs(&first);
        info.push(("report_digest".into(), format!("{digest:016x}")));
        info.push(("reference_digest".into(), reference_text(reference)));
        info.push(("cycles_per_run".into(), self.cycles().to_string()));
        info.push(("engine_workers".into(), self.workers.to_string()));
        info.push(("rate_fraction_below".into(), format!("{below}")));
        Outcome {
            metrics: vec![
                ("sim_cycles_per_s", cycles_per_s),
                ("arbitrations_per_s", Value::sustained(&grants_per_s).0),
                ("setup_s", Value::of(&setup_s)),
                ("peak_rss_mib", Value::exact(crate::peak_rss_mib())),
            ],
            info,
            checks,
        }
    }

    /// The traced run: set-up parts, untraced runs alternating with
    /// step-timed runs that sample router occupancy and outstanding misses,
    /// and 1-worker against 2-worker sharded runs. Every report must be
    /// bit-identical to the untraced one.
    pub fn trace(&self, seed: u64, tracer: &mut Tracer) -> Outcome {
        let cfg = self.config(seed);
        let reference = check::reference(self.name, seed);
        let nodes = self.torus().nodes();
        let mut checks = Checks::default();
        let root = tracer.begin("run", None);

        let mut build_s = Vec::new();
        let mut new_s = Vec::new();
        for _ in 0..TRACE_SETUPS {
            let s = self.setup(&cfg, self.workers);
            let span = tracer.record("setup", Some(root), s.t0, s.t2);
            tracer.record("workload.build_endpoints", Some(span), s.t0, s.t1);
            tracer.record("network.new", Some(span), s.t1, s.t2);
            build_s.push(s.build_endpoints_s());
            new_s.push(s.new_s());
        }

        // Untraced runs of `NetworkSim::run`, the loop the traced runs
        // replace, alternate with the traced runs so that both see the
        // same host conditions.
        let mut untraced: Option<(NetworkReport, u64)> = None;
        let mut untraced_s = Vec::new();
        let mut step_ns = Vec::new();
        let mut traced_s = Vec::new();
        let mut layers = None;
        while step_ns.len() < TRACE_STEPS || traced_s.len() < TRACE_PAIRS {
            let span = tracer.begin("untraced_run", Some(root));
            let mut s = self.setup(&cfg, 1);
            let t0 = Instant::now();
            let report = s.engine.run();
            untraced_s.push(t0.elapsed().as_secs_f64());
            drop(s);
            tracer.end(span);
            let expected = untraced.as_ref().map(|u| u.1);
            let d = check_report(&mut checks, "untraced run", &report, expected, reference);
            let digest = untraced.get_or_insert((report, d)).1;

            let run = tracer.begin("traced_run", Some(root));
            let r = self.traced_run(&cfg, tracer, run, &mut step_ns);
            tracer.end(run);
            traced_s.push(r.wall_s);
            check_report(
                &mut checks,
                "traced run",
                &r.report,
                Some(digest),
                reference,
            );
            layers.get_or_insert(r);
        }
        let (untraced, digest) = untraced.expect("at least one untraced run");
        let layers = layers.expect("at least one traced run");

        let mut speedup = Vec::new();
        for pair in 0..SPEEDUP_PAIRS {
            let span = tracer.begin("shard_speedup_pair", Some(root));
            let mut secs = [0.0; 2];
            let order = if pair % 2 == 0 { [1, 2] } else { [2, 1] };
            for workers in order {
                let mut s = self.setup(&cfg, workers);
                let t0 = Instant::now();
                let report = s.engine.run();
                secs[workers - 1] = t0.elapsed().as_secs_f64();
                drop(s);
                check_report(
                    &mut checks,
                    &format!("sharded run, {workers} worker(s)"),
                    &report,
                    Some(digest),
                    reference,
                );
            }
            tracer.end(span);
            speedup.push(secs[0] / secs[1]);
        }
        tracer.end(root);

        let sorted = stats::sorted(&step_ns);
        let (p999, p999_fraction) = stats::upper_tail(&sorted);
        let rep = &layers.report;
        let steps = self.cycles() * u64::from(nodes);
        let executed = steps - layers.skipped;
        let total_step_ns: f64 = step_ns.iter().sum();
        let runs = traced_s.len() as f64;
        let ep = &layers.endpoints;
        let exact = |x: u64| Value::exact(x as f64);

        let mut info = model_outputs(&untraced);
        info.push(("report_digest".into(), format!("{digest:016x}")));
        info.push(("reference_digest".into(), reference_text(reference)));
        info.push(("step_p999_fraction".into(), format!("{p999_fraction}")));
        info.push(("traced_runs".into(), traced_s.len().to_string()));
        info.push((
            "untraced_wall_s".into(),
            format!("{}", Value::of(&untraced_s).value),
        ));
        Outcome {
            metrics: vec![
                ("network.step_ns_p50", Value::of(&step_ns)),
                (
                    "network.step_ns_p999",
                    Value {
                        value: p999,
                        q1: p999,
                        q3: p999,
                        n: step_ns.len(),
                    },
                ),
                (
                    "network.skip_frac",
                    Value::exact(layers.skipped as f64 / steps as f64),
                ),
                ("network.new_s", Value::of(&new_s)),
                ("network.shard_speedup", Value::of(&speedup)),
                ("router.nominations", exact(rep.nominations)),
                ("router.grants", exact(rep.grants)),
                ("router.collisions", exact(rep.collisions)),
                (
                    "router.grant_ratio",
                    Value::exact(rep.grants as f64 / rep.nominations as f64),
                ),
                ("router.escape_dispatches", exact(rep.escape_dispatches)),
                ("router.drain_engagements", exact(rep.drain_engagements)),
                (
                    "router.occupancy_mean",
                    Value::exact(stats::mean(&layers.occupancy)),
                ),
                ("router.steps_executed", exact(executed)),
                (
                    "router.ns_per_executed_step",
                    Value::exact(total_step_ns / (executed as f64 * runs)),
                ),
                ("workload.build_endpoints_s", Value::of(&build_s)),
                ("workload.txns_started", exact(ep.transactions_started)),
                ("workload.txns_completed", exact(ep.transactions_completed)),
                ("workload.mshr_stalls", exact(ep.mshr_stalls)),
                (
                    "workload.peak_queue_depth",
                    exact(ep.peak_queue_depth as u64),
                ),
                (
                    "workload.outstanding_misses_mean",
                    Value::exact(stats::mean(&layers.outstanding)),
                ),
                (
                    "trace.overhead",
                    Value::exact(Value::of(&traced_s).value / Value::of(&untraced_s).value),
                ),
            ]
            .into_iter()
            .chain(model_metrics(&untraced))
            .collect(),
            info,
            checks,
        }
    }

    /// One step-timed run on `NetworkSim`, replacing `run()` by its loop.
    fn traced_run(
        &self,
        cfg: &NetworkConfig,
        tracer: &mut Tracer,
        parent: SpanId,
        step_ns: &mut Vec<f64>,
    ) -> TracedRun {
        let nodes = self.torus().nodes();
        let span = tracer.begin("setup", Some(parent));
        let endpoints = build_endpoints(cfg, &(self.traffic)());
        let mut sim = NetworkSim::new(cfg.clone(), endpoints);
        tracer.end(span);
        let mut occupancy = Vec::new();
        let mut outstanding = Vec::new();
        let start = Instant::now();
        for cycle in 0..self.cycles() {
            let t0 = Instant::now();
            sim.step_cycle();
            let t1 = Instant::now();
            tracer.record("network.step_cycle", Some(parent), t0, t1);
            step_ns.push((t1 - t0).as_nanos() as f64);
            if cycle % SAMPLE_EVERY == 0 {
                let buffered: usize = (0..nodes).map(|n| sim.router(n).buffered_packets()).sum();
                let misses: u64 = (0..nodes)
                    .map(|n| u64::from(sim.endpoint(n).outstanding_misses()))
                    .sum();
                occupancy.push(buffered as f64 / f64::from(nodes));
                outstanding.push(misses as f64 / f64::from(nodes));
                tracer.record("router.sample", Some(parent), t1, Instant::now());
            }
        }
        let report = sim.report();
        let wall_s = start.elapsed().as_secs_f64();
        let mut endpoints = EndpointStats::default();
        for n in 0..nodes {
            endpoints.merge(sim.endpoint(n).stats());
        }
        TracedRun {
            report,
            wall_s,
            skipped: sim.skipped_router_steps(),
            endpoints,
            occupancy,
            outstanding,
        }
    }
}

struct TracedRun {
    report: NetworkReport,
    wall_s: f64,
    skipped: u64,
    endpoints: EndpointStats,
    occupancy: Vec<f64>,
    outstanding: Vec<f64>,
}

/// The simulated outputs: the BNF axes and the transaction latency.
fn model_metrics(r: &NetworkReport) -> Vec<(&'static str, Value)> {
    vec![
        (
            "sim_throughput_flits_router_ns",
            Value::exact(r.flits_per_router_ns),
        ),
        ("sim_latency_ns_mean", Value::exact(r.avg_latency_ns())),
        (
            "sim_txn_latency_ns_mean",
            Value::exact(r.avg_txn_latency_ns()),
        ),
    ]
}

fn model_outputs(r: &NetworkReport) -> Vec<(String, String)> {
    model_metrics(r)
        .into_iter()
        .map(|(name, v)| (name.to_string(), format!("{}", v.value)))
        .collect()
}

fn reference_text(reference: Option<u64>) -> String {
    reference.map_or("none (held-out seed)".into(), |d| format!("{d:016x}"))
}

/// The report digest of `name` at `seed` from one `NetworkSim` run, for
/// regenerating the reference.
pub fn digest_for_reference(name: &str, seed: u64) -> Option<u64> {
    let w = NetWorkload::named(name)?;
    let report = w.setup(&w.config(seed), 1).engine.run();
    Some(check::report_digest(&report))
}
