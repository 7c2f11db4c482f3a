//! `kernel_replay`: the windowed router's five matching kernels called on
//! seeded request matrices, every matching checked against the
//! maximum-weight-matching oracle.

use crate::check::{self, Checks, Digest};
use crate::stats::{self, Value};
use crate::trace::Tracer;
use crate::Outcome;
use arbitration::islip::IslipArbiter;
use arbitration::lqf::LqfArbiter;
use arbitration::matching::Matching;
use arbitration::matrix::{ConnectionMatrix, RequestMatrix, WeightMatrix};
use arbitration::mwm::maximum_weight_matching;
use arbitration::ocf::OcfArbiter;
use arbitration::pim::PimArbiter;
use arbitration::ports::{NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS};
use arbitration::wfa::WfaArbiter;
use simcore::SimRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub const NAME: &str = "kernel_replay";
/// Request matrices per input set.
const MATRICES: usize = 2048;
/// Rounds (one pass of every kernel over every matrix) before the
/// measurement may stop; the rate tail needs more than ten.
const MIN_ROUNDS: usize = 12;
/// Rounds timed in each half of a traced run.
const TRACE_ROUNDS: usize = 30;
/// Oracle passes timed in a traced run.
const MWM_PASSES: usize = 3;
/// Core cycles one kernel call stands for: the windowed driver starts an
/// arbitration every 3 core cycles.
const CYCLES_PER_WINDOW: f64 = 3.0;
/// Largest depth weight (packets queued behind a cell).
const MAX_DEPTH: usize = 16;
/// Largest age weight (core cycles a head-of-line packet has waited).
const MAX_AGE: usize = 256;

/// The seeded inputs: request matrices masked by the 21364 connection
/// matrix, with a queue-depth and a head-of-line-age plane each.
pub struct Inputs {
    reqs: Vec<RequestMatrix>,
    depth: Vec<WeightMatrix>,
    age: Vec<WeightMatrix>,
}

/// Generates the inputs from `seed`. Each matrix draws its own request
/// density in [0.05, 0.95), so sparse and dense windows both appear.
pub fn generate(seed: u64) -> Inputs {
    let conn = ConnectionMatrix::alpha_21364();
    let mut rng = SimRng::from_seed(seed ^ 0x6b65_726e_656c);
    let mut inputs = Inputs {
        reqs: Vec::with_capacity(MATRICES),
        depth: Vec::with_capacity(MATRICES),
        age: Vec::with_capacity(MATRICES),
    };
    for _ in 0..MATRICES {
        let density = 0.05 + 0.9 * rng.unit();
        let mut req = RequestMatrix::new(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS);
        let mut depth = WeightMatrix::new(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS);
        let mut age = WeightMatrix::new(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS);
        for row in 0..NUM_ARBITER_ROWS {
            for col in 0..NUM_OUTPUT_PORTS {
                if conn.connected(row, col) && rng.chance(density) {
                    req.set(row, col);
                    depth.set(row, col, 1 + rng.below(MAX_DEPTH) as u32);
                    age.set(row, col, 1 + rng.below(MAX_AGE) as u32);
                }
            }
        }
        inputs.reqs.push(req);
        inputs.depth.push(depth);
        inputs.age.push(age);
    }
    inputs
}

/// The kernels the windowed router calls, in the configurations the
/// workloads' arbiters use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Wfa,
    Pim1,
    Islip2,
    Ilqf2,
    Iocf1,
}

pub const KERNELS: [Kernel; 5] = [
    Kernel::Wfa,
    Kernel::Pim1,
    Kernel::Islip2,
    Kernel::Ilqf2,
    Kernel::Iocf1,
];

/// The weight plane a kernel's matching is scored on.
#[derive(Clone, Copy)]
enum Plane {
    Unit,
    Depth,
    Age,
}

impl Kernel {
    /// The kernel's span name and its two per-layer metric names.
    fn names(self) -> [&'static str; 3] {
        match self {
            Kernel::Wfa => [
                "arbitration.wfa",
                "arbitration.wfa.ns_per_call",
                "arbitration.wfa.matched_per_call",
            ],
            Kernel::Pim1 => [
                "arbitration.pim1",
                "arbitration.pim1.ns_per_call",
                "arbitration.pim1.matched_per_call",
            ],
            Kernel::Islip2 => [
                "arbitration.islip2",
                "arbitration.islip2.ns_per_call",
                "arbitration.islip2.matched_per_call",
            ],
            Kernel::Ilqf2 => [
                "arbitration.ilqf2",
                "arbitration.ilqf2.ns_per_call",
                "arbitration.ilqf2.matched_per_call",
            ],
            Kernel::Iocf1 => [
                "arbitration.iocf1",
                "arbitration.iocf1.ns_per_call",
                "arbitration.iocf1.matched_per_call",
            ],
        }
    }

    fn plane(self) -> Plane {
        match self {
            Kernel::Ilqf2 => Plane::Depth,
            Kernel::Iocf1 => Plane::Age,
            _ => Plane::Unit,
        }
    }
}

/// One instance of every kernel, with the RNG PIM draws from.
struct Kernels {
    wfa: WfaArbiter,
    pim: PimArbiter,
    rng: SimRng,
    islip: IslipArbiter,
    lqf: LqfArbiter,
    ocf: OcfArbiter,
}

impl Kernels {
    fn new(seed: u64) -> Self {
        Kernels {
            wfa: WfaArbiter::base(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS),
            pim: PimArbiter::pim1(),
            rng: SimRng::from_seed(seed ^ 0x7069_6d31),
            islip: IslipArbiter::islip(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS, 2),
            lqf: LqfArbiter::new(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS, 2),
            ocf: OcfArbiter::new(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS, 1),
        }
    }

    /// Calls `kernel` once per matrix, collecting the matchings into
    /// `out`; returns the time the calls took.
    fn pass(&mut self, kernel: Kernel, inputs: &Inputs, out: &mut Vec<Matching>) -> Duration {
        out.clear();
        let reqs = &inputs.reqs;
        let t0 = Instant::now();
        match kernel {
            Kernel::Wfa => out.extend(reqs.iter().map(|r| self.wfa.arbitrate(black_box(r)))),
            Kernel::Pim1 => out.extend(
                reqs.iter()
                    .map(|r| self.pim.arbitrate(black_box(r), &mut self.rng)),
            ),
            Kernel::Islip2 => out.extend(reqs.iter().map(|r| self.islip.arbitrate(black_box(r)))),
            Kernel::Ilqf2 => out.extend(
                reqs.iter()
                    .zip(&inputs.depth)
                    .map(|(r, w)| self.lqf.arbitrate(black_box(r), w)),
            ),
            Kernel::Iocf1 => out.extend(
                reqs.iter()
                    .zip(&inputs.age)
                    .map(|(r, w)| self.ocf.arbitrate(black_box(r), w)),
            ),
        }
        let elapsed = t0.elapsed();
        black_box(&out);
        elapsed
    }
}

/// The oracle's maximum matching weight per matrix on each plane.
struct Oracle {
    unit: Vec<u64>,
    depth: Vec<u64>,
    age: Vec<u64>,
}

impl Oracle {
    fn new(inputs: &Inputs) -> Self {
        let unit_plane = WeightMatrix::unit(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS);
        let best =
            |r: &RequestMatrix, w: &WeightMatrix| w.matching_weight(&maximum_weight_matching(r, w));
        Oracle {
            unit: inputs.reqs.iter().map(|r| best(r, &unit_plane)).collect(),
            depth: inputs
                .reqs
                .iter()
                .zip(&inputs.depth)
                .map(|(r, w)| best(r, w))
                .collect(),
            age: inputs
                .reqs
                .iter()
                .zip(&inputs.age)
                .map(|(r, w)| best(r, w))
                .collect(),
        }
    }
}

/// Checks one matching: it grants only requested cells, at most one per
/// row and column, and its weight on the kernel's plane does not exceed
/// the oracle's. Counts one operation.
fn check_matching(
    checks: &mut Checks,
    kernel: Kernel,
    i: usize,
    m: &Matching,
    inputs: &Inputs,
    oracle: &Oracle,
) {
    let req = &inputs.reqs[i];
    let one_per_line = m.matched_rows().count_ones() as usize == m.cardinality()
        && m.matched_cols().count_ones() as usize == m.cardinality();
    let (weight, bound) = match kernel.plane() {
        Plane::Unit => (m.cardinality() as u64, oracle.unit[i]),
        Plane::Depth => (inputs.depth[i].matching_weight(m), oracle.depth[i]),
        Plane::Age => (inputs.age[i].matching_weight(m), oracle.age[i]),
    };
    let ok = m.is_valid_for(req) && one_per_line && weight <= bound;
    checks.op(ok, || {
        format!(
            "{} on matrix {i}: valid {}, one per row and column {one_per_line}, weight {weight} vs oracle {bound}",
            kernel.names()[0],
            m.is_valid_for(req)
        )
    });
}

/// Checks every matching of a round, `outs[i]` holding kernel `i`'s.
fn check_round(checks: &mut Checks, outs: &[Vec<Matching>], inputs: &Inputs, oracle: &Oracle) {
    for (k, out) in KERNELS.iter().zip(outs) {
        for (i, m) in out.iter().enumerate() {
            check_matching(checks, *k, i, m, inputs, oracle);
        }
    }
}

/// Digest of a round's matchings (fresh kernels, every kernel in order)
/// and of the oracle weights.
fn round_digest(round: &[Vec<Matching>], oracle: &Oracle) -> u64 {
    let mut d = Digest::default();
    for out in round {
        for m in out {
            for row in 0..m.rows() {
                d.u64(m.output_of(row).map_or(u64::MAX, |c| c as u64));
            }
        }
    }
    for w in [&oracle.unit, &oracle.depth, &oracle.age] {
        w.iter().for_each(|&x| d.u64(x));
    }
    d.finish()
}

/// Runs the first round on fresh kernels, checks it against the
/// reference, and returns its digest.
fn first_round(
    seed: u64,
    inputs: &Inputs,
    oracle: &Oracle,
    checks: &mut Checks,
    kernels: &mut Kernels,
) -> (u64, Vec<Vec<Matching>>) {
    let mut round = vec![Vec::with_capacity(MATRICES); KERNELS.len()];
    for (k, out) in KERNELS.iter().zip(&mut round) {
        kernels.pass(*k, inputs, out);
    }
    check_round(checks, &round, inputs, oracle);
    let digest = round_digest(&round, oracle);
    let reference = check::reference(NAME, seed);
    checks.op(reference.is_none_or(|r| r == digest), || {
        format!("first-round digest {digest:016x} differs from the reference")
    });
    (digest, round)
}

/// Untraced measurement: rounds of all five kernels until `seconds` have
/// passed, after a checked first round. Rates are the ones sustained in
/// 95% of rounds, set-up time the median. Each round also times one input
/// generation, so that the `setup_s` samples spread over the whole run.
pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let inputs = generate(seed);
    let oracle = Oracle::new(&inputs);
    let mut checks = Checks::default();
    let mut kernels = Kernels::new(seed);
    let (digest, _) = first_round(seed, &inputs, &oracle, &mut checks, &mut kernels);

    let mut outs = vec![Vec::with_capacity(MATRICES); KERNELS.len()];
    let mut calls_per_s = Vec::new();
    let mut setup_s = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline || calls_per_s.len() < MIN_ROUNDS {
        let t0 = Instant::now();
        let generated = generate(seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(generated);
        let mut busy = Duration::ZERO;
        for (k, out) in KERNELS.iter().zip(&mut outs) {
            busy += kernels.pass(*k, &inputs, out);
        }
        check_round(&mut checks, &outs, &inputs, &oracle);
        calls_per_s.push((KERNELS.len() * MATRICES) as f64 / busy.as_secs_f64());
    }
    let cycles_per_s: Vec<f64> = calls_per_s.iter().map(|c| c * CYCLES_PER_WINDOW).collect();
    let (calls_per_s, below) = Value::sustained(&calls_per_s);
    Outcome {
        metrics: vec![
            ("sim_cycles_per_s", Value::sustained(&cycles_per_s).0),
            ("arbitrations_per_s", calls_per_s),
            ("setup_s", Value::of(&setup_s)),
            ("peak_rss_mib", Value::exact(crate::peak_rss_mib())),
        ],
        info: vec![
            ("matchings_digest".into(), format!("{digest:016x}")),
            ("matrices".into(), MATRICES.to_string()),
            ("rate_fraction_below".into(), format!("{below}")),
        ],
        checks,
    }
}

/// The traced run: untraced rounds, then the same number of rounds with a
/// span per kernel pass, then timed oracle passes. The first traced round
/// must repeat the untraced one bit for bit.
pub fn trace(seed: u64, tracer: &mut Tracer) -> Outcome {
    let root = tracer.begin("run", None);
    let span = tracer.begin("arbitration.generate_inputs", Some(root));
    let inputs = generate(seed);
    tracer.end(span);
    let oracle = Oracle::new(&inputs);
    let mut checks = Checks::default();
    let mut outs = vec![Vec::with_capacity(MATRICES); KERNELS.len()];

    let span = tracer.begin("untraced_rounds", Some(root));
    let mut kernels = Kernels::new(seed);
    let (digest, _) = first_round(seed, &inputs, &oracle, &mut checks, &mut kernels);
    let mut untraced_round_s = Vec::new();
    for _ in 0..TRACE_ROUNDS {
        let t0 = Instant::now();
        for (k, out) in KERNELS.iter().zip(&mut outs) {
            kernels.pass(*k, &inputs, out);
        }
        untraced_round_s.push(t0.elapsed().as_secs_f64());
        check_round(&mut checks, &outs, &inputs, &oracle);
    }
    tracer.end(span);

    let span = tracer.begin("traced_rounds", Some(root));
    let mut kernels = Kernels::new(seed);
    let (traced_digest, first) = first_round(seed, &inputs, &oracle, &mut checks, &mut kernels);
    checks.fail_unless(traced_digest == digest, || {
        format!("traced first round {traced_digest:016x} differs from untraced {digest:016x}")
    });
    let mut ns_per_call = vec![Vec::new(); KERNELS.len()];
    let mut traced_round_s = Vec::new();
    for _ in 0..TRACE_ROUNDS {
        let round = tracer.begin("round", Some(span));
        let t0 = Instant::now();
        for ((k, out), samples) in KERNELS.iter().zip(&mut outs).zip(&mut ns_per_call) {
            let p0 = Instant::now();
            let busy = kernels.pass(*k, &inputs, out);
            tracer.record(k.names()[0], Some(round), p0, Instant::now());
            samples.push(busy.as_nanos() as f64 / MATRICES as f64);
        }
        traced_round_s.push(t0.elapsed().as_secs_f64());
        tracer.end(round);
        check_round(&mut checks, &outs, &inputs, &oracle);
    }
    tracer.end(span);

    let mut mwm_ns = Vec::new();
    for _ in 0..MWM_PASSES {
        let t0 = Instant::now();
        for (r, w) in inputs.reqs.iter().zip(&inputs.depth) {
            black_box(maximum_weight_matching(black_box(r), w));
        }
        let t1 = Instant::now();
        tracer.record("arbitration.mwm", Some(root), t0, t1);
        mwm_ns.push((t1 - t0).as_nanos() as f64 / MATRICES as f64);
    }
    tracer.end(root);

    let mut metrics = Vec::new();
    for (i, k) in KERNELS.iter().enumerate() {
        let matched: Vec<f64> = first[i].iter().map(|m| m.cardinality() as f64).collect();
        let [_, ns, matched_name] = k.names();
        metrics.push((ns, Value::of(&ns_per_call[i])));
        metrics.push((matched_name, Value::exact(stats::mean(&matched))));
    }
    metrics.push(("arbitration.mwm.ns_per_call", Value::of(&mwm_ns)));
    let overhead = Value::of(&traced_round_s).value / Value::of(&untraced_round_s).value;
    metrics.push(("trace.overhead", Value::exact(overhead)));
    Outcome {
        metrics,
        info: vec![
            ("matchings_digest".into(), format!("{digest:016x}")),
            ("matrices".into(), MATRICES.to_string()),
        ],
        checks,
    }
}

/// The digest of the first round on fresh kernels, for regenerating the
/// reference.
pub fn digest_for_reference(seed: u64) -> u64 {
    let inputs = generate(seed);
    let oracle = Oracle::new(&inputs);
    let mut checks = Checks::default();
    first_round(seed, &inputs, &oracle, &mut checks, &mut Kernels::new(seed)).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_respect_the_connection_matrix() {
        let (a, b, c) = (generate(3), generate(3), generate(4));
        let conn = ConnectionMatrix::alpha_21364();
        assert!(a.reqs == b.reqs && a.reqs != c.reqs);
        for req in &a.reqs {
            for row in 0..NUM_ARBITER_ROWS {
                assert_eq!(req.row_mask(row) & !conn.row_mask(row), 0);
            }
        }
        let counts: Vec<usize> = a.reqs.iter().map(|r| r.request_count()).collect();
        assert!(counts.iter().any(|&c| c < 10) && counts.iter().any(|&c| c > 40));
    }

    #[test]
    fn invalid_matchings_are_counted_as_failures() {
        let inputs = generate(5);
        let oracle = Oracle::new(&inputs);
        let i = (0..MATRICES)
            .find(|&i| inputs.reqs[i].row_mask(0) != ConnectionMatrix::alpha_21364().row_mask(0))
            .expect("a matrix leaves a cell of row 0 unrequested");
        let unrequested = (0..NUM_OUTPUT_PORTS)
            .find(|&c| !inputs.reqs[i].requested(0, c))
            .expect("an unrequested cell");
        let mut bad = Matching::empty(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS);
        bad.grant(0, unrequested);
        let mut checks = Checks::default();
        check_matching(&mut checks, Kernel::Wfa, i, &bad, &inputs, &oracle);
        check_matching(
            &mut checks,
            Kernel::Wfa,
            i,
            &Matching::empty(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS),
            &inputs,
            &oracle,
        );
        assert_eq!((checks.attempted, checks.failed), (2, 1));
    }

    #[test]
    fn every_kernel_passes_the_oracle_bound() {
        let inputs = generate(9);
        let oracle = Oracle::new(&inputs);
        let mut checks = Checks::default();
        let (_, round) = first_round(99, &inputs, &oracle, &mut checks, &mut Kernels::new(9));
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        assert_eq!(round.len(), KERNELS.len());
    }
}
