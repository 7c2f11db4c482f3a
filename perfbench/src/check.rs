//! Output checks: report digests, the stored reference and the failure
//! count.

use network::NetworkReport;
use simcore::stats::{Histogram, OnlineStats};

/// The stored reference digests, one `workload seed digest` line each.
const REFERENCE: &str = include_str!("../reference.txt");

/// Seeds whose digests `reference.txt` stores; other seeds are held out
/// and get only the checks that need no reference.
pub const REFERENCE_SEEDS: std::ops::Range<u64> = 0..16;

/// FNV-1a over the little-endian bytes of every word fed in.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds the exact bit pattern of `x`.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn stats(&mut self, s: &OnlineStats) {
        self.u64(s.count());
        self.f64(s.mean());
        self.f64(s.variance());
        self.f64(s.sum());
        self.f64(s.min().unwrap_or(f64::NAN));
        self.f64(s.max().unwrap_or(f64::NAN));
    }

    pub fn hist(&mut self, h: &Histogram) {
        self.f64(h.lo());
        self.f64(h.hi());
        self.u64(h.bins().len() as u64);
        for &b in h.bins() {
            self.u64(b);
        }
        self.u64(h.underflow());
        self.u64(h.overflow());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of every field of `r`, floats by bit pattern and histograms bin
/// by bin. The destructuring names every field, so a field added to
/// `NetworkReport` fails to compile here until the digest covers it.
pub fn report_digest(r: &NetworkReport) -> u64 {
    let NetworkReport {
        delivered_packets,
        delivered_flits,
        latency,
        latency_hist,
        total_latency,
        flits_per_router_ns,
        injected_packets,
        injected_flits,
        in_flight_packets,
        nominations,
        grants,
        collisions,
        escape_dispatches,
        drain_engagements,
        matched_weight,
        mwm_weight,
        completed_txns,
        txn_latency,
        txn_latency_hist,
        flits_corrupted,
        retransmissions,
        retry_exhaustions,
        links_dead,
        unreachable_drops,
        retransmit_latency_hist,
    } = r;
    let mut d = Digest::default();
    for x in [
        delivered_packets,
        delivered_flits,
        injected_packets,
        injected_flits,
        in_flight_packets,
        nominations,
        grants,
        collisions,
        escape_dispatches,
        drain_engagements,
        matched_weight,
        mwm_weight,
        completed_txns,
        flits_corrupted,
        retransmissions,
        retry_exhaustions,
        links_dead,
        unreachable_drops,
    ] {
        d.u64(*x);
    }
    d.f64(*flits_per_router_ns);
    d.stats(latency);
    d.stats(total_latency);
    d.stats(txn_latency);
    d.hist(latency_hist);
    d.hist(txn_latency_hist);
    d.hist(retransmit_latency_hist);
    d.finish()
}

/// The stored digest of `workload` at `seed`, if the reference holds one.
pub fn reference(workload: &str, seed: u64) -> Option<u64> {
    REFERENCE.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        if line.starts_with('#') || f.next()? != workload || f.next()?.parse::<u64>().ok()? != seed
        {
            return None;
        }
        u64::from_str_radix(f.next()?, 16).ok()
    })
}

/// Counts checked operations and the ones that failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, described.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one operation; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.fail_unless(ok, what);
    }

    /// Marks the last counted operation failed unless `ok` (a second check
    /// on an operation already counted).
    pub fn fail_unless(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }
}

/// Checks one network report: its digest against the run's first report
/// and the stored reference (when the seed has one), and the histogram
/// count against the delivered packets. Counts one operation.
pub fn check_report(
    checks: &mut Checks,
    what: &str,
    report: &NetworkReport,
    expected: Option<u64>,
    reference: Option<u64>,
) -> u64 {
    let digest = report_digest(report);
    let ok = expected.is_none_or(|e| e == digest)
        && reference.is_none_or(|e| e == digest)
        && report.latency_hist.count() == report.delivered_packets;
    checks.op(ok, || {
        format!(
            "{what}: digest {digest:016x}, expected {:?}, reference {:?}, hist count {} vs delivered {}",
            expected.map(|e| format!("{e:016x}")),
            reference.map(|e| format!("{e:016x}")),
            report.latency_hist.count(),
            report.delivered_packets
        )
    });
    digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use network::{NetworkConfig, Torus};
    use router::{ArbAlgorithm, RouterConfig};
    use workload::{TrafficPattern, WorkloadConfig};

    fn small_report() -> NetworkReport {
        let cfg = NetworkConfig {
            topology: Torus::net_4x4().into(),
            router: RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary),
            seed: 7,
            warmup_cycles: 100,
            measure_cycles: 400,
            fault: Default::default(),
        };
        let wl = WorkloadConfig::open_loop(TrafficPattern::Uniform, 0.02);
        workload::run_coherence_sim(cfg, wl).0
    }

    #[test]
    fn a_perturbed_report_is_counted_as_a_failure() {
        let report = small_report();
        let digest = report_digest(&report);
        let mut checks = Checks::default();
        check_report(&mut checks, "same", &report, Some(digest), Some(digest));
        assert_eq!((checks.attempted, checks.failed), (1, 0));

        let mut perturbed = report.clone();
        perturbed.flits_per_router_ns = f64::from_bits(report.flits_per_router_ns.to_bits() + 1);
        check_report(&mut checks, "one ulp", &perturbed, Some(digest), None);
        let mut perturbed = report.clone();
        perturbed.txn_latency_hist.record(1.0);
        check_report(&mut checks, "histogram", &perturbed, None, Some(digest));
        assert_eq!((checks.attempted, checks.failed), (3, 2));
        assert_eq!(checks.notes.len(), 2);
    }

    #[test]
    fn histogram_count_must_match_deliveries() {
        let mut report = small_report();
        report.delivered_packets += 1;
        let mut checks = Checks::default();
        check_report(&mut checks, "count", &report, None, None);
        assert_eq!(checks.failed, 1);
    }

    #[test]
    fn reference_lines_parse() {
        for line in REFERENCE.lines().filter(|l| !l.starts_with('#')) {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 3, "bad reference line {line:?}");
            let seed: u64 = f[1].parse().expect("seed");
            assert_eq!(reference(f[0], seed), u64::from_str_radix(f[2], 16).ok());
        }
        assert_eq!(reference("no_such_workload", 0), None);
    }
}
