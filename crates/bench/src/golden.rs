//! Paper-anchored regression gates: tolerance bands for the sweep metrics.
//!
//! Every band names one metric emitted by [`crate::sweep`] (as a
//! `figid/metric` path), an inclusive `[lo, hi]` interval, and the paper
//! number it anchors to. The bands are **regression gates**, not accuracy
//! claims: the simulator runs at bench scale (unit counts / 4, shrunk data
//! sets — see `platforms::SCALE`), so absolute values differ from the
//! paper; what must hold is that each reproduced *trend* — which system
//! wins, by roughly how much, in which direction a knob moves the result —
//! stays where it was when the band was calibrated. CI fails when a change
//! silently drifts a figure out of its band.
//!
//! Bands only cover metrics that are mode-stable (identical in `--fast` and
//! full sweeps); a band whose metric was not emitted in a given run is
//! reported as skipped, not failed.

use crate::sweep::Metric;

/// An inclusive tolerance band for one metric.
#[derive(Debug, Clone, Copy)]
pub struct Band {
    /// Full metric path, e.g. `"fig10c/speedup/HISTO4096/M2NDP"`.
    pub metric: &'static str,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
    /// The paper number this band anchors to (for the failure message).
    pub paper: &'static str,
}

/// The gate: every banded metric with its calibrated interval.
///
/// Calibrated 2026-07 against the seed reproduction at bench scale; the
/// margins (~±25% around the observed value, wider where the queueing model
/// is noisier) leave room for benign timing-model refinements while
/// catching sign errors, broken mechanisms, and order-of-magnitude drift.
pub fn bands() -> &'static [Band] {
    &BANDS
}

const BANDS: [Band; 42] = [
    // --- Fig. 10c: NDP speedup over the GPU baseline (paper: avg 6.35x,
    // up to 9.71x; M2NDP must win on the bandwidth-bound workloads).
    // Bench-scale observed: HISTO4096 12.4x, SPMV 1.71x, PGRANK 1.84x,
    // DLRM-B32 1.54x, fast-subset geomean 2.78x.
    Band {
        metric: "fig10c/speedup/HISTO4096/M2NDP",
        lo: 8.0,
        hi: 17.0,
        paper: "Fig. 10c: HISTO 9.71x (largest M2NDP win)",
    },
    Band {
        metric: "fig10c/speedup/SPMV/M2NDP",
        lo: 1.2,
        hi: 2.6,
        paper: "Fig. 10c: SPMV ~3x",
    },
    Band {
        metric: "fig10c/speedup/PGRANK/M2NDP",
        lo: 1.3,
        hi: 2.8,
        paper: "Fig. 10c: PGRANK ~7x (bench-scale graph is smaller)",
    },
    Band {
        metric: "fig10c/speedup/DLRM(SLS)-B32/M2NDP",
        lo: 1.1,
        hi: 2.3,
        paper: "Fig. 10c: DLRM(SLS) 5-8x (bench-scale table is smaller)",
    },
    Band {
        metric: "fig10c/geomean_speedup_fast4/M2NDP",
        lo: 2.0,
        hi: 4.2,
        paper: "Fig. 10c: 6.35x average over all ten workloads",
    },
    Band {
        metric: "fig10c/nsu_speedup/HISTO4096",
        lo: 1.5,
        hi: 4.5,
        paper: "Fig. 10c: NSU 0.97x at full scale; the bench-scale link \
                model sits near 2.8x — gate pins the reproduced value",
    },
    // --- Fig. 10a: OLAP Evaluate (paper: avg 73.4x at 32 units; the
    // bench-scale 8-unit device lands near 17x, ~73x when rescaled x4).
    Band {
        metric: "fig10a/speedup/TPC-H Q6",
        lo: 10.0,
        hi: 30.0,
        paper: "Fig. 10a: ~73x at full scale, /4 at bench scale",
    },
    Band {
        metric: "fig10a/ideal_fraction/TPC-H Q6",
        lo: 0.35,
        hi: 1.05,
        paper: "Fig. 10a: M2NDP within 10.3% of Ideal NDP at full scale",
    },
    // --- Fig. 10b: KVStore P95 improvement over the host baseline
    // (paper: DR 0.58, RB 0.29, M2func 1.39 — only M2func improves).
    // Observed on the one-device serving cells: M2func 1.75, DR 0.28,
    // RB 0.24.
    Band {
        metric: "fig10b/improvement/KVS_A/M2func",
        lo: 1.2,
        hi: 2.6,
        paper: "Fig. 10b: M2func 1.39x (must improve on the baseline)",
    },
    Band {
        metric: "fig10b/improvement/KVS_A/CXL.io_DR",
        lo: 0.15,
        hi: 0.75,
        paper: "Fig. 10b: CXL.io direct 0.58x (degrades P95)",
    },
    Band {
        metric: "fig10b/improvement/KVS_A/CXL.io_RB",
        lo: 0.1,
        hi: 0.6,
        paper: "Fig. 10b: CXL.io ring buffer 0.29x (worst)",
    },
    Band {
        metric: "fig10b/improvement/KVS_B/M2func",
        lo: 1.2,
        hi: 2.6,
        paper: "Fig. 10b: M2func 1.39x",
    },
    // --- Fig. 11b: CXL.io granted CXL.mem's 600 ns latency, one-device
    // KVS serving. Observed: M2func cuts the light-load (2e5/s) P95 by
    // 63% vs the ring buffer (1052 vs 2852 ns) and sustains 107x direct
    // MMIO's throughput at the saturating 1e8/s.
    Band {
        metric: "fig11b/p95_gain/M2func_vs_RB",
        lo: 0.47,
        hi: 0.79,
        paper: "Fig. 11b: M2func up to 63% lower latency than CXL.io at \
                equal link latency",
    },
    Band {
        metric: "fig11b/sat_throughput_ratio/M2func_vs_DR",
        lo: 80.0,
        hi: 133.0,
        paper: "Figs. 11a/11b: M2func sustains 47.3x direct-MMIO \
                throughput; >= 10x required",
    },
    // --- Fig. 11c: multi-tenant serving on *real* device simulators
    // (event-driven runtime, one kernel launch per request). Observed at
    // the saturating 1e8/s offered rate: M2func sustains 175x direct-MMIO
    // throughput on one device (48 concurrent kernels vs the single
    // serialized register) and 29x on the 8-device fleet (direct MMIO
    // gains slots with devices, M2func is already unsaturated). The
    // acceptance floor is 10x.
    Band {
        metric: "fig11c/sat_throughput_ratio/M2func_vs_DR/1dev",
        lo: 80.0,
        hi: 350.0,
        paper: "Fig. 11a: M2func sustains 47.3x direct-MMIO throughput; \
                >= 10x required on the real device sims",
    },
    Band {
        metric: "fig11c/sat_throughput_ratio/M2func_vs_DR/8dev",
        lo: 12.0,
        hi: 60.0,
        paper: "Fig. 11a trend at 8 devices: direct MMIO gains slots with \
                devices but must stay >= 10x behind M2func",
    },
    // Observed at the light 2e5/s rate: RB P95 7.0x M2func's (4491 ns vs
    // 641 ns — the 4 us launch overhead dominates the 0.3 us kernels).
    Band {
        metric: "fig11c/p95_ratio/RB_vs_M2func/1dev",
        lo: 4.0,
        hi: 12.0,
        paper: "Figs. 10b/11a: ring-buffer overhead (z+8y) dwarfs M2func \
                (z+2x) on fine-grained kernels",
    },
    // Observed: 0.886 — the fleet-of-1 P95 exceeds the standalone device's
    // by exactly the switch's per-launch delivery skew (~80 ns on a
    // ~640 ns P95); no other divergence is allowed.
    Band {
        metric: "fig11c/parity/single_vs_fleet1",
        lo: 0.82,
        hi: 0.95,
        paper: "serving a 1-device fleet must match the standalone device \
                up to the switch hop",
    },
    // --- Fig. 12a: ablations, runtime normalized to full M2NDP.
    // Observed on HISTO4096: w/o M2func 1.11, w/o fine-grained 6.14
    // (coarse batches serialize the many-bin histogram far harder at
    // bench scale than the paper's 1.51), w/o addr opt 1.04.
    Band {
        metric: "fig12a/norm_runtime/HISTO4096/wo_m2func",
        lo: 1.03,
        hi: 1.4,
        paper: "Fig. 12a: w/o M2func up to 2.41 (launch overhead costs)",
    },
    Band {
        metric: "fig12a/norm_runtime/HISTO4096/wo_finegrained",
        lo: 3.0,
        hi: 10.0,
        paper: "Fig. 12a: w/o fine-grained threading up to 1.51 at full \
                scale; amplified at bench scale",
    },
    Band {
        metric: "fig12a/norm_runtime/HISTO4096/wo_addropt",
        lo: 0.95,
        hi: 1.3,
        paper: "Fig. 12a: w/o address optimization up to 1.20",
    },
    // --- Fig. 12b: multi-device scaling at 8 devices (paper: 7.84x DLRM,
    // 6.45x OPT-2.7B). Observed: DLRM 7.75x; OPT-2.7B 2.09x (the shrunk
    // decode step is combine-dominated at bench scale).
    Band {
        metric: "fig12b/speedup/DLRM(SLS)-B256/8dev",
        lo: 6.0,
        hi: 8.2,
        paper: "Fig. 12b: DLRM 7.84x at 8 devices (near-linear)",
    },
    Band {
        metric: "fig12b/speedup/OPT-2.7B(Gen)/8dev",
        lo: 1.4,
        hi: 3.5,
        paper: "Fig. 12b: OPT-2.7B 6.45x at full scale; combine-dominated \
                at bench scale",
    },
    // --- Fig. 13a: sensitivity. Directions must match the paper: 1 GHz
    // below default, higher LtU above default. Observed on HISTO4096:
    // default 12.4, 1 GHz 6.2, 4xLtU 18.2.
    Band {
        metric: "fig13a/speedup/HISTO4096/default",
        lo: 8.0,
        hi: 17.0,
        paper: "Fig. 13a default column == Fig. 10c HISTO",
    },
    Band {
        metric: "fig13a/speedup/HISTO4096/1ghz",
        lo: 4.0,
        hi: 9.0,
        paper: "Fig. 13a: 1 GHz cuts the speedup (paper: -10%)",
    },
    Band {
        metric: "fig13a/speedup/HISTO4096/ltu4x",
        lo: 13.0,
        hi: 27.0,
        paper: "Fig. 13a: higher LtU grows the speedup (to 19.4x)",
    },
    // --- Fig. 13b: clean/dirty normalized runtime falls as the dirty
    // fraction grows (back-invalidation tax). Observed on HISTO4096:
    // 1.10 / 1.00 / 0.68; SPMV at 80%: 0.51.
    Band {
        metric: "fig13b/norm_runtime/HISTO4096/dirty20",
        lo: 0.85,
        hi: 1.3,
        paper: "Fig. 13b: 0.969 at 20% dirty (BI mostly hidden)",
    },
    Band {
        metric: "fig13b/norm_runtime/HISTO4096/dirty40",
        lo: 0.75,
        hi: 1.2,
        paper: "Fig. 13b: 0.872 at 40% dirty",
    },
    Band {
        metric: "fig13b/norm_runtime/HISTO4096/dirty80",
        lo: 0.5,
        hi: 0.9,
        paper: "Fig. 13b: 0.735 at 80% dirty",
    },
    Band {
        metric: "fig13b/norm_runtime/SPMV/dirty80",
        lo: 0.35,
        hi: 0.75,
        paper: "Fig. 13b: 0.735 at 80% dirty",
    },
    // --- Fig. 14a: the *simulated* fleet (real devices behind the switch).
    // The parity bands are the acceptance gate: a 1-device fleet and a
    // standalone device run the same shard, so they may differ only by the
    // offload-routing skew — strictly within 1%. Observed: DLRM 0.9991,
    // OPT 0.9951.
    Band {
        metric: "fig14a/parity/DLRM(SLS)-B256",
        lo: 0.99,
        hi: 1.01,
        paper: "fleet-of-1 must match the single-device path within 1%",
    },
    Band {
        metric: "fig14a/parity/OPT-TP(Gen)",
        lo: 0.99,
        hi: 1.01,
        paper: "fleet-of-1 must match the single-device path within 1%",
    },
    // Observed: DLRM 8.69x (sharded Zipf tables also get cache-friendlier,
    // hence slightly super-linear), OPT 2.08x (QKV/output projections are
    // replicated and the all-reduce crosses the switch, so the shrunk
    // decode step is combine-dominated at bench scale, as in fig12b).
    Band {
        metric: "fig14a/speedup/DLRM(SLS)-B256/8dev",
        lo: 6.5,
        hi: 9.8,
        paper: "Fig. 12b/§III-I: DLRM 7.84x at 8 devices (near-linear)",
    },
    Band {
        metric: "fig14a/speedup/OPT-TP(Gen)/8dev",
        lo: 1.4,
        hi: 3.2,
        paper: "Fig. 12b/§III-I: OPT 6.45x at full scale; combine-dominated \
                at bench scale",
    },
    // --- Fig. 14b: NDP-in-switch over passive memories. Observed: 1.95x
    // at 2 ports (near-linear while port-bound), 2.40x at 8 (the
    // bench-scale in-switch complex saturates near 2.4 ports; the paper's
    // full-scale complex saturates near 6.4).
    Band {
        metric: "fig14b/speedup/swndp/2mem",
        lo: 1.5,
        hi: 2.4,
        paper: "Fig. 14b: ~2x at 2 memories while port-bandwidth-bound",
    },
    Band {
        metric: "fig14b/speedup/swndp/8mem",
        lo: 1.8,
        hi: 3.4,
        paper: "Fig. 14b: 6.39-7.38x at 8 memories at full scale; \
                saturates at the NDP complex's internal throughput",
    },
    Band {
        metric: "fig14b/speedup/perdev/8dev",
        lo: 6.5,
        hi: 9.8,
        paper: "Fig. 14b companion: 8 full devices stay near-linear on \
                the same total workload",
    },
    // --- Fig. 15: elastic serving. The acceptance claim is the pair
    // (autoscale meets the P95 SLO) AND (autoscale spends fewer
    // device-hours than the static max-size fleet), with the static
    // min-size fleet violating the SLO as the counterfactual. Observed:
    // autoscale P95/SLO 0.33, static2 1.33, static8 0.13, device-time
    // ratio 0.29, 2 scale-ups.
    Band {
        metric: "fig15/p95_slo_ratio/autoscale",
        lo: 0.1,
        hi: 1.0,
        paper: "§V/Fig. 11 SLO regime: the autoscaled fleet must keep P95 \
                at or under the 5 us serving SLO",
    },
    Band {
        metric: "fig15/p95_slo_ratio/static_min",
        lo: 1.05,
        hi: 10.0,
        paper: "the 2-device static fleet is under-provisioned for the \
                offered load and must violate the SLO",
    },
    Band {
        metric: "fig15/p95_slo_ratio/static_max",
        lo: 0.05,
        hi: 0.4,
        paper: "the 8-device static fleet is over-provisioned and sits \
                far under the SLO (what the autoscaler competes against)",
    },
    Band {
        metric: "fig15/device_time_ratio/autoscale_vs_static_max",
        lo: 0.15,
        hi: 0.6,
        paper: "autoscaling must meet the SLO with fewer device-hours \
                than the static 8-device fleet (< 1 by a clear margin)",
    },
    Band {
        metric: "fig15/scale_ups/autoscale",
        lo: 1.0,
        hi: 6.0,
        paper: "the autoscaler must actually grow the fleet from its \
                2-device floor to serve the bursty phase",
    },
];

/// One band's verdict in a check run.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Metric present and inside `[lo, hi]`.
    Pass {
        /// The emitted value.
        value: f64,
    },
    /// Metric present but outside the band.
    Fail {
        /// The emitted value.
        value: f64,
    },
    /// Metric not emitted by this run (e.g. the figure wasn't selected).
    Skipped,
}

/// The outcome of checking one band.
#[derive(Debug, Clone)]
pub struct Checked {
    /// The band that was evaluated.
    pub band: Band,
    /// What happened.
    pub verdict: Verdict,
}

/// The full report of a `--check` run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// One entry per band, in band order.
    pub checked: Vec<Checked>,
}

impl Report {
    /// Bands that failed.
    pub fn failures(&self) -> Vec<&Checked> {
        self.checked
            .iter()
            .filter(|c| matches!(c.verdict, Verdict::Fail { .. }))
            .collect()
    }

    /// Number of bands actually evaluated (present metrics).
    pub fn evaluated(&self) -> usize {
        self.checked
            .iter()
            .filter(|c| !matches!(c.verdict, Verdict::Skipped))
            .count()
    }

    /// True when at least one band was evaluated and none failed.
    pub fn passed(&self) -> bool {
        self.evaluated() > 0 && self.failures().is_empty()
    }
}

/// Checks flattened sweep metrics (`figid/metric` paths, from
/// [`crate::sweep::consolidated_metrics`]) against every band. Bounds are
/// inclusive: a value exactly on `lo` or `hi` passes. Non-finite values
/// fail.
pub fn check(metrics: &[Metric]) -> Report {
    check_against(metrics, bands())
}

/// [`check`] against an explicit band set (exposed for tests).
pub fn check_against(metrics: &[Metric], bands: &[Band]) -> Report {
    let mut report = Report::default();
    for &band in bands {
        let value = metrics
            .iter()
            .find(|(name, _)| name == band.metric)
            .map(|(_, v)| *v);
        let verdict = match value {
            None => Verdict::Skipped,
            Some(v) if v.is_finite() && v >= band.lo && v <= band.hi => Verdict::Pass { value: v },
            Some(v) => Verdict::Fail { value: v },
        };
        report.checked.push(Checked { band, verdict });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const BAND: Band = Band {
        metric: "fig/m",
        lo: 1.0,
        hi: 2.0,
        paper: "test",
    };

    fn one(value: f64) -> Report {
        check_against(&[("fig/m".to_string(), value)], &[BAND])
    }

    #[test]
    fn inclusive_edges_pass() {
        assert!(one(1.0).passed(), "value == lo must pass");
        assert!(one(2.0).passed(), "value == hi must pass");
        assert!(one(1.5).passed());
    }

    #[test]
    fn out_of_band_fails() {
        assert!(!one(0.999_999).passed());
        assert!(!one(2.000_001).passed());
        assert_eq!(one(0.5).failures().len(), 1);
    }

    #[test]
    fn non_finite_fails() {
        assert!(!one(f64::NAN).passed());
        assert!(!one(f64::INFINITY).passed());
    }

    #[test]
    fn missing_metric_skips_and_all_skipped_does_not_pass() {
        let r = check_against(&[("other".to_string(), 1.5)], &[BAND]);
        assert_eq!(r.evaluated(), 0);
        assert!(r.failures().is_empty());
        assert!(!r.passed(), "a run that evaluated nothing must not pass");
    }

    #[test]
    fn band_metrics_are_unique() {
        let mut names: Vec<&str> = bands().iter().map(|b| b.metric).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn bands_are_well_formed() {
        for b in bands() {
            assert!(b.lo <= b.hi, "{}", b.metric);
            assert!(b.lo.is_finite() && b.hi.is_finite(), "{}", b.metric);
            assert!(
                b.metric.contains('/'),
                "{}: must be a figid/metric path",
                b.metric
            );
        }
    }
}
