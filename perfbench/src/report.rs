//! Turning phases into named metrics, and printing them.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::replay::Replays;
use crate::spans::SpanAcc;
use crate::Phase;

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// The unit.
    pub unit: &'static str,
    /// How the value was taken (percentile and sample count, or "n/a").
    pub note: String,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("payload_mib_per_s", "MiB/s"),
    ("modeled_s_per_wall_s", "s/s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("system.read.us_p50", "us"),
    ("system.read.us_tail", "us"),
    ("system.write.us_p50", "us"),
    ("system.write.us_tail", "us"),
    ("system.populate.mib_per_s", "MiB/s"),
    ("system.read.mib_per_s", "MiB/s"),
    ("system.modeled_ms", "ms"),
    ("system.commands", "count"),
    ("tenants.run_s", "s"),
    ("tenants.self_share", "share"),
    ("tenants.device.us_p50", "us"),
    ("tenants.device.us_tail", "us"),
    ("tenants.makespan_ms", "ms"),
    ("tenants.jain_milli", "milli"),
    ("cluster.read.us_p50", "us"),
    ("cluster.read.us_tail", "us"),
    ("cluster.write.us_p50", "us"),
    ("cluster.write.us_tail", "us"),
    ("cluster.self_share", "share"),
    ("cluster.fanout", "ratio"),
    ("cluster.failover_ms", "ms"),
    ("cluster.resync_ms", "ms"),
    ("cluster.rereplicated_bytes", "bytes"),
    ("cluster.resynced_bytes", "bytes"),
    ("cluster.degraded_reads", "count"),
    ("cluster.rereplications", "count"),
    ("cluster.resyncs", "count"),
    ("core.plan.us_p50", "us"),
    ("core.plan_cached.ns_p50", "ns"),
    ("core.stl_read_into.us_p50", "us"),
    ("core.stl_write.us_p50", "us"),
    ("core.plan_cache.hit_ratio", "ratio"),
    ("flash.program.ns_per_page", "ns"),
    ("flash.peek.ns_per_page", "ns"),
    ("flash.schedule_reads.ns_per_page", "ns"),
    ("flash.schedule_programs.ns_per_page", "ns"),
    ("flash.pages_programmed", "count"),
    ("flash.blocks_erased", "count"),
    ("backend.gc_runs", "count"),
    ("backend.gc_relocated_per_programmed", "ratio"),
    ("interconnect.transfer.ns_per_call", "ns"),
    ("interconnect.wfq.ns_per_op", "ns"),
    ("link.commands", "count"),
    ("link.bytes", "bytes"),
    ("nvme.wire_bytes", "bytes"),
    ("obs.full_report_ms", "ms"),
    ("obs.report_json_ms", "ms"),
    ("obs.metrics_json_ms", "ms"),
    ("obs.report_mib", "MiB"),
    ("obs.metrics_mib", "MiB"),
    ("workloads.run_s", "s"),
    ("workloads.self_share", "share"),
    ("bench.trace_overhead_share", "share"),
    ("bench.verify_s", "s"),
];

/// The median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..1) of sorted `s`.
fn percentile(s: &[u64], p: f64) -> u64 {
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The median and the tail of `samples`: the highest of p90, p99, p99.9
/// and p99.99 with at least ten samples beyond it (p50 when even p90 has
/// fewer). Returns `(p50, tail, note)` with the tail's percentile and the
/// sample count in the note, or `None` without samples.
pub fn p50_tail(samples: &[u64]) -> Option<(u64, u64, String)> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let n = s.len();
    let (label, p) = [
        ("p99.99", 0.9999),
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p90", 0.9),
    ]
    .into_iter()
    .find(|&(_, p)| (n as f64 * (1.0 - p)).floor() >= 10.0)
    .unwrap_or(("p50", 0.5));
    let beyond = n - ((p * n as f64).ceil() as usize).clamp(1, n);
    Some((
        percentile(&s, 0.5),
        percentile(&s, p),
        format!("{label} of {n} samples, {beyond} beyond"),
    ))
}

/// Collects metrics by name, noting layers a workload does not exercise.
#[derive(Debug, Default)]
pub struct Sheet {
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Sheet {
    /// Sets `name`.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.values.insert(name, (value, note.into()));
    }

    /// The metrics of `table`, in order; a name never set reads 0 with
    /// the note "n/a: layer not exercised by this workload".
    pub fn finish(&self, table: &[(&'static str, &'static str)]) -> Vec<Metric> {
        table
            .iter()
            .map(|&(name, unit)| {
                let (value, note) = self.values.get(name).cloned().unwrap_or_else(|| {
                    (0.0, "n/a: layer not exercised by this workload".to_owned())
                });
                Metric {
                    name,
                    value,
                    unit,
                    note,
                }
            })
            .collect()
    }
}

/// The smallest and largest of `v`.
fn range(v: &[f64]) -> (f64, f64) {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    (lo, v.iter().copied().fold(lo, f64::max))
}

/// `f(first pass)` per second of the best-case pass time, with a note
/// giving the pass count and the range of the plain per-pass rates.
pub fn rate(phase: &Phase, f: impl Fn(&crate::Pass) -> f64) -> (f64, String) {
    let v: Vec<f64> = phase
        .passes
        .iter()
        .map(|p| f(p) / p.measured.as_secs_f64().max(1e-9))
        .collect();
    let (lo, hi) = range(&v);
    let best = phase.best_pass_time().as_secs_f64().max(1e-9);
    let value = phase.passes.first().map_or(0.0, |p| f(p) / best);
    let note = format!(
        "best-case pass over {} passes; per-pass rates {lo:.4}..{hi:.4}",
        v.len()
    );
    (value, note)
}

/// The end-to-end metrics of an untraced phase.
pub fn end_to_end(phase: &Phase) -> Vec<Metric> {
    let mut sheet = Sheet::default();
    let setup: Vec<f64> = phase
        .passes
        .iter()
        .map(|p| p.setup.iter().sum::<Duration>().as_secs_f64())
        .collect();
    let (lo, hi) = range(&setup);
    let n = format!(
        "best-case set-up of {} passes, the first a warm-up; per-pass median {:.4}, range {lo:.4}..{hi:.4}",
        setup.len(),
        median(&setup)
    );
    sheet.set("setup_s", phase.best_setup_time().as_secs_f64(), n);
    let (v, n) = rate(phase, |p| p.ops as f64);
    sheet.set("ops_per_s", v, n);
    let (v, n) = rate(phase, |p| p.bytes as f64 / (1 << 20) as f64);
    sheet.set("payload_mib_per_s", v, n);
    let (v, n) = rate(phase, |p| p.modeled_ns as f64 / 1e9);
    sheet.set("modeled_s_per_wall_s", v, n);
    sheet.set(
        "peak_rss_mib",
        crate::peak_rss_mib().unwrap_or(0.0),
        "VmHWM",
    );
    sheet.finish(&END_TO_END)
}

fn span_p50_tail(sheet: &mut Sheet, prefix: [&'static str; 2], samples: &[u64], scale: f64) {
    if let Some((p50, tail, note)) = p50_tail(samples) {
        sheet.set(
            prefix[0],
            p50 as f64 / scale,
            format!("p50 of {} samples", samples.len()),
        );
        sheet.set(prefix[1], tail as f64 / scale, note);
    }
}

fn self_share(spans: &BTreeMap<&'static str, SpanAcc>, names: &[&str], measured_ns: f64) -> f64 {
    let own: u64 = names
        .iter()
        .filter_map(|n| spans.get(n))
        .map(|a| a.self_ns)
        .sum();
    own as f64 / measured_ns.max(1.0)
}

/// The per-layer metrics of `workload` from its untraced phase (exact
/// counts, reference rate), its traced phase (spans and per-pass
/// samples) and the layer replays.
pub fn per_layer(
    workload: &str,
    untraced: &Phase,
    traced: &Phase,
    replays: &Replays,
) -> Vec<Metric> {
    let mut sheet = Sheet::default();
    let exact = &untraced.exact;
    let get = |name: &str| exact.get(name).copied().unwrap_or(0.0);
    let spans = &traced.spans;
    let samples = |name: &str| spans.get(name).map(|a| a.samples.as_slice()).unwrap_or(&[]);
    let measured_ns = traced.measured().as_nanos() as f64;
    let mib = (1u64 << 20) as f64;
    let med = |name: &str| traced.samples.get(name).map(|v| median(v));

    span_p50_tail(
        &mut sheet,
        ["system.read.us_p50", "system.read.us_tail"],
        samples("system.read"),
        1e3,
    );
    span_p50_tail(
        &mut sheet,
        ["system.write.us_p50", "system.write.us_tail"],
        samples("system.write"),
        1e3,
    );
    if let Some(v) = med("system.populate.mib_per_s") {
        sheet.set("system.populate.mib_per_s", v, "median over populations");
    } else if let Some(w) = spans.get("system.write") {
        let v = w.bytes as f64 / mib / (w.total_ns as f64 / 1e9);
        sheet.set(
            "system.populate.mib_per_s",
            v,
            "all writes populate inside Workload::run",
        );
    }
    if let Some(r) = spans.get("system.read") {
        let v = r.bytes as f64 / mib / (r.total_ns as f64 / 1e9).max(1e-9);
        sheet.set("system.read.mib_per_s", v, "bytes over summed read spans");
    }
    sheet.set(
        "system.modeled_ms",
        get("system.modeled_ms"),
        "exact, one pass",
    );
    sheet.set("system.commands", get("system.commands"), "exact, one pass");

    if workload == "tenant_mix" {
        sheet.set(
            "tenants.run_s",
            med("tenants.run_s").unwrap_or(0.0),
            "median per pass",
        );
        let share = self_share(spans, &["tenants.run"], measured_ns);
        sheet.set(
            "tenants.self_share",
            share,
            "engine self time over measured time",
        );
        let mut device: Vec<u64> = samples("system.read").to_vec();
        device.extend_from_slice(samples("system.write"));
        span_p50_tail(
            &mut sheet,
            ["tenants.device.us_p50", "tenants.device.us_tail"],
            &device,
            1e3,
        );
        sheet.set(
            "tenants.makespan_ms",
            get("tenants.makespan_ms"),
            "exact, modeled",
        );
        sheet.set("tenants.jain_milli", get("tenants.jain_milli"), "exact");
    }

    if workload == "cluster_churn" {
        span_p50_tail(
            &mut sheet,
            ["cluster.read.us_p50", "cluster.read.us_tail"],
            samples("cluster.read"),
            1e3,
        );
        span_p50_tail(
            &mut sheet,
            ["cluster.write.us_p50", "cluster.write.us_tail"],
            samples("cluster.write"),
            1e3,
        );
        let share = self_share(spans, &["cluster.read", "cluster.write"], measured_ns);
        sheet.set(
            "cluster.self_share",
            share,
            "cluster self time over measured time",
        );
        let writes = samples("cluster.write").len().max(1) as f64;
        let fanout = samples("system.write").len() as f64 / writes;
        sheet.set("cluster.fanout", fanout, "device writes per cluster write");
        for name in ["cluster.failover_ms", "cluster.resync_ms"] {
            sheet.set(
                name,
                med(name).unwrap_or(0.0),
                "median per pass, the op that applied the fault",
            );
        }
        for name in [
            "cluster.rereplicated_bytes",
            "cluster.resynced_bytes",
            "cluster.degraded_reads",
            "cluster.rereplications",
            "cluster.resyncs",
        ] {
            sheet.set(name, get(name), "exact, one pass");
        }
        for name in [
            "obs.full_report_ms",
            "obs.report_json_ms",
            "obs.metrics_json_ms",
        ] {
            sheet.set(name, med(name).unwrap_or(0.0), "median per pass");
        }
        sheet.set("obs.report_mib", get("obs.report_mib"), "exact");
        sheet.set("obs.metrics_mib", get("obs.metrics_mib"), "exact");
    }

    if workload == "app_pipeline" {
        sheet.set(
            "workloads.run_s",
            med("workloads.run_s").unwrap_or(0.0),
            "median per pass",
        );
        let share = self_share(spans, &["workloads.run"], measured_ns);
        sheet.set(
            "workloads.self_share",
            share,
            "Workload::run self time over measured time",
        );
    }

    let calls = |name: &str| replays.calls.get(name).map(Vec::as_slice).unwrap_or(&[]);
    for (name, call, scale) in [
        ("core.plan.us_p50", "core.plan", 1e3),
        ("core.plan_cached.ns_p50", "core.plan_cached", 1.0),
        ("core.stl_read_into.us_p50", "core.stl_read_into", 1e3),
        ("core.stl_write.us_p50", "core.stl_write", 1e3),
    ] {
        if let Some((p50, _, _)) = p50_tail(calls(call)) {
            sheet.set(
                name,
                p50 as f64 / scale,
                format!("replay, p50 of {} calls", calls(call).len()),
            );
        }
    }
    let (hits, misses) = (get("stl.plan_cache.hits"), get("stl.plan_cache.misses"));
    if hits + misses > 0.0 {
        sheet.set(
            "core.plan_cache.hit_ratio",
            hits / (hits + misses),
            "exact, one pass",
        );
    }
    for (name, rate) in [
        ("flash.program.ns_per_page", "flash.program"),
        ("flash.peek.ns_per_page", "flash.peek"),
        ("flash.schedule_reads.ns_per_page", "flash.schedule_reads"),
        (
            "flash.schedule_programs.ns_per_page",
            "flash.schedule_programs",
        ),
        ("interconnect.transfer.ns_per_call", "interconnect.transfer"),
        ("interconnect.wfq.ns_per_op", "interconnect.wfq"),
    ] {
        if let Some(&(ns, units)) = replays.rates.get(rate) {
            if units > 0 {
                sheet.set(
                    name,
                    ns as f64 / units as f64,
                    format!("replay, {units} units"),
                );
            }
        }
    }
    for name in [
        "flash.pages_programmed",
        "flash.blocks_erased",
        "backend.gc_runs",
        "link.commands",
        "link.bytes",
        "nvme.wire_bytes",
    ] {
        sheet.set(name, get(name), "exact, one pass");
    }
    let programmed = get("flash.pages_programmed");
    if programmed > 0.0 {
        let v = get("backend.gc_relocated") / programmed;
        sheet.set("backend.gc_relocated_per_programmed", v, "exact, one pass");
    }

    let ops_rate = |p: &Phase| rate(p, |x| x.ops as f64).0;
    let overhead = 1.0 - ops_rate(traced) / ops_rate(untraced).max(1e-9);
    sheet.set(
        "bench.trace_overhead_share",
        overhead,
        "1 - traced/untraced ops_per_s",
    );
    let verify = (untraced.verify + traced.verify).as_secs_f64();
    sheet.set("bench.verify_s", verify, "output checks, both phases");
    sheet.finish(&PER_LAYER)
}

/// Renders `metrics` one per line (name, value, unit, how it was taken),
/// then the operation counts, then the result object as the last line.
///
/// # Errors
///
/// A metric whose value is not finite.
pub fn render(
    metrics: &[Metric],
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut text = String::new();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        text.push_str(&format!(
            "{:<40} {:>16.6} {:<6} {}\n",
            m.name, m.value, m.unit, m.note
        ));
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    text.push_str(&format!("ops: {attempted} attempted, {failed} failed\n"));
    text.push_str(&json);
    text.push_str("}}\n");
    Ok(text)
}
