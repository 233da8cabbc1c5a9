//! `perfbench` — the repository benchmark harness.
//!
//! ```text
//! perfbench --paragraph BIN --workload NAME --seed N --seconds S --trace 0|1
//!           --work DIR [--commit ID]
//! ```
//!
//! Runs one workload against the release `paragraph` binary for `S`
//! seconds and prints, as its last stdout line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Untraced runs report the
//! end-to-end metrics; traced runs (`--trace 1`) time the benchmark's own
//! calls into each layer and report the per-layer metrics. Every input is
//! generated from `--seed`; every output is checked against a reference.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod analyze;
mod calib;
mod measure;
mod serve;
mod spans;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, reported by every untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("records_per_s", "records/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the layers every workload exercises, reported by
/// every traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("livewell.ns_per_record", "ns"),
    ("livewell.peak_live_values", "count"),
    ("report.finish_ms", "ms"),
    ("report.json_ms", "ms"),
    ("report.json_bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// Per-layer metrics of layers only some workloads exercise. A traced run
/// prints those it measured, by name, but they are not in its result
/// object, which holds only what every workload measures.
pub const PER_LAYER_SPECIFIC: &[(&str, &str)] = &[
    ("source.open_ms", "ms"),
    ("crc.ns_per_record", "ns"),
    ("decode.ns_per_record", "ns"),
    ("decode.bytes_per_record", "bytes"),
    ("decode.blocks", "count"),
    ("decode_ahead.wait_ns_per_record", "ns"),
    ("livewell.window_ns_per_record", "ns"),
    ("livewell.window_stalls", "count"),
    ("materialize.bytes_per_record", "bytes"),
    ("materialize.resident_mb", "MB"),
    ("decode.materialize_ns_per_record", "ns"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.count", "count"),
    ("checkpoint.identity_ms", "ms"),
    ("report.text_ms", "ms"),
    ("vm.ns_per_instruction", "ns"),
    ("arena.misses", "count"),
    ("arena.hits", "count"),
    ("arena.peak_resident_mb", "MB"),
    ("scheduler.busy_share", "ratio"),
    ("cli.startup_ms", "ms"),
    ("ingest.ns_per_record", "ns"),
    ("serve.upload_ms_p50", "ms"),
    ("serve.upload_ms_p90", "ms"),
    ("serve.analyze_ms_p50", "ms"),
    ("serve.analyze_ms_p90", "ms"),
    ("serve.session_advance_ms_p50", "ms"),
    ("serve.session_advance_ms_p90", "ms"),
    ("serve.session_finish_ms_p50", "ms"),
    ("serve.session_finish_ms_p90", "ms"),
    ("serve.healthz_ms_p50", "ms"),
    ("serve.healthz_ms_p90", "ms"),
    ("serve.sessions_evicted", "count"),
    ("serve.sessions_resumed", "count"),
    ("serve.generator_lag_ms", "ms"),
];

pub const WORKLOADS: &[&str] = &[
    "analyze-stream",
    "analyze-observed",
    "sweep-grid",
    "serve-mixed",
];

/// Everything one run needs to know.
pub struct Ctx {
    pub paragraph: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub work: PathBuf,
    pub commit: String,
    /// Host-speed samples, taken between the program's timed runs.
    pub calib: calib::Calib,
}

/// What a run found. Timings are only ever taken from checked-correct
/// work; a mismatch or failure counts in `failed` instead.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Measured metrics (end-to-end or per-layer, per the run's mode).
    /// Only what the workload measured: a layer it bypasses is absent.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Metrics specific to this workload, printed but not in the result
    /// object (which carries only the metrics every workload reports).
    pub extras: Vec<(String, f64, &'static str)>,
    /// Deterministic work counters: the same seed must give the same
    /// values on every run.
    pub counters: BTreeMap<&'static str, u64>,
    /// Run context beyond the arguments (record count, trace bytes).
    pub records: u64,
    pub trace_bytes: u64,
    /// Per-layer self time, printed in traced runs.
    pub self_ms: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one checked piece of work; logs the reason when it failed.
    pub fn check(&mut self, ok: bool, what: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}");
        }
        ok
    }

    /// Sets a counter, failing the run if a repeat disagrees with it.
    pub fn count(&mut self, name: &'static str, value: u64) {
        match self.counters.insert(name, value) {
            Some(prev) if prev != value => {
                self.check(
                    false,
                    &format!("counter {name} drifted: {prev} then {value}"),
                );
            }
            _ => {}
        }
    }

    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extras.push((name.into(), value, unit));
    }
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let mut ctx = Ctx {
        paragraph: PathBuf::new(),
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        traced: false,
        work: PathBuf::new(),
        commit: "unknown".into(),
        calib: calib::Calib::new(),
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--paragraph" => ctx.paragraph = value()?.into(),
            "--workload" => ctx.workload = value()?,
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => ctx.traced = value()? == "1",
            "--work" => ctx.work = value()?.into(),
            "--commit" => ctx.commit = value()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !ctx.paragraph.is_file() {
        return Err(format!(
            "no paragraph binary at {}",
            ctx.paragraph.display()
        ));
    }
    if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
    Ok(ctx)
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpu_before = cpu_ticks();
    let result = match ctx.workload.as_str() {
        "analyze-stream" => analyze::run(&ctx, false),
        "analyze-observed" => analyze::run(&ctx, true),
        "sweep-grid" => sweep::run(&ctx),
        _ => serve::run(&ctx),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            return ExitCode::from(1);
        }
    };
    if !ctx.traced {
        scale_to_reference(&ctx.calib, &mut out);
    }
    let steal = match (cpu_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.4}", (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "null".into(),
    };
    match print_outcome(&ctx, &out, &steal) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {}: {e}; no result printed", ctx.workload);
            ExitCode::from(1)
        }
    }
}

/// Scales the end-to-end timings to the reference host's speed (see
/// `calib`), keeping the measured values as workload-specific lines.
fn scale_to_reference(calib: &calib::Calib, out: &mut Outcome) {
    let slowness = calib.slowness();
    for &(name, unit) in END_TO_END {
        let Some(v) = out.metrics.get_mut(name) else {
            continue;
        };
        out.extras.push((format!("measured.{name}"), *v, unit));
        match name {
            "records_per_s" => *v *= slowness,
            "latency_p50_ms" | "cpu_s" | "setup_s" => *v /= slowness,
            _ => {}
        }
    }
    out.extra("host.slowness", slowness, "ratio");
    out.extra("host.calibration_samples", calib.count() as f64, "count");
}

/// (steal, total) CPU ticks of the whole machine from `/proc/stat`. The
/// steal share over a run tells how much a hypervisor took from it.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Prints the run's context, counters and every measured metric, then
/// the result object. Fails, printing no result, when a metric of the
/// result object was not measured, is not finite or is 0, or when a
/// measured metric has no known unit.
fn print_outcome(ctx: &Ctx, out: &Outcome, steal_share: &str) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "context {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"mode\":\"{}\",\"nproc\":{nproc},\
         \"records\":{},\"trace_bytes\":{},\"commit\":\"{}\",\"steal_share\":{steal_share}}}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        if ctx.traced { "traced" } else { "untraced" },
        out.records,
        out.trace_bytes,
        ctx.commit
    );
    let counters: Vec<String> = out
        .counters
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("counters {{{}}}", counters.join(","));
    for (layer, ms) in &out.self_ms {
        println!("self_time {layer:<28} {ms:>12.3} ms");
    }
    let (names, specific, mode): (_, &[(&str, &str)], _) = if ctx.traced {
        (PER_LAYER, PER_LAYER_SPECIFIC, "per-layer")
    } else {
        (END_TO_END, &[], "end-to-end")
    };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = match out.metrics.get(name) {
            Some(&v) if v.is_finite() && v != 0.0 => v,
            Some(v) => return Err(format!("{name} measured {v}")),
            None => return Err(format!("{name} was not measured")),
        };
        println!("metric {name:<34} {value:>16.6} {unit} ({mode})");
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        ));
    }
    for (&name, value) in &out.metrics {
        if names.iter().any(|&(n, _)| n == name) {
            continue;
        }
        let (_, unit) = specific
            .iter()
            .find(|&&(n, _)| n == name)
            .ok_or(format!("{name} is not a {mode} metric"))?;
        println!("metric {name:<34} {value:>16.6} {unit} ({mode}, workload-specific)");
    }
    for (name, value, unit) in &out.extras {
        println!("metric {name:<34} {value:>16.6} {unit} (workload-specific)");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "metric {:<34} {error_rate:>16.6} ratio ({} of {} failed)",
        "error_rate", out.failed, out.attempted
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    Ok(())
}
