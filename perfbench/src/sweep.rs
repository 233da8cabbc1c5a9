//! `sweep-grid`: `paragraph sweep --workloads all --windows <ladder>
//! --jobs 2`. VM trace generation, the decode-once arena, the scheduler's
//! fan-out and the live well under bounded windows; no trace file, so no
//! source, CRC, decode or checkpoint.

use crate::analyze::{cli_startup_ms, finish_traced, traced_passes, Metrics, MIN_REPS};
use crate::measure::{self, median};
use crate::spans::Tracer;
use crate::{Ctx, Outcome};
use paragraph_bench::{run_sweep, Study, SweepCell, SweepOptions};
use paragraph_core::{AnalysisConfig, LiveWell, WindowSize};
use paragraph_workloads::WorkloadId;
use std::fs::{self, File};
use std::io;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Bounded windows of the ladder; each workload also gets an unbounded cell.
const WINDOWS: &[usize] = &[16, 256];
/// VM fuel per workload (instructions, so at most this many records).
const FUEL: u64 = 400_000;
/// Jobs of the measured sweep; the reference runs with one.
const JOBS: usize = 2;
/// Reference sweeps run during set-up; the median is reported.
const SETUP_REPS: usize = 9;

fn sweep_cmd(ctx: &Ctx, jobs: usize) -> Command {
    let windows: Vec<String> = WINDOWS.iter().map(ToString::to_string).collect();
    let mut cmd = Command::new(&ctx.paragraph);
    cmd.args(["sweep", "--workloads", "all", "--windows"])
        .arg(windows.join(","))
        .args(["--fuel", &FUEL.to_string(), "--seed", &ctx.seed.to_string()])
        .args(["--jobs", &jobs.to_string(), "--retries", "0"]);
    cmd
}

/// Arena decodes and hits from the sweep's summary line on stderr.
fn arena_counts(stderr: &str) -> Option<(u64, u64)> {
    let tail = stderr.split("(arena: ").nth(1)?;
    let mut nums = tail
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<u64>().ok());
    Some((nums.next()??, nums.next()??))
}

fn study(ctx: &Ctx) -> Study {
    Study::new(FUEL, 100, ctx.work.join("study")).with_seed_override(Some(ctx.seed))
}

fn cells() -> Vec<SweepCell> {
    let base = AnalysisConfig::dataflow_limit();
    let mut cells = Vec::new();
    for id in WorkloadId::ALL {
        for &w in WINDOWS {
            cells.push(SweepCell::new(
                id,
                format!("w{w}"),
                base.clone().with_window(WindowSize::bounded(w)),
            ));
        }
        cells.push(SweepCell::new(id, "full", base.clone()));
    }
    cells
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let stdout = ctx.work.join("sweep.txt");
    // Set-up: the `--jobs 1` reference digest, run several times.
    let (mut setup, mut reference) = (Vec::new(), None::<String>);
    for _ in 0..SETUP_REPS {
        ctx.calib.sample();
        let run = measure::run(sweep_cmd(ctx, 1), Stdio::from(File::create(&stdout)?), None)?;
        let text = fs::read_to_string(&stdout)?;
        let same = reference.as_ref().is_none_or(|r| *r == text);
        if !out.check(
            run.ok() && same,
            "reference sweep (--jobs 1) is deterministic",
        ) {
            eprint!("{}", run.stderr);
        }
        reference.get_or_insert(text);
        setup.push(run.wall_s);
    }
    let reference = reference.unwrap_or_default();
    out.count("digest_bytes", reference.len() as u64);
    // Record census in-process: every cell analyzes its workload's trace.
    let study = study(ctx);
    let per_workload = (WINDOWS.len() + 1) as u64;
    for id in WorkloadId::ALL {
        let (records, _) = study
            .collect(id)
            .map_err(|e| io::Error::other(e.to_string()))?;
        out.records += records.len() as u64 * per_workload;
    }
    out.count("records", out.records);
    out.count("cells", WorkloadId::ALL.len() as u64 * per_workload);
    if ctx.traced {
        return traced(ctx, out);
    }

    let (mut walls, mut cpus, mut rss) = (vec![], vec![], vec![]);
    let start = Instant::now();
    let mut rep = 0usize;
    let mut last_wall = 0.0;
    while rep <= MIN_REPS || start.elapsed().as_secs_f64() < ctx.seconds {
        ctx.calib.sample_beside(last_wall);
        let run = measure::run(
            sweep_cmd(ctx, JOBS),
            Stdio::from(File::create(&stdout)?),
            None,
        )?;
        last_wall = run.wall_s;
        let ok = run.ok() && fs::read_to_string(&stdout).is_ok_and(|t| t == reference);
        if let Some((misses, hits)) = arena_counts(&run.stderr) {
            out.count("arena_misses", misses);
            out.count("arena_hits", hits);
        }
        if !ok {
            eprint!("{}", run.stderr);
        }
        if out.check(ok, "sweep --jobs 2 matches the --jobs 1 digest") && rep > 0 {
            walls.push(run.wall_s);
            cpus.push(run.cpu_s);
            rss.push(run.peak_rss_mb);
        }
        rep += 1;
    }
    let wall = median(&walls);
    out.metrics
        .insert("records_per_s", out.records as f64 / wall);
    out.metrics.insert("latency_p50_ms", wall * 1e3);
    out.metrics.insert("cpu_s", median(&cpus));
    out.metrics.insert("peak_rss_mb", median(&rss));
    out.metrics.insert("setup_s", median(&setup));
    out.extra("timed_runs", walls.len() as f64, "count");
    Ok(out)
}

/// One in-process pass: each workload's VM trace, then every cell on it
/// sequentially, then the same grid through `run_sweep` with two jobs.
fn pass(ctx: &Ctx, t: &mut Tracer) -> io::Result<(u64, Metrics)> {
    let start = Instant::now();
    let mut m = Metrics::new();
    let study = study(ctx);
    let cells = cells();
    let per_workload = WINDOWS.len() + 1;
    let (mut instructions, mut window_records, mut full_records) = (0u64, 0u64, 0u64);
    let (mut stalls, mut peak_live) = (0u64, 0usize);
    let mut json_bytes = 0usize;
    for (w, id) in WorkloadId::ALL.into_iter().enumerate() {
        let (records, segments) = t
            .span("vm", |_| study.collect(id))
            .map_err(|e| io::Error::other(e.to_string()))?;
        instructions += records.len() as u64;
        for cell in &cells[w * per_workload..(w + 1) * per_workload] {
            let bounded = cell.label != "full";
            let mut well = LiveWell::new(cell.config.clone().with_segments(segments));
            let name = if bounded {
                "livewell.window"
            } else {
                "livewell"
            };
            t.span(name, |_| well.process_slice(&records));
            if bounded {
                window_records += records.len() as u64;
            } else {
                full_records += records.len() as u64;
            }
            stalls += well.window_stalls();
            peak_live = peak_live.max(well.peak_live_values());
            let report = t.span("report.finish", |_| well.finish());
            json_bytes += t.span("report.json", |_| report.to_json()).len();
        }
    }
    let sequential_ns = start.elapsed().as_nanos() as f64;
    let options = SweepOptions {
        jobs: JOBS,
        arena_budget_bytes: 0,
        reuse_stages: false,
        retries: 0,
        retry_backoff_ms: 0,
    };
    let sweep = t.span("scheduler", |_| {
        run_sweep(&study, "perfbench", &cells, &options)
    });
    if sweep.quarantined() > 0 {
        return Err(io::Error::other("in-process sweep quarantined cells"));
    }
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    m.insert("vm.ns_per_instruction", per(t.total_ns("vm"), instructions));
    m.insert(
        "livewell.window_ns_per_record",
        per(t.total_ns("livewell.window"), window_records),
    );
    m.insert(
        "livewell.ns_per_record",
        per(t.total_ns("livewell"), full_records),
    );
    m.insert("livewell.window_stalls", stalls as f64);
    m.insert("livewell.peak_live_values", peak_live as f64);
    // Report costs per report, as on the other workloads.
    let reports = cells.len() as f64;
    m.insert(
        "report.finish_ms",
        t.total_ns("report.finish") as f64 / 1e6 / reports,
    );
    m.insert(
        "report.json_ms",
        t.total_ns("report.json") as f64 / 1e6 / reports,
    );
    m.insert("report.json_bytes", json_bytes as f64 / reports);
    m.insert("arena.misses", sweep.arena.misses as f64);
    m.insert("arena.hits", sweep.arena.hits as f64);
    let resident = sweep.arena.peak_resident_bytes as f64;
    m.insert("arena.peak_resident_mb", resident / (1 << 20) as f64);
    m.insert("materialize.resident_mb", resident / (1 << 20) as f64);
    m.insert(
        "materialize.bytes_per_record",
        resident / instructions.max(1) as f64,
    );
    m.insert(
        "scheduler.busy_share",
        sequential_ns / (JOBS as f64 * sweep.wall_ns.max(1) as f64),
    );
    Ok((start.elapsed().as_nanos() as u64, m))
}

fn traced(ctx: &Ctx, mut out: Outcome) -> io::Result<Outcome> {
    let startup = cli_startup_ms(ctx, &mut out)?;
    out.metrics.insert("cli.startup_ms", startup);
    let last = traced_passes(&mut out, Instant::now(), ctx.seconds, |t| pass(ctx, t));
    for (name, key) in [
        ("arena.misses", "arena_misses"),
        ("arena.hits", "arena_hits"),
    ] {
        out.count(key, out.metrics.get(name).copied().unwrap_or(0.0) as u64);
    }
    finish_traced(ctx, &mut out, &last)?;
    Ok(out)
}
