//! `analyze-stream` and `analyze-observed`: `paragraph analyze` over one
//! large seeded trace, plain (the streaming decode-ahead path) or with
//! `--checkpoint-every N --progress` (the materializing path).

use crate::measure::{self, median};
use crate::spans::Tracer;
use crate::{Ctx, Outcome};
use paragraph_core::{AnalysisConfig, AnalysisReport, LiveWell, TraceIdentity};
use paragraph_isa::OpClass;
use paragraph_serve::render_report_text;
use paragraph_trace::binary::{TraceReader, TraceWriter};
use paragraph_trace::source::DecodeAhead;
use paragraph_trace::{crc32, Loc, SegmentMap, TraceError, TraceRecord, TraceSource};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufWriter};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Records in the benchmark trace.
pub const RECORDS: u64 = 4_000_000;
/// `--checkpoint-every` of the observed workload: four periodic writes
/// plus the final one.
const CHECKPOINT_EVERY: u64 = 1_000_000;
/// `--progress` interval of the observed workload, in seconds.
const PROGRESS_SECS: &str = "0.1";
/// Times the trace is written during set-up; the median is reported.
const SETUP_REPS: usize = 9;
/// Timed runs needed however short `--seconds` is.
pub const MIN_REPS: usize = 5;

/// Word-addressed segment bounds of the generated trace: data below
/// `HEAP_BASE`, heap above it, stack above `STACK_FLOOR`.
const HEAP_BASE: u64 = 1 << 22;
const STACK_FLOOR: u64 = 1 << 26;

/// SplitMix64.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The seeded record stream: a heap walk that grows the memory table,
/// stack spills near a moving frame, sparse far pointers, register
/// compute and branches.
struct Gen {
    rng: Rng,
    pc: u64,
    heap: u64,
    sp: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: Rng(seed ^ 0x005e_ed0f_a11a_1e55),
            pc: 0x40_0000,
            heap: HEAP_BASE,
            sp: STACK_FLOOR + (1 << 12),
        }
    }

    fn reg(&mut self) -> Loc {
        Loc::int(1 + (self.rng.next() % 8) as u8)
    }

    fn next(&mut self) -> TraceRecord {
        self.pc += 4;
        let pc = self.pc;
        let stack = self.sp + self.rng.next() % 24;
        match self.rng.next() % 100 {
            0..=34 => {
                let (a, b, d) = (self.reg(), self.reg(), self.reg());
                TraceRecord::compute(pc, OpClass::IntAlu, &[a, b], d)
            }
            35..=49 => {
                let (a, d) = (self.reg(), self.reg());
                TraceRecord::load(pc, stack, Some(a), d)
            }
            50..=62 => {
                let (v, a) = (self.reg(), self.reg());
                TraceRecord::store(pc, stack, v, Some(a))
            }
            63..=74 => {
                self.heap += 1;
                let v = self.reg();
                TraceRecord::store(pc, self.heap, v, None)
            }
            75..=80 => {
                let back = 1 + self.rng.next() % 512;
                let addr = self.heap.saturating_sub(back).max(HEAP_BASE);
                let d = self.reg();
                TraceRecord::load(pc, addr, None, d)
            }
            81..=82 => {
                let far = HEAP_BASE + self.rng.next() % (1 << 22);
                let d = self.reg();
                TraceRecord::load(pc, far, None, d)
            }
            83..=92 => {
                match self.rng.next() % 8 {
                    0 => self.sp = (self.sp - (16 + self.rng.next() % 16)).max(STACK_FLOOR + 64),
                    1 => {
                        self.sp = (self.sp + 16 + self.rng.next() % 16).min(STACK_FLOOR + (1 << 14))
                    }
                    _ => {}
                }
                let c = self.reg();
                TraceRecord::branch(pc, &[c])
            }
            _ => {
                let a = Loc::fp((self.rng.next() % 8) as u8);
                let b = Loc::fp((self.rng.next() % 8) as u8);
                let d = Loc::fp((self.rng.next() % 8) as u8);
                TraceRecord::compute(pc, OpClass::FpMul, &[a, b], d)
            }
        }
    }
}

pub fn segments() -> SegmentMap {
    SegmentMap::new(HEAP_BASE, STACK_FLOOR)
}

/// Writes `records` seeded records through `TraceWriter`.
pub fn write_trace(path: &Path, records: u64, seed: u64) -> io::Result<()> {
    let mut writer = TraceWriter::new(BufWriter::new(File::create(path)?), segments())?;
    let mut gen = Gen::new(seed);
    for _ in 0..records {
        writer.write_record(&gen.next())?;
    }
    writer.finish().map(drop)
}

/// The report `paragraph analyze` must print, computed in-process by
/// `LiveWell` over the same seeded records.
pub fn reference(records: u64, seed: u64) -> AnalysisReport {
    let mut well = LiveWell::new(AnalysisConfig::dataflow_limit().with_segments(segments()));
    let mut gen = Gen::new(seed);
    let mut chunk = Vec::with_capacity(1 << 16);
    let mut left = records;
    while left > 0 {
        chunk.clear();
        let n = left.min(1 << 16);
        chunk.extend((0..n).map(|_| gen.next()));
        well.process_slice(&chunk);
        left -= n;
    }
    well.finish()
}

pub fn trace_err(e: TraceError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Decodes every block into one reused buffer; returns the block count.
pub fn decode_blocks(reader: &mut TraceReader<TraceSource>) -> io::Result<u64> {
    let mut buf = Vec::new();
    let mut blocks = 0;
    loop {
        buf.clear();
        if reader.read_block(&mut buf).map_err(trace_err)? == 0 {
            return Ok(blocks);
        }
        blocks += 1;
    }
}

/// Reads a whole trace into memory.
pub fn read_all(path: &Path) -> io::Result<(Vec<TraceRecord>, SegmentMap)> {
    let mut reader = TraceReader::from_source(TraceSource::auto_file(path)?).map_err(trace_err)?;
    let mut all = Vec::new();
    while reader.read_block(&mut all).map_err(trace_err)? > 0 {}
    Ok((all, reader.segment_map()))
}

/// Median spawn-to-exit time of `paragraph analyze` on a one-record trace.
pub fn cli_startup_ms(ctx: &Ctx, out: &mut Outcome) -> io::Result<f64> {
    let path = ctx.work.join("one.pgtr");
    write_trace(&path, 1, ctx.seed)?;
    let mut walls = Vec::new();
    for _ in 0..15 {
        let mut cmd = Command::new(&ctx.paragraph);
        cmd.arg("analyze").arg("--trace").arg(&path);
        let run = measure::run(cmd, Stdio::null(), None)?;
        if out.check(run.ok(), "one-record analyze") {
            walls.push(run.wall_s * 1e3);
        }
    }
    Ok(median(&walls))
}

pub fn run(ctx: &Ctx, observed: bool) -> io::Result<Outcome> {
    let mut out = Outcome {
        records: RECORDS,
        ..Outcome::default()
    };
    let trace = ctx.work.join("analyze.pgtr");
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        ctx.calib.sample();
        let t = Instant::now();
        write_trace(&trace, RECORDS, ctx.seed)?;
        setup.push(t.elapsed().as_secs_f64());
        let bytes = fs::metadata(&trace)?.len();
        out.trace_bytes = bytes;
        out.count("trace_bytes", bytes);
    }
    out.count("records", RECORDS);
    let report = reference(RECORDS, ctx.seed);
    let ref_json = report.to_json();
    let ref_text = render_report_text(&report);
    if ctx.traced {
        traced(ctx, &trace, observed, &ref_json, &mut out)?;
    } else {
        untraced(ctx, &trace, observed, &ref_json, &ref_text, &mut out)?;
        out.metrics.insert("setup_s", median(&setup));
    }
    Ok(out)
}

fn untraced(
    ctx: &Ctx,
    trace: &Path,
    observed: bool,
    ref_json: &str,
    ref_text: &str,
    out: &mut Outcome,
) -> io::Result<()> {
    let json = ctx.work.join("report.json");
    let stdout = ctx.work.join("stdout.txt");
    let ckpt = ctx.work.join("analyze.pgcp");
    let (mut walls, mut cpus, mut rss, mut beats) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    // The first run warms the page cache and is checked but not timed.
    let mut rep = 0usize;
    let mut last_wall = 0.0;
    while rep <= MIN_REPS || start.elapsed().as_secs_f64() < ctx.seconds {
        for f in [&json, &ckpt] {
            let _ = fs::remove_file(f);
        }
        ctx.calib.sample_beside(last_wall);
        let mut cmd = Command::new(&ctx.paragraph);
        cmd.arg("analyze")
            .arg("--trace")
            .arg(trace)
            .arg("--json")
            .arg(&json);
        if observed {
            cmd.arg("--checkpoint-every")
                .arg(CHECKPOINT_EVERY.to_string())
                .arg("--checkpoint")
                .arg(&ckpt)
                .arg(format!("--progress={PROGRESS_SECS}"));
        }
        let run = measure::run(
            cmd,
            Stdio::from(File::create(&stdout)?),
            observed.then_some("progress: "),
        )?;
        last_wall = run.wall_s;
        let ok = run.ok()
            && fs::read_to_string(&json).is_ok_and(|j| j == ref_json)
            && fs::read_to_string(&stdout).is_ok_and(|t| t == ref_text)
            && (!observed || (run.first_mark_s.is_some() && ckpt.is_file()));
        if !ok {
            eprint!("{}", run.stderr);
        }
        out.count("report_bytes", fs::metadata(&json).map_or(0, |m| m.len()));
        if observed {
            // The final checkpoint's size pins the analyzer state it holds.
            out.count(
                "checkpoint_bytes",
                fs::metadata(&ckpt).map_or(0, |m| m.len()),
            );
        }
        if out.check(ok, "analyze report matches the in-process reference") && rep > 0 {
            walls.push(run.wall_s);
            cpus.push(run.cpu_s);
            rss.push(run.peak_rss_mb);
            if let Some(b) = run.first_mark_s {
                beats.push(b);
            }
        }
        rep += 1;
    }
    if observed {
        out.extra("first_beat_s", median(&beats), "s");
    }
    let wall = median(&walls);
    out.metrics.insert("records_per_s", RECORDS as f64 / wall);
    out.metrics.insert("latency_p50_ms", wall * 1e3);
    out.metrics.insert("cpu_s", median(&cpus));
    out.metrics.insert("peak_rss_mb", median(&rss));
    out.extra("timed_runs", walls.len() as f64, "count");
    Ok(())
}

/// One in-process pass over the trace through the layers the workload's
/// CLI path uses, with spans around each call when `t` is enabled. Returns
/// the pass's wall time and per-layer metrics; fails when the report
/// differs from the reference.
fn pass(
    trace: &Path,
    observed: bool,
    ref_json: &str,
    work: &Path,
    t: &mut Tracer,
) -> io::Result<(u64, Metrics)> {
    let start = Instant::now();
    let mut m = Metrics::new();
    let records = RECORDS as f64;

    let source = t.span("source", |_| TraceSource::auto_file(trace))?;
    let bytes = source
        .shared_bytes()
        .ok_or_else(|| io::Error::other("trace is not mapped"))?;
    std::hint::black_box(t.span("crc", |_| crc32::crc32(bytes.as_ref())));
    let mut reader = TraceReader::from_source(source).map_err(trace_err)?;
    let blocks = t.span("decode", |_| decode_blocks(&mut reader))?;
    m.insert("decode.blocks", blocks as f64);
    m.insert(
        "decode.bytes_per_record",
        reader.bytes_read() as f64 / records,
    );

    let config = AnalysisConfig::dataflow_limit().with_segments(segments());
    let mut well = LiveWell::new(config);
    let reader = TraceReader::from_source(TraceSource::auto_file(trace)?).map_err(trace_err)?;
    if observed {
        // The materializing path: the whole trace in one growing Vec, its
        // identity, then the live well with periodic checkpoints.
        let mut reader = reader;
        let mut all = Vec::new();
        t.enter("decode.materialize");
        while reader.read_block(&mut all).map_err(trace_err)? > 0 {}
        t.exit();
        let resident = (all.capacity() * std::mem::size_of::<TraceRecord>()) as f64;
        m.insert("materialize.bytes_per_record", resident / records);
        m.insert("materialize.resident_mb", resident / (1 << 20) as f64);
        let identity = t.span("checkpoint.identity", |_| TraceIdentity::of_records(&all));
        well.set_trace_identity(Some(identity));
        let ckpt = work.join("pass.pgcp");
        for chunk in all.chunks(CHECKPOINT_EVERY as usize) {
            t.span("livewell", |_| well.process_slice(chunk));
            t.span("checkpoint.write", |_| {
                paragraph_core::artifact::write_atomic(&ckpt, |w| {
                    well.save_checkpoint(w)
                        .map_err(|e| io::Error::other(e.to_string()))
                })
            })?;
        }
        m.insert("checkpoint.bytes", fs::metadata(&ckpt)?.len() as f64);
        m.insert(
            "decode.materialize_ns_per_record",
            t.total_ns("decode.materialize") as f64 / records,
        );
        m.insert(
            "checkpoint.identity_ms",
            t.total_ns("checkpoint.identity") as f64 / 1e6,
        );
        let writes = t.count("checkpoint.write");
        m.insert("checkpoint.count", writes as f64);
        m.insert(
            "checkpoint.write_ms",
            t.total_ns("checkpoint.write") as f64 / 1e6 / writes as f64,
        );
    } else {
        // The streaming path: decode-ahead feeding the live well.
        let mut ahead = DecodeAhead::spawn(reader, None)?;
        loop {
            let next = t.span("decode_ahead.wait", |_| ahead.next_batch());
            let Some(batch) = next else { break };
            let batch = batch.map_err(trace_err)?;
            t.span("livewell", |_| well.process_slice(&batch));
            ahead.recycle(batch);
        }
        ahead.finish();
        m.insert(
            "decode_ahead.wait_ns_per_record",
            t.total_ns("decode_ahead.wait") as f64 / records,
        );
    }
    m.insert("livewell.peak_live_values", well.peak_live_values() as f64);
    let report = t.span("report.finish", |_| well.finish());
    let json = t.span("report.json", |_| report.to_json());
    std::hint::black_box(t.span("report.text", |_| render_report_text(&report)));
    if json != ref_json {
        return Err(io::Error::other(
            "in-process report differs from the reference",
        ));
    }
    m.insert("report.json_bytes", json.len() as f64);

    let per_rec = |name: &str| t.total_ns(name) as f64 / records;
    let ms = |name: &str| t.total_ns(name) as f64 / 1e6;
    m.insert("source.open_ms", ms("source"));
    m.insert("crc.ns_per_record", per_rec("crc"));
    m.insert("decode.ns_per_record", per_rec("decode"));
    m.insert("livewell.ns_per_record", per_rec("livewell"));
    m.insert("report.finish_ms", ms("report.finish"));
    m.insert("report.json_ms", ms("report.json"));
    m.insert("report.text_ms", ms("report.text"));
    Ok((start.elapsed().as_nanos() as u64, m))
}

fn traced(
    ctx: &Ctx,
    trace: &Path,
    observed: bool,
    ref_json: &str,
    out: &mut Outcome,
) -> io::Result<()> {
    let startup = cli_startup_ms(ctx, out)?;
    out.metrics.insert("cli.startup_ms", startup);
    let last = traced_passes(out, Instant::now(), ctx.seconds, |t| {
        pass(trace, observed, ref_json, &ctx.work, t)
    });
    finish_traced(ctx, out, &last)
}

/// Per-layer metrics of one pass, by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Alternates untraced and traced runs of `pass`, at least three of each
/// and then until `budget_s` seconds are used. The first pair is a warm-up.
/// Records the median of every per-layer metric over the traced runs and
/// the tracing overhead: the traced median total minus the untraced one.
/// Returns the last traced run's spans.
pub fn traced_passes(
    out: &mut Outcome,
    epoch: Instant,
    budget_s: f64,
    mut pass: impl FnMut(&mut Tracer) -> io::Result<(u64, Metrics)>,
) -> Tracer {
    let (mut plain_ns, mut traced_ns) = (vec![], vec![]);
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last = Tracer::since(true, epoch);
    let start = Instant::now();
    let mut rep = 0usize;
    while rep < 3 || start.elapsed().as_secs_f64() < budget_s {
        let plain = pass(&mut Tracer::new(false));
        let mut on = Tracer::since(true, epoch);
        let traced = pass(&mut on);
        for r in [&plain, &traced] {
            if let Err(e) = r {
                out.check(false, &format!("in-process pass: {e}"));
            } else {
                out.check(true, "in-process pass");
            }
        }
        if let (Ok((p, _)), Ok((q, m)), true) = (plain, traced, rep > 0) {
            plain_ns.push(p as f64);
            traced_ns.push(q as f64);
            for (k, v) in m {
                samples.entry(k).or_default().push(v);
            }
            last = on;
        }
        rep += 1;
    }
    for (k, v) in samples {
        out.metrics.insert(k, median(&v));
    }
    let (plain, traced) = (median(&plain_ns), median(&traced_ns));
    out.metrics
        .insert("trace.overhead_ms", (traced - plain) / 1e6);
    out.metrics
        .insert("trace.overhead_share", (traced - plain) / plain);
    last
}

/// Records the span count and per-layer self times of a traced run, and
/// writes its spans next to the work directory.
pub fn finish_traced(ctx: &Ctx, out: &mut Outcome, last: &Tracer) -> io::Result<()> {
    out.metrics.insert("trace.spans", last.spans().len() as f64);
    out.self_ms = last
        .self_times()
        .into_iter()
        .map(|(k, ns)| (k, ns as f64 / 1e6))
        .collect();
    let spans = ctx
        .work
        .parent()
        .unwrap_or(&ctx.work)
        .join(format!("{}.spans.jsonl", ctx.workload));
    last.write_jsonl(&spans)
}
