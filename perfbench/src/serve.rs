//! `serve-mixed`: a `paragraph serve --workers 2` daemon fed by an
//! open-loop generator of two lanes (two threads, one connection each).
//!
//! Lane A sends one-shot `/analyze` requests in JSON and text over the ten
//! workload traces, text uploads through `ingest`, and `/healthz`. Lane B
//! drives analysis sessions in increments, three at a time against
//! `--max-live-sessions 2`, so every touch evicts one session to a
//! checkpoint and resumes another. Each lane sends on a fixed schedule and
//! times every request from when it was due. The mix of every cycle is
//! fixed; the seed picks the traces' contents and the order within a cycle.

use crate::analyze::{
    decode_blocks, finish_traced, read_all, trace_err, traced_passes, Metrics, Rng,
};
use crate::calib::Calib;
use crate::measure::{self, median, quantile, tail, Daemon};
use crate::spans::Tracer;
use crate::{Ctx, Outcome};
use paragraph_core::{AnalysisConfig, LiveWell};
use paragraph_serve::client::{self, Endpoint};
use paragraph_serve::render_report_text;
use paragraph_trace::binary::TraceReader;
use paragraph_trace::govern::{Limits, ResourceGovernor};
use paragraph_trace::ingest::{ingest_text, render_trace};
use paragraph_trace::{crc32, SegmentMap, TraceRecord, TraceSource};
use paragraph_workloads::WorkloadId;
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// VM fuel per corpus trace: traces a twentieth the size of the analyze
/// workloads', the other side of every size-dependent choice in the
/// program, yet long enough that a request's latency is mostly analysis
/// rather than thread wake-ups, which a busy host delays the most.
const FUEL: u64 = 200_000;
/// Upload limits raised through the daemon's operator overrides, since
/// its strict default admits at most 65,536 records per trace.
const LIMITS: [(&str, &str); 3] = [
    ("PARAGRAPH_MAX_RECORDS", "1048576"),
    ("PARAGRAPH_MAX_ALLOC_BYTES", "134217728"),
    ("PARAGRAPH_MAX_DECODE_BYTES", "134217728"),
];
/// Daemon worker threads.
const WORKERS: usize = 2;
/// Records in each text upload.
const TEXT_RECORDS: usize = 2_000;
/// Offered rates of the two lanes, requests per second.
const RATE_A: f64 = 40.0;
const RATE_B: f64 = 25.0;
/// Untimed warm-up before the measured phase, seconds.
const WARMUP_S: f64 = 1.0;
/// Daemon set-ups per run; the median is reported and the last daemon is
/// measured.
const SETUP_REPS: usize = 9;
/// Analysis configurations of one-shot requests: query suffix, CLI flags.
const CONFIGS: [(&str, &[&str]); 2] = [("", &[]), ("&window=64", &["--window", "64"])];
/// Seconds between host-speed kernel samples during the measured phase.
/// A sample holds both cores for ~40 ms, so a request that overlaps it runs
/// slower; at one a second that touches a few percent of requests, below
/// the median. The kernel's CPU time does not count the time it shares a
/// core with the daemon.
const CALIB_EVERY_S: f64 = 1.0;
/// Seconds of in-process corpus passes in a traced run.
const PASS_BUDGET_S: f64 = 2.0;
/// Session increments per trace.
const SESSION_STEPS: u64 = 2;
/// `/healthz` fields kept as work counters: (field, counter).
const HEALTH_COUNTERS: [(&str, &str); 5] = [
    ("requests", "serve_requests"),
    ("shed", "serve_shed"),
    ("workers_recycled", "serve_workers_recycled"),
    ("sessions_evicted", "serve_sessions_evicted"),
    ("sessions_resumed", "serve_sessions_resumed"),
];

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Route {
    Upload,
    Analyze,
    SessionOpen,
    SessionAdvance,
    SessionFinish,
    Healthz,
}

impl Route {
    fn name(self) -> &'static str {
        match self {
            Route::Upload => "upload",
            Route::Analyze => "analyze",
            Route::SessionOpen => "session_open",
            Route::SessionAdvance => "session_advance",
            Route::SessionFinish => "session_finish",
            Route::Healthz => "healthz",
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// One-shot analysis of corpus trace `t` under config `c`.
    Analyze {
        t: usize,
        c: usize,
        text: bool,
    },
    /// Upload of text trace `k`.
    Upload {
        k: usize,
    },
    Healthz,
    /// Session slot `s` on trace `t`: open, advance, finish.
    Open {
        s: usize,
        t: usize,
    },
    Advance {
        s: usize,
        records: u64,
    },
    Finish {
        s: usize,
        t: usize,
    },
}

/// Everything the generator checks responses against.
struct Refs {
    ids: Vec<String>,
    records: Vec<u64>,
    /// `[trace][config]` → (JSON body, text body), from `paragraph analyze`.
    bodies: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
    texts: Vec<Vec<u8>>,
}

/// A corpus trace held in memory with its segment map.
type Corpus = (Vec<TraceRecord>, SegmentMap);

struct Sample {
    route: Route,
    /// From the request's due time to its answer.
    latency_s: f64,
    /// From sending the request to its answer: the daemon's service time
    /// as the client sees it.
    service_s: f64,
    lag_s: f64,
    status: u16,
    ok: bool,
    records: u64,
    start: Instant,
    done: Instant,
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
}

/// Lane A's schedule: whole cycles of the fixed mix, each shuffled.
fn lane_a(n: usize, rng: &mut Rng, traces: usize, texts: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        let mut cycle = Vec::new();
        for t in 0..traces {
            cycle.push(Op::Analyze {
                t,
                c: 0,
                text: false,
            });
            cycle.push(Op::Analyze {
                t,
                c: 0,
                text: true,
            });
            cycle.push(Op::Analyze {
                t,
                c: 1,
                text: false,
            });
        }
        cycle.extend((0..5).map(|i| Op::Upload { k: i % texts }));
        cycle.extend([Op::Healthz; 5]);
        shuffle(&mut cycle, rng);
        ops.extend(cycle);
    }
    ops.truncate(n);
    ops
}

/// Lane B's schedule: session scripts on every trace (order shuffled per
/// cycle), three interleaved round-robin. Slots number the scripts.
fn lane_b(n: usize, rng: &mut Rng, records: &[u64]) -> Vec<Op> {
    let mut ops = Vec::with_capacity(n);
    let mut order: Vec<usize> = Vec::new();
    let mut slot = 0;
    let mut active: Vec<std::collections::VecDeque<Op>> = Vec::new();
    let mut turn = 0usize;
    while ops.len() < n {
        while active.len() < 3 {
            if order.is_empty() {
                order = (0..records.len()).collect();
                shuffle(&mut order, rng);
            }
            let t = order.pop().expect("refilled above");
            let step = records[t].div_ceil(SESSION_STEPS);
            let mut script = std::collections::VecDeque::new();
            script.push_back(Op::Open { s: slot, t });
            for _ in 0..SESSION_STEPS - 1 {
                script.push_back(Op::Advance {
                    s: slot,
                    records: step,
                });
            }
            script.push_back(Op::Finish { s: slot, t });
            active.push(script);
            slot += 1;
        }
        turn %= active.len();
        let op = active[turn].pop_front().expect("scripts are never empty");
        ops.push(op);
        if active[turn].is_empty() {
            active.remove(turn);
        } else {
            turn += 1;
        }
    }
    ops
}

/// The value of a numeric JSON field in a flat object.
fn field(body: &[u8], name: &str) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let at = text.find(&format!("\"{name}\":"))? + name.len() + 3;
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn string_field(body: &[u8], name: &str) -> Option<String> {
    let text = std::str::from_utf8(body).ok()?;
    let at = text.find(&format!("\"{name}\":\""))? + name.len() + 4;
    text[at..].split('"').next().map(str::to_owned)
}

/// Runs one lane's schedule; returns a sample per request.
fn drive(ep: &Endpoint, ops: &[Op], rate: f64, t0: Instant, refs: &Refs) -> Vec<Sample> {
    let mut sessions: BTreeMap<usize, String> = BTreeMap::new();
    let mut out = Vec::with_capacity(ops.len());
    let mut prev_done = t0;
    for (i, op) in ops.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let start = Instant::now();
        let lag_s = start
            .saturating_duration_since(due.max(prev_done))
            .as_secs_f64();
        let session = |s: &usize| sessions.get(s).cloned().unwrap_or_default();
        let (route, method, path, body): (Route, &str, String, &[u8]) = match *op {
            Op::Analyze { t, c, text } => {
                let fmt = if text { "&format=text" } else { "" };
                let q = format!("/analyze?trace={}{}{fmt}", refs.ids[t], CONFIGS[c].0);
                (Route::Analyze, "POST", q, &[])
            }
            Op::Upload { k } => (
                Route::Upload,
                "POST",
                "/traces?format=text".into(),
                &refs.texts[k],
            ),
            Op::Healthz => (Route::Healthz, "GET", "/healthz".into(), &[]),
            Op::Open { t, .. } => {
                let q = format!("/sessions?trace={}", refs.ids[t]);
                (Route::SessionOpen, "POST", q, &[])
            }
            Op::Advance { s, records } => {
                let q = format!("/sessions/{}/advance?records={records}", session(&s));
                (Route::SessionAdvance, "POST", q, &[])
            }
            Op::Finish { s, .. } => {
                let q = format!("/sessions/{}/finish", session(&s));
                (Route::SessionFinish, "POST", q, &[])
            }
        };
        let resp = client::request(ep, method, &path, body);
        let done = Instant::now();
        prev_done = done;
        let (status, body) = match resp {
            Ok(r) => (r.status, r.body),
            Err(_) => (0, Vec::new()),
        };
        let (ok, records) = match *op {
            _ if status != 200 => (false, 0),
            Op::Analyze { t, c, text } => {
                let (json, txt) = &refs.bodies[t][c];
                (
                    body == if text {
                        txt.as_slice()
                    } else {
                        json.as_slice()
                    },
                    refs.records[t],
                )
            }
            Op::Upload { .. } => (field(&body, "records") == Some(TEXT_RECORDS as u64), 0),
            Op::Healthz => (string_field(&body, "status").as_deref() == Some("ok"), 0),
            Op::Open { s, .. } => match string_field(&body, "id") {
                Some(id) => {
                    sessions.insert(s, id);
                    (true, 0)
                }
                None => (false, 0),
            },
            Op::Advance { .. } => (true, 0),
            Op::Finish { s, t } => {
                sessions.remove(&s);
                (body == refs.bodies[t][0].0, refs.records[t])
            }
        };
        out.push(Sample {
            route,
            latency_s: done.saturating_duration_since(due).as_secs_f64(),
            service_s: done.saturating_duration_since(start).as_secs_f64(),
            lag_s,
            status,
            ok,
            records,
            start,
            done,
        });
    }
    out
}

/// Runs both lanes for `secs` seconds of schedule; returns the samples and
/// the wall time from the first due time to the last answer. With `calib`,
/// a third thread samples the host-speed kernel every `CALIB_EVERY_S`
/// seconds of the schedule.
fn phase(
    ep: &Endpoint,
    refs: &Refs,
    secs: f64,
    rng: &mut Rng,
    calib: Option<&Calib>,
) -> (Vec<Sample>, f64) {
    let a = lane_a(
        (RATE_A * secs) as usize,
        rng,
        refs.ids.len(),
        refs.texts.len(),
    );
    let b = lane_b((RATE_B * secs) as usize, rng, &refs.records);
    let t0 = Instant::now() + Duration::from_millis(5);
    let (mut sa, sb) = std::thread::scope(|scope| {
        let ha = scope.spawn(|| drive(ep, &a, RATE_A, t0, refs));
        let hb = scope.spawn(|| drive(ep, &b, RATE_B, t0, refs));
        if let Some(calib) = calib {
            scope.spawn(move || {
                for k in 1..(secs / CALIB_EVERY_S).ceil() as u32 {
                    let tick = t0 + Duration::from_secs_f64(k as f64 * CALIB_EVERY_S);
                    std::thread::sleep(tick.saturating_duration_since(Instant::now()));
                    calib.sample();
                }
            });
        }
        (
            ha.join().expect("lane A panicked"),
            hb.join().expect("lane B panicked"),
        )
    });
    sa.extend(sb);
    let end = sa.iter().map(|s| s.done).max().unwrap_or(t0);
    (sa, end.saturating_duration_since(t0).as_secs_f64())
}

struct Server {
    daemon: Daemon,
    ep: Endpoint,
    ids: Vec<String>,
}

fn corpus_path(ctx: &Ctx, id: WorkloadId) -> PathBuf {
    ctx.work.join("corpus").join(format!("{}.pgtr", id.name()))
}

/// One set-up: the corpus written through `paragraph trace`, a daemon
/// spawned and ready, and the corpus uploaded.
fn set_up(ctx: &Ctx, rep: usize, out: &mut Outcome) -> io::Result<Server> {
    fs::create_dir_all(ctx.work.join("corpus"))?;
    for id in WorkloadId::ALL {
        let mut cmd = Command::new(&ctx.paragraph);
        cmd.args([
            "trace",
            "--workload",
            id.name(),
            "--seed",
            &ctx.seed.to_string(),
        ])
        .args(["--fuel", &FUEL.to_string(), "--out"])
        .arg(corpus_path(ctx, id));
        let run = measure::run(cmd, Stdio::null(), None)?;
        if !out.check(run.ok(), "paragraph trace") {
            return Err(io::Error::other(run.stderr));
        }
    }
    let ready = ctx.work.join(format!("ready{rep}"));
    let mut cmd = Command::new(&ctx.paragraph);
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers"])
        .arg(WORKERS.to_string())
        .args(["--max-live-sessions", "2", "--spool"])
        .arg(ctx.work.join(format!("spool{rep}")))
        .arg("--ready-file")
        .arg(&ready)
        .envs(LIMITS)
        .stderr(File::create(ctx.work.join(format!("serve{rep}.log")))?);
    let daemon = Daemon::spawn(cmd)?;
    let deadline = Instant::now() + Duration::from_secs(20);
    let ep = loop {
        if let Ok(line) = fs::read_to_string(&ready) {
            if line.ends_with('\n') {
                break Endpoint::parse(line.trim()).map_err(io::Error::other)?;
            }
        }
        if Instant::now() > deadline {
            return Err(io::Error::other("daemon never became ready"));
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let mut ids = Vec::new();
    for id in WorkloadId::ALL {
        let body = fs::read(corpus_path(ctx, id))?;
        let resp = client::request(&ep, "POST", "/traces", &body)?;
        let tid = string_field(&resp.body, "id").filter(|_| resp.status == 200);
        if !out.check(tid.is_some(), "corpus upload") {
            return Err(io::Error::other(resp.body_text()));
        }
        ids.extend(tid);
    }
    Ok(Server { daemon, ep, ids })
}

fn shut_down(server: Server, out: &mut Outcome) -> io::Result<()> {
    let resp = client::request(&server.ep, "POST", "/shutdown", &[]);
    out.check(resp.is_ok_and(|r| r.status == 200), "shutdown accepted");
    let code = server.daemon.wait()?;
    out.check(code == Some(0), "daemon drained and exited 0");
    Ok(())
}

/// Reference bodies from `paragraph analyze` for every trace and config,
/// and the text uploads rendered from the first traces' records.
fn references(ctx: &Ctx, ids: Vec<String>, out: &mut Outcome) -> io::Result<(Refs, Vec<Corpus>)> {
    let (mut bodies, mut records, mut all) = (vec![], vec![], vec![]);
    let json = ctx.work.join("ref.json");
    let text = ctx.work.join("ref.txt");
    for id in WorkloadId::ALL {
        let path = corpus_path(ctx, id);
        let mut per_config = Vec::new();
        for (_, flags) in CONFIGS {
            let mut cmd = Command::new(&ctx.paragraph);
            cmd.arg("analyze")
                .arg("--trace")
                .arg(&path)
                .args(flags)
                .arg("--json")
                .arg(&json);
            let run = measure::run(cmd, Stdio::from(File::create(&text)?), None)?;
            if !out.check(run.ok(), "reference analyze") {
                return Err(io::Error::other(run.stderr));
            }
            per_config.push((fs::read(&json)?, fs::read(&text)?));
        }
        bodies.push(per_config);
        let (recs, segments) = read_all(&path)?;
        records.push(recs.len() as u64);
        out.trace_bytes += fs::metadata(&path)?.len();
        all.push((recs, segments));
    }
    let texts = all
        .iter()
        .take(2)
        .map(|(recs, segments)| {
            let n = recs.len().min(TEXT_RECORDS);
            render_trace(&recs[..n], *segments).into_bytes()
        })
        .collect();
    Ok((
        Refs {
            ids,
            records,
            bodies,
            texts,
        },
        all,
    ))
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let epoch = Instant::now();
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        ctx.calib.sample();
        let t = Instant::now();
        let s = set_up(ctx, rep, &mut out)?;
        setup.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            shut_down(s, &mut out)?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("SETUP_REPS is at least one");
    let (refs, corpus) = references(ctx, server.ids.clone(), &mut out)?;
    if refs.texts.len() != 2 || refs.texts.iter().any(|t| t.is_empty()) {
        return Err(io::Error::other("corpus too small for text uploads"));
    }
    out.records = refs.records.iter().sum();
    out.count("corpus_records", out.records);
    out.count("corpus_bytes", out.trace_bytes);

    let mut rng = Rng(ctx.seed ^ 0x0005_e12e_d00d);
    let (warm, _) = phase(&server.ep, &refs, WARMUP_S, &mut rng, None);
    for s in &warm {
        out.check(s.ok, &format!("warm-up {} request", s.route.name()));
    }
    let cpu0 = server.daemon.cpu_s()?;
    let (samples, wall) = phase(&server.ep, &refs, ctx.seconds, &mut rng, Some(&ctx.calib));
    let cpu = server.daemon.cpu_s()? - cpu0;
    let rss = server.daemon.peak_rss_mb()?;
    let health = client::request(&server.ep, "GET", "/healthz", &[])?.body;
    for s in &samples {
        out.check(
            s.ok,
            &format!("{} request (status {})", s.route.name(), s.status),
        );
    }
    let answered_200 = samples.iter().filter(|s| s.status == 200).count();
    out.count("requests", samples.len() as u64);
    out.count("requests_200", answered_200 as u64);
    for (name, key) in HEALTH_COUNTERS {
        out.count(key, field(&health, name).unwrap_or(u64::MAX));
    }
    shut_down(server, &mut out)?;

    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let lat_ms: Vec<f64> = ok.iter().map(|s| s.latency_s * 1e3).collect();
    if ctx.traced {
        return traced(ctx, out, &refs, &corpus, &samples, epoch);
    }
    // Throughput of the daemon's own work: records analyzed ÷ the summed
    // service time of the requests that analyze them (one-shot analyses
    // and every session step). The offered rate does not enter it.
    let analyzed: u64 = ok.iter().map(|s| s.records).sum();
    let analysis_s: f64 = ok
        .iter()
        .filter(|s| !matches!(s.route, Route::Upload | Route::Healthz))
        .map(|s| s.service_s)
        .sum();
    out.metrics
        .insert("records_per_s", analyzed as f64 / analysis_s);
    out.metrics.insert("latency_p50_ms", median(&lat_ms));
    out.metrics.insert("cpu_s", cpu);
    out.metrics.insert("peak_rss_mb", rss);
    out.metrics.insert("setup_s", median(&setup));
    if let Some((label, v)) = tail(&lat_ms) {
        out.extra(format!("latency_{label}_ms"), v, "ms");
    }
    out.extra("requests", samples.len() as f64, "count");
    // How close the two workers are to saturation at the offered rates.
    let served_s: f64 = ok.iter().map(|s| s.service_s).sum();
    out.extra(
        "daemon_busy_share",
        served_s / (WORKERS as f64 * wall),
        "ratio",
    );
    out.extra("daemon_cpu_share", cpu / (WORKERS as f64 * wall), "ratio");
    let lags: Vec<f64> = samples.iter().map(|s| s.lag_s * 1e3).collect();
    out.extra("generator_lag_ms_p90", quantile(&lags, 0.9), "ms");
    Ok(out)
}

/// In-process pass over the corpus through the layers a request uses.
fn pass(refs: &Refs, corpus: &[Corpus], ctx: &Ctx, t: &mut Tracer) -> io::Result<(u64, Metrics)> {
    let start = Instant::now();
    let mut m = Metrics::new();
    let total: u64 = refs.records.iter().sum();
    let mut bytes = 0u64;
    let mut blocks = 0u64;
    for id in WorkloadId::ALL {
        let path = corpus_path(ctx, id);
        let source = t.span("source", |_| TraceSource::auto_file(&path))?;
        let data = source
            .shared_bytes()
            .ok_or_else(|| io::Error::other("not mapped"))?;
        std::hint::black_box(t.span("crc", |_| crc32::crc32(data.as_ref())));
        bytes += data.as_ref().len() as u64;
        let mut reader = TraceReader::from_source(source).map_err(trace_err)?;
        blocks += t.span("decode", |_| decode_blocks(&mut reader))?;
    }
    let mut peak = 0usize;
    let mut ingested = 0u64;
    for (i, (recs, segments)) in corpus.iter().enumerate() {
        let mut well = LiveWell::new(AnalysisConfig::dataflow_limit().with_segments(*segments));
        t.span("livewell", |_| well.process_slice(recs));
        peak = peak.max(well.peak_live_values());
        let report = t.span("report.finish", |_| well.finish());
        let json = t.span("report.json", |_| report.to_json());
        let text = t.span("report.text", |_| render_report_text(&report));
        if json.as_bytes() != refs.bodies[i][0].0 || text.as_bytes() != refs.bodies[i][0].1 {
            return Err(io::Error::other("in-process report differs from the CLI's"));
        }
    }
    for body in &refs.texts {
        let mut gov = ResourceGovernor::new(Limits::strict());
        let stats = t
            .span("ingest", |_| {
                ingest_text(body.as_slice(), io::sink(), &mut gov)
            })
            .map_err(|e| io::Error::other(e.to_string()))?;
        ingested += stats.records;
    }
    let reports = corpus.len() as f64;
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    m.insert(
        "source.open_ms",
        t.total_ns("source") as f64 / 1e6 / reports,
    );
    m.insert("crc.ns_per_record", per(t.total_ns("crc"), total));
    m.insert("decode.ns_per_record", per(t.total_ns("decode"), total));
    m.insert(
        "decode.bytes_per_record",
        bytes as f64 / total.max(1) as f64,
    );
    m.insert("decode.blocks", blocks as f64);
    m.insert("livewell.ns_per_record", per(t.total_ns("livewell"), total));
    m.insert("livewell.peak_live_values", peak as f64);
    m.insert(
        "report.finish_ms",
        t.total_ns("report.finish") as f64 / 1e6 / reports,
    );
    m.insert(
        "report.json_ms",
        t.total_ns("report.json") as f64 / 1e6 / reports,
    );
    m.insert(
        "report.text_ms",
        t.total_ns("report.text") as f64 / 1e6 / reports,
    );
    m.insert(
        "report.json_bytes",
        refs.bodies.iter().map(|b| b[0].0.len() as f64).sum::<f64>() / reports,
    );
    m.insert("ingest.ns_per_record", per(t.total_ns("ingest"), ingested));
    Ok((start.elapsed().as_nanos() as u64, m))
}

fn traced(
    ctx: &Ctx,
    mut out: Outcome,
    refs: &Refs,
    corpus: &[Corpus],
    samples: &[Sample],
    epoch: Instant,
) -> io::Result<Outcome> {
    let mut last = traced_passes(&mut out, epoch, PASS_BUDGET_S, |t| {
        pass(refs, corpus, ctx, t)
    });
    // Client-side spans of the measured requests, one per request id.
    for (i, s) in samples.iter().enumerate() {
        last.record(s.route.name(), s.start, s.done, i as u64 + 1);
    }
    for (route, p50_name, p90_name) in [
        (Route::Upload, "serve.upload_ms_p50", "serve.upload_ms_p90"),
        (
            Route::Analyze,
            "serve.analyze_ms_p50",
            "serve.analyze_ms_p90",
        ),
        (
            Route::SessionAdvance,
            "serve.session_advance_ms_p50",
            "serve.session_advance_ms_p90",
        ),
        (
            Route::SessionFinish,
            "serve.session_finish_ms_p50",
            "serve.session_finish_ms_p90",
        ),
        (
            Route::Healthz,
            "serve.healthz_ms_p50",
            "serve.healthz_ms_p90",
        ),
    ] {
        let lat: Vec<f64> = samples
            .iter()
            .filter(|s| s.ok && s.route == route)
            .map(|s| s.latency_s * 1e3)
            .collect();
        // A p90 needs at least 100 samples; below that it is not reported.
        if !lat.is_empty() {
            out.metrics.insert(p50_name, median(&lat));
        }
        if lat.len() >= 100 {
            out.metrics.insert(p90_name, quantile(&lat, 0.9));
        }
    }
    let lags: Vec<f64> = samples.iter().map(|s| s.lag_s * 1e3).collect();
    out.metrics
        .insert("serve.generator_lag_ms", quantile(&lags, 0.9));
    for (metric, counter) in [
        ("serve.sessions_evicted", "serve_sessions_evicted"),
        ("serve.sessions_resumed", "serve_sessions_resumed"),
    ] {
        if let Some(&v) = out.counters.get(counter) {
            out.metrics.insert(metric, v as f64);
        }
    }
    finish_traced(ctx, &mut out, &last)?;
    Ok(out)
}
