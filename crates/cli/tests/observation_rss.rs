//! Observing a run must not change it: every sequential `analyze` flag
//! that checkpoints, reports progress, logs telemetry, recovers or windows
//! the stream leaves the report bytes and the peak memory of a plain run.
//!
//! Peak RSS is the child's `ru_maxrss`, read through `wait4(2)`. The trace
//! has 600,000 records: enough that a run holding the decoded trace
//! (96 B per record, ~55 MB) cannot hide inside the bound. The
//! materializing `analyze` path the streaming engine replaced did exactly
//! that for every flag here: on a 2-core Linux VM its `--checkpoint-every`
//! and `--progress` runs peaked at ~65 MB against ~12 MB for the plain
//! run, failing this test.
#![cfg(target_os = "linux")]

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const RECORDS: usize = 600_000;
/// Peak RSS allowed over the plain run: a ratio plus fixed slack for
/// buffers that do not grow with the trace.
const RSS_RATIO: f64 = 1.2;
const RSS_SLACK_MB: f64 = 8.0;

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which only `ru_maxrss` (the first, in KiB) is read.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

struct Run {
    stdout: Vec<u8>,
    json: Vec<u8>,
    peak_rss_mb: f64,
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("paragraph-rss-{}-{name}", std::process::id()))
}

/// Runs `paragraph analyze --trace TRACE --json OUT ARGS`, reaping the
/// child with `wait4` to read its peak RSS.
fn analyze(trace: &Path, tag: &str, args: &[&str]) -> Run {
    let (out, json) = (
        scratch(&format!("{tag}.out")),
        scratch(&format!("{tag}.json")),
    );
    // Reaped by `wait4` below, which std's `wait` would race.
    #[allow(clippy::zombie_processes)]
    let child = Command::new(env!("CARGO_BIN_EXE_paragraph"))
        .arg("analyze")
        .arg("--trace")
        .arg(trace)
        .arg("--json")
        .arg(&json)
        .args(args)
        .stdout(File::create(&out).expect("stdout file"))
        .stderr(Stdio::null())
        .spawn()
        .expect("failed to spawn the paragraph binary");
    let pid = i32::try_from(child.id()).expect("pid fits i32");
    let mut status = 0i32;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are live, writable and laid out as
    // wait4(2) expects on 64-bit Linux; `pid` is our child, reaped only
    // here (`child` is never waited on).
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    assert_eq!(
        reaped,
        pid,
        "wait4 failed: {}",
        std::io::Error::last_os_error()
    );
    assert_eq!(
        status, 0,
        "analyze {args:?} failed with wait status {status}"
    );
    let run = Run {
        stdout: fs::read(&out).expect("stdout"),
        json: fs::read(&json).expect("report json"),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    };
    let _ = fs::remove_file(&out);
    let _ = fs::remove_file(&json);
    run
}

#[test]
fn observation_flags_change_neither_output_nor_peak_memory() {
    // The trace is written by a child too: `ru_maxrss` counts the memory
    // a child is forked with, so this process must stay small.
    let trace = scratch("trace.pgtr");
    let written = Command::new(env!("CARGO_BIN_EXE_paragraph"))
        .args([
            "trace",
            "--workload",
            "matrix300",
            "--fuel",
            &RECORDS.to_string(),
        ])
        .arg("--out")
        .arg(&trace)
        .output()
        .expect("failed to spawn the paragraph binary");
    assert!(written.status.success(), "trace capture failed");

    let plain = analyze(&trace, "plain", &[]);
    let again = analyze(&trace, "plain-again", &[]);
    let base_mb = plain.peak_rss_mb.max(again.peak_rss_mb);
    let bound = base_mb * RSS_RATIO + RSS_SLACK_MB;

    let (every, half) = (scratch("every.pgcp"), scratch("half.pgcp"));
    let (log, metrics) = (scratch("log.jsonl"), scratch("metrics.prom"));
    let path = |p: &PathBuf| p.to_str().expect("utf-8 path").to_owned();
    let flag = |args: &[&str]| args.iter().map(|a| a.to_string()).collect::<Vec<_>>();
    // (flags, whether the report must equal the plain one)
    let runs = [
        (
            flag(&[
                "--checkpoint-every",
                "100000",
                "--checkpoint",
                &path(&every),
            ]),
            true,
        ),
        (flag(&["--progress=0"]), true),
        (flag(&["--telemetry-out", &path(&log)]), true),
        (flag(&["--metrics-out", &path(&metrics)]), true),
        (flag(&["--recover"]), true),
        (flag(&["--skip", "0"]), true),
        (flag(&["--take", &RECORDS.to_string()]), true),
        // An interrupted run, then its resumption.
        (
            flag(&[
                "--take",
                "300000",
                "--checkpoint-every",
                "300000",
                "--checkpoint",
                &path(&half),
            ]),
            false,
        ),
        (flag(&["--resume", &path(&half)]), true),
    ];
    let mut failures = Vec::new();
    for (i, (flags, same_report)) in runs.iter().enumerate() {
        let args: Vec<&str> = flags.iter().map(String::as_str).collect();
        let run = analyze(&trace, &format!("run{i}"), &args);
        if *same_report && (run.stdout != plain.stdout || run.json != plain.json) {
            failures.push(format!("{flags:?} changed the report"));
        }
        if run.peak_rss_mb > bound {
            failures.push(format!("{flags:?} peaked at {:.1} MB", run.peak_rss_mb));
        }
    }
    assert!(
        failures.is_empty(),
        "plain run {base_mb:.1} MB, bound {bound:.1} MB: {failures:#?}"
    );
    for file in [&trace, &every, &half, &log, &metrics] {
        let _ = fs::remove_file(file);
    }
}
