//! Process measurement and summary statistics.
//!
//! A child's CPU time and peak RSS come from `wait4(2)`'s rusage, which
//! std does not expose; a daemon's come from `/proc/<pid>` while it runs.

use std::fs;
use std::io::{self, BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which only `ru_maxrss` (the first) is read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// How one program process ran.
#[derive(Debug, Clone)]
pub struct ProcRun {
    /// Spawn to reap.
    pub wall_s: f64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// Exit code; `None` when killed by a signal.
    pub code: Option<i32>,
    /// Spawn to the first stderr line starting with `stderr_mark`.
    pub first_mark_s: Option<f64>,
    /// Everything the process wrote to stderr.
    pub stderr: String,
}

impl ProcRun {
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

/// Reaps `pid`, returning its raw wait status and rusage.
fn reap(pid: u32) -> io::Result<(i32, Rusage)> {
    let pid = i32::try_from(pid).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // wait4(2) expects (`int` and 64-bit Linux `struct rusage`); `pid`
        // is a child of this process that nothing else reaps.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((status, usage));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

fn exit_code(status: i32) -> Option<i32> {
    (status & 0x7f == 0).then_some((status >> 8) & 0xff)
}

/// Runs `cmd` to completion with stdout sent to `stdout` and stderr
/// captured. When `stderr_mark` is given, the time of the first stderr
/// line starting with it is recorded.
pub fn run(mut cmd: Command, stdout: Stdio, stderr_mark: Option<&str>) -> io::Result<ProcRun> {
    cmd.stdin(Stdio::null())
        .stdout(stdout)
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let pipe = child
        .stderr
        .take()
        .expect("stderr was configured as a pipe");
    let mark = stderr_mark.map(str::to_owned);
    let reader = std::thread::spawn(move || {
        let mut first = None;
        let mut text = String::new();
        let mut lines = BufReader::new(pipe);
        let mut line = String::new();
        while lines.read_line(&mut line).unwrap_or(0) > 0 {
            if first.is_none() && mark.as_deref().is_some_and(|m| line.starts_with(m)) {
                first = Some(start.elapsed().as_secs_f64());
            }
            text.push_str(&line);
            line.clear();
        }
        (first, text)
    });
    let reaped = reap(child.id());
    let wall_s = start.elapsed().as_secs_f64();
    let (first_mark_s, stderr) = reader.join().expect("stderr reader thread panicked");
    let (status, usage) = reaped?;
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(ProcRun {
        wall_s,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        code: exit_code(status),
        first_mark_s,
        stderr,
    })
}

/// A spawned long-running program process (the daemon). Killed and reaped
/// on drop unless [`Daemon::wait`] reaped it first.
pub struct Daemon {
    child: Option<Child>,
}

impl Daemon {
    pub fn spawn(mut cmd: Command) -> io::Result<Daemon> {
        cmd.stdin(Stdio::null()).stdout(Stdio::null());
        Ok(Daemon {
            child: Some(cmd.spawn()?),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// User + system CPU seconds so far, from `/proc/<pid>/stat`.
    pub fn cpu_s(&self) -> io::Result<f64> {
        let stat = fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| io::Error::other("short /proc stat line"))
        };
        // SAFETY: sysconf only reads a configuration value;
        // _SC_CLK_TCK is 2 on Linux.
        let hz = unsafe { sysconf(2) }.max(1) as f64;
        Ok((ticks(11)? + ticks(12)?) / hz)
    }

    /// Peak resident set in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Reaps the process; returns its exit code.
    pub fn wait(mut self) -> io::Result<Option<i32>> {
        match self.child.take() {
            Some(child) => Ok(exit_code(reap(child.id())?.0)),
            None => Ok(None),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = reap(child.id());
        }
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks. `values` need not be sorted.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p99/p90/p50 that has at least ten samples beyond it,
/// as `(label, value)`; `None` below twenty samples.
pub fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    let n = values.len();
    [("p99", 99), ("p90", 90), ("p50", 50)]
        .into_iter()
        .find(|&(_, pct)| n * (100 - pct) / 100 >= 10)
        .map(|(label, pct)| (label, quantile(values, pct as f64 / 100.0)))
}
