//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by up
//! to ~2x over minutes, CPU time included: a neighbour on the same
//! physical core or cache slows every instruction. That drift is the
//! same for the program and for any fixed code run next to it. So the
//! harness samples a fixed kernel, part of the harness and never of the
//! program, between the program's timed runs, and reports each timing
//! scaled to the speed at which the kernel takes its reference time. A
//! change to the program moves the scaled figures exactly as it moves the
//! raw ones; a change of host speed moves both the program and the kernel.
//!
//! The kernel's speed is read from its CPU time, not its wall time: CPU
//! time does not count the time the kernel waits for a processor, so a
//! sample that overlaps other work on the machine (a daemon's workers,
//! the harness's own threads) still reads the host's speed.
//!
//! The kernel runs on two threads, as the program does (decode-ahead,
//! two sweep jobs, two daemon workers): each mixes integer hashing,
//! read-modify-writes at random places in a 1 MiB table and a
//! data-dependent branch. The table fits the per-core L2 cache. A kernel
//! whose 32 MiB table spilled to the shared L3 tracked the program worse
//! than no scaling at all: it reacted to neighbours' cache traffic far
//! more than the program does.

use crate::measure::median;
use std::sync::Mutex;
use std::time::Instant;

/// Kernel iterations per thread per sample: ~40 ms on the reference host.
const ITERS: u64 = 6_000_000;
/// Table words per thread (1 MiB).
const TABLE_WORDS: usize = 1 << 17;
/// The kernel's median summed thread CPU time per sample on the reference
/// host, a 2-vCPU Xeon (Sapphire Rapids) KVM guest. Reported timings are
/// scaled to this speed.
const REF_CPU_S: f64 = 0.075;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time of the calling thread, seconds.
fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a valid constant.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One thread's kernel state, allocated and touched once so that no
/// sample pays for page faults.
struct Lane {
    table: Vec<u64>,
    acc: u64,
}

impl Lane {
    fn new(k: u64) -> Lane {
        Lane {
            table: (0..TABLE_WORDS as u64).map(|i| mix(i ^ k)).collect(),
            acc: k,
        }
    }

    /// Runs the kernel once; returns the thread's CPU seconds.
    fn run(&mut self) -> f64 {
        let cpu = thread_cpu_s();
        let mask = TABLE_WORDS as u64 - 1;
        let (mut x, mut s) = (self.acc, 0u64);
        for i in 0..ITERS {
            x = mix(x ^ i);
            let j = (x & mask) as usize;
            s = s.wrapping_add(self.table[j]);
            self.table[j] = x ^ s;
            if s & 0x80 != 0 {
                s = s.rotate_left(7);
            } else {
                s ^= x >> 17;
            }
        }
        self.acc = std::hint::black_box(s);
        thread_cpu_s() - cpu
    }
}

/// Kernel samples taken over one run.
pub struct Calib {
    lanes: Mutex<[Lane; 2]>,
    samples: Mutex<Vec<f64>>,
}

impl Calib {
    pub fn new() -> Calib {
        Calib {
            lanes: Mutex::new([Lane::new(1), Lane::new(2)]),
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Samples the kernel before a program run that last took `run_wall_s`:
    /// at least once, and until the kernel has run for an eighth of that,
    /// so that a run with few long program runs still gets enough samples.
    pub fn sample_beside(&self, run_wall_s: f64) {
        let start = Instant::now();
        loop {
            self.sample();
            if start.elapsed().as_secs_f64() * 8.0 >= run_wall_s {
                return;
            }
        }
    }

    /// Runs the kernel once on two threads and records their summed CPU
    /// time.
    pub fn sample(&self) {
        let mut lanes = self.lanes.lock().expect("no calibration sample panicked");
        let cpu: f64 = std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .iter_mut()
                .map(|lane| scope.spawn(move || lane.run()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration kernel panicked"))
                .sum()
        });
        self.samples
            .lock()
            .expect("no calibration sample panicked")
            .push(cpu);
    }

    /// How much slower than the reference host this run's host was: the
    /// kernel's median CPU time over the reference. Divide a duration by
    /// it to scale the duration to the reference speed.
    pub fn slowness(&self) -> f64 {
        let samples = self.samples.lock().expect("no calibration sample panicked");
        median(&samples) / REF_CPU_S
    }

    pub fn count(&self) -> usize {
        self.samples
            .lock()
            .expect("no calibration sample panicked")
            .len()
    }
}
