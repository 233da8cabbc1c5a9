//! The streaming analysis engine: one [`LiveWell`] and every per-run
//! policy around it, with no I/O of its own.
//!
//! Callers (the CLI's `analyze`, the daemon's one-shot deadline path and
//! its sessions) push blocks of records with [`Engine::feed`], which
//! consumes records up to the next due event — a checkpoint, a heartbeat
//! beat, the deadline, the end of the `take` window — and returns it. The
//! caller acts on the event and feeds the rest of the block; files,
//! stderr, sinks and the clock stay with the caller.
//!
//! The engine also hashes the stream and embeds its [`TraceIdentity`] at
//! the save point in every checkpoint. A resumed engine re-reads the
//! records its checkpoint analyzed, without placing them, and checks their
//! identity at the save point. A version-2 identity names the whole trace:
//! its prefix is checked once read, its length at [`Engine::end`].
//!
//! ```
//! use paragraph_core::engine::{Engine, Policy, Step};
//! use paragraph_core::{AnalysisConfig, LiveWell};
//! use paragraph_trace::synthetic;
//!
//! let trace = synthetic::random_trace(10_000, 1);
//! let policy = Policy { checkpoint_every: Some(4_000), ..Policy::default() };
//! let mut engine = Engine::new(LiveWell::new(AnalysisConfig::dataflow_limit()), policy);
//! let (mut saves, mut rest) = (Vec::new(), &trace[..]);
//! loop {
//!     match engine.feed(&mut rest).unwrap() {
//!         Step::Drained => break,
//!         Step::Checkpoint => saves.push(Vec::new()),
//!         _ => continue,
//!     }
//!     engine.save_checkpoint(saves.last_mut().unwrap()).unwrap();
//! }
//! engine.end().unwrap();
//! assert_eq!(saves.len(), 2);
//! assert_eq!(engine.into_analyzer().finish().total_records(), 10_000);
//! ```

use crate::checkpoint::{CheckpointError, IdentityHasher, TraceIdentity, IDENTITY_PREFIX_RECORDS};
use crate::livewell::LiveWell;
use paragraph_trace::TraceRecord;
use std::io::Write;
use std::time::Duration;

/// Analyzed records between [`Step::Beat`] events; a power of two.
pub const BEAT_STRIDE: u64 = 1 << 16;

/// The caller's clock for a deadline: time elapsed since it started.
pub type Clock = Box<dyn Fn() -> Duration + Send>;

/// The per-run policies the engine enforces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Policy {
    /// Checkpoint whenever the analyzed record count reaches a multiple of
    /// this (`--checkpoint-every`).
    pub checkpoint_every: Option<u64>,
    /// Stream records dropped before anything else sees them (`--skip`).
    pub skip: u64,
    /// Records analyzed at most, resumed records included (`--take`).
    pub take: Option<u64>,
}

/// What [`Engine::feed`] stopped for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The block is consumed.
    Drained,
    /// A checkpoint is due: save with [`Engine::save_checkpoint`].
    Checkpoint,
    /// [`BEAT_STRIDE`] divides the analyzed record count.
    Beat,
    /// The deadline had passed when the call began; it consumed nothing.
    Deadline,
    /// The `take` window is full.
    WindowEnd,
}

/// What remains to check about the trace a resumed checkpoint came from.
#[derive(Debug, Clone, Copy)]
enum Verify {
    Done,
    /// A streaming identity, checked at the save point.
    SavePoint(TraceIdentity),
    /// A version-2 identity: the prefix once read, the length at the end.
    WholeTrace(TraceIdentity),
}

/// Pending-event bits, returned in this order.
const DUE_CHECKPOINT: u8 = 1;
const DUE_BEAT: u8 = 2;
const DUE_WINDOW_END: u8 = 4;

/// A sans-I/O analysis run. See the [module docs](self).
pub struct Engine {
    well: LiveWell,
    policy: Policy,
    deadline: Option<(Duration, Clock)>,
    skip_left: u64,
    /// Stream records seen after `skip`.
    pos: u64,
    /// Records the resumed checkpoint had analyzed.
    resume_at: u64,
    verify: Verify,
    hasher: IdentityHasher,
    /// Events due at `pos` not yet returned.
    due: u8,
    /// The identity at the end of the `take` window, when the engine reads
    /// on to count the stream for a version-2 check.
    window_identity: Option<TraceIdentity>,
}

impl Engine {
    /// An engine over `well`. A `well` resumed from a checkpoint expects
    /// the stream from its start: the engine re-reads the records it
    /// analyzed to check their identity, then places the rest.
    pub fn new(well: LiveWell, policy: Policy) -> Engine {
        let verify = match well.trace_identity() {
            Some(saved) if saved.sample_crc.is_none() => Verify::WholeTrace(saved),
            // A save point at record 0 leaves nothing to re-read or check.
            Some(saved) if well.records_processed() > 0 => Verify::SavePoint(saved),
            _ => Verify::Done,
        };
        Engine {
            resume_at: well.records_processed(),
            well,
            policy,
            deadline: None,
            skip_left: policy.skip,
            pos: 0,
            verify,
            hasher: IdentityHasher::default(),
            due: 0,
            window_identity: None,
        }
    }

    /// Sets or clears the deadline: a [`Engine::feed`] call that begins
    /// after `clock()` exceeds the limit returns [`Step::Deadline`].
    pub fn set_deadline(&mut self, deadline: Option<(Duration, Clock)>) {
        self.deadline = deadline;
    }

    /// Consumes records from the front of `block` up to the next due event
    /// and returns it; [`Step::Drained`] leaves `block` empty.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::TraceMismatch`] or
    /// [`CheckpointError::AheadOfInput`] for a resumed run.
    pub fn feed(&mut self, block: &mut &[TraceRecord]) -> Result<Step, CheckpointError> {
        if let Some(step) = self.pop_due() {
            return Ok(step);
        }
        if let (Some((limit, clock)), false) = (&self.deadline, block.is_empty()) {
            if clock() > *limit {
                return Ok(Step::Deadline);
            }
        }
        loop {
            let skipped = (self.skip_left as usize).min(block.len());
            self.skip_left -= skipped as u64;
            *block = &block[skipped..];
            if block.is_empty() {
                return Ok(Step::Drained);
            }
            if self.pos < self.resume_at {
                let n = ((self.resume_at - self.pos) as usize).min(block.len());
                self.consume(block, n, false);
                self.check(false)?;
                continue;
            }
            if self.policy.take.is_some_and(|take| self.pos >= take) {
                let Verify::WholeTrace(_) = self.verify else {
                    return Ok(Step::WindowEnd);
                };
                // Counting on for a version-2 identity, placing nothing.
                let identity = self.hasher.identity();
                self.window_identity.get_or_insert(identity);
                self.consume(block, block.len(), false);
                self.check(false)?;
                continue;
            }
            let next = |every: u64| (self.pos / every + 1) * every;
            let mut stop = (self.pos + block.len() as u64).min(next(BEAT_STRIDE));
            if let Some(every) = self.policy.checkpoint_every {
                stop = stop.min(next(every));
            }
            if let Some(take) = self.policy.take {
                stop = stop.min(take);
            }
            self.consume(block, (stop - self.pos) as usize, true);
            self.check(false)?;
            if let Some(step) = self.mark_due() {
                return Ok(step);
            }
        }
    }

    /// Hashes the first `n` records of `block`, places them when `place`,
    /// and advances past them.
    fn consume(&mut self, block: &mut &[TraceRecord], n: usize, place: bool) {
        let (head, rest) = block.split_at(n);
        self.hasher.update(head);
        if place {
            self.well.process_slice(head);
        }
        self.pos += n as u64;
        *block = rest;
    }

    /// Records the events due at `pos` and returns the first.
    fn mark_due(&mut self) -> Option<Step> {
        if let Some(every) = self.policy.checkpoint_every {
            if self.pos.is_multiple_of(every) {
                self.due |= DUE_CHECKPOINT;
            }
        }
        if self.pos.is_multiple_of(BEAT_STRIDE) {
            self.due |= DUE_BEAT;
        }
        if self.policy.take == Some(self.pos) && !matches!(self.verify, Verify::WholeTrace(_)) {
            self.due |= DUE_WINDOW_END;
        }
        self.pop_due()
    }

    fn pop_due(&mut self) -> Option<Step> {
        let (bit, step) = [
            (DUE_CHECKPOINT, Step::Checkpoint),
            (DUE_BEAT, Step::Beat),
            (DUE_WINDOW_END, Step::WindowEnd),
        ]
        .into_iter()
        .find(|(bit, _)| self.due & bit != 0)?;
        self.due &= !bit;
        Some(step)
    }

    /// The identity checks due at `pos`; `at_end` adds those that need the
    /// end of the stream. A streaming identity is checked on its prefix
    /// once read and whole at the save point, a version-2 identity on its
    /// prefix once read and its length at the end.
    fn check(&mut self, at_end: bool) -> Result<(), CheckpointError> {
        let mut current = self.hasher.identity();
        let prefix_read =
            |upto: u64| at_end || self.pos >= upto.min(IDENTITY_PREFIX_RECORDS as u64);
        let saved = match self.verify {
            Verify::SavePoint(saved) => {
                let at_save = at_end || self.pos == self.resume_at;
                let bad_prefix =
                    prefix_read(self.resume_at) && current.prefix_crc != saved.prefix_crc;
                (bad_prefix || (at_save && current != saved)).then_some(saved)
            }
            Verify::WholeTrace(saved) => {
                current.sample_crc = None;
                let bad_prefix = prefix_read(u64::MAX) && current.prefix_crc != saved.prefix_crc;
                (bad_prefix || (at_end && current.records != saved.records)).then_some(saved)
            }
            Verify::Done if at_end && self.pos < self.resume_at => {
                return Err(CheckpointError::AheadOfInput {
                    processed: self.resume_at,
                    available: self.pos,
                })
            }
            Verify::Done => None,
        };
        if let Some(saved) = saved {
            return Err(CheckpointError::TraceMismatch { saved, current });
        }
        if self.pos != self.resume_at || at_end {
            return Ok(());
        }
        if let Verify::SavePoint(_) = self.verify {
            self.verify = Verify::Done;
        }
        match self.policy.take {
            Some(take) if take < self.resume_at => Err(CheckpointError::AheadOfInput {
                processed: self.resume_at,
                available: take,
            }),
            _ => Ok(()),
        }
    }

    /// The checks that need the end of the stream. Call it when the input
    /// is exhausted or after [`Step::WindowEnd`], before reporting.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::TraceMismatch`] or
    /// [`CheckpointError::AheadOfInput`] when the stream ended before a
    /// resumed checkpoint's save point, or contradicts a version-2 length.
    pub fn end(&mut self) -> Result<(), CheckpointError> {
        self.check(true)
    }

    /// Saves the analyzer as a checkpoint carrying the identity of the
    /// stream up to the save point.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when `out` fails.
    pub fn save_checkpoint<W: Write>(&mut self, out: W) -> Result<(), CheckpointError> {
        let identity = self.window_identity.unwrap_or(self.hasher.identity());
        self.well.set_trace_identity(Some(identity));
        self.well.save_checkpoint(out)
    }

    /// The analyzer.
    pub fn analyzer(&self) -> &LiveWell {
        &self.well
    }

    /// Gives up the analyzer, to finish it or splice onto it.
    pub fn into_analyzer(self) -> LiveWell {
        self.well
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AnalysisConfig, WindowSize};
    use paragraph_trace::synthetic;
    use paragraph_trace::SegmentMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn config() -> AnalysisConfig {
        AnalysisConfig::dataflow_limit().with_window(WindowSize::bounded(512))
    }

    /// Feeds `trace` in blocks of `block` records; returns the events in
    /// order, the bytes of every checkpoint saved, and the report JSON.
    fn run(
        engine: &mut Engine,
        trace: &[TraceRecord],
        block: usize,
    ) -> Result<(Vec<Step>, Vec<Vec<u8>>), CheckpointError> {
        let (mut steps, mut saves) = (Vec::new(), Vec::new());
        'stream: for chunk in trace.chunks(block.max(1)) {
            let mut rest = chunk;
            loop {
                let step = engine.feed(&mut rest)?;
                match step {
                    Step::Drained => break,
                    Step::Checkpoint => {
                        let mut file = Vec::new();
                        engine.save_checkpoint(&mut file)?;
                        saves.push(file);
                    }
                    Step::WindowEnd => {
                        steps.push(step);
                        break 'stream;
                    }
                    _ => {}
                }
                steps.push(step);
            }
        }
        engine.end()?;
        Ok((steps, saves))
    }

    fn fresh(policy: Policy) -> Engine {
        Engine::new(LiveWell::new(config()), policy)
    }

    fn resumed(checkpoint: &[u8], policy: Policy) -> Engine {
        let well = LiveWell::resume_from(checkpoint, config()).expect("checkpoint loads");
        Engine::new(well, policy)
    }

    #[test]
    fn block_size_never_changes_reports_events_or_checkpoint_bytes() {
        let trace = synthetic::random_trace(150_000, 3);
        let policy = Policy {
            checkpoint_every: Some(20_000),
            ..Policy::default()
        };
        let mut reference = None;
        for block in [1, 7, 4096, trace.len()] {
            let mut engine = fresh(policy);
            let (steps, saves) = run(&mut engine, &trace, block).expect("clean run");
            let json = engine.into_analyzer().finish().to_json();
            assert_eq!(saves.len(), 7);
            assert_eq!(steps.iter().filter(|s| **s == Step::Beat).count(), 2);
            let outcome = (steps, saves, json);
            match &reference {
                None => reference = Some(outcome),
                Some(first) => assert!(*first == outcome, "block size {block} diverged"),
            }
        }
        let plain = crate::analyze_refs(&trace, &config()).to_json();
        assert_eq!(reference.map(|r| r.2), Some(plain));
    }

    #[test]
    fn skip_and_take_window_the_stream_and_resume_continues_it() {
        let trace = synthetic::random_trace(30_000, 4);
        let window = &trace[100..20_100];
        let take = Policy {
            checkpoint_every: Some(5_000),
            skip: 100,
            take: Some(12_000),
        };
        let mut first = fresh(take);
        let (steps, saves) = run(&mut first, &trace, 777).expect("windowed run");
        assert_eq!(steps.last(), Some(&Step::WindowEnd));
        assert_eq!(first.analyzer().records_processed(), 12_000);
        let mut last = Vec::new();
        first.save_checkpoint(&mut last).expect("final save");
        assert_eq!(saves.len(), 2);

        let rest = Policy {
            take: Some(20_000),
            ..take
        };
        let mut second = resumed(&last, rest);
        run(&mut second, &trace, 4096).expect("resumed run");
        let report = second.into_analyzer().finish().to_json();
        assert_eq!(report, crate::analyze_refs(window, &config()).to_json());
    }

    #[test]
    fn deadline_trips_only_at_a_block_boundary_and_keeps_progress() {
        let trace = synthetic::random_trace(700, 5);
        let calls = Arc::new(AtomicU64::new(0));
        let mut engine = fresh(Policy::default());
        let ticks = Arc::clone(&calls);
        // Every clock reading advances one millisecond; the tenth trips.
        engine.set_deadline(Some((
            Duration::from_millis(9),
            Box::new(move || Duration::from_millis(ticks.fetch_add(1, Ordering::Relaxed) + 1)),
        )));
        let mut tripped = None;
        for (i, chunk) in trace.chunks(7).enumerate() {
            let mut rest = chunk;
            match engine.feed(&mut rest).expect("fresh run") {
                Step::Drained => {}
                Step::Deadline => {
                    assert_eq!(rest.len(), chunk.len(), "a deadline consumes nothing");
                    assert_eq!(calls.load(Ordering::Relaxed), 10);
                    tripped = Some(i);
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(tripped, Some(9));
        assert_eq!(engine.analyzer().records_processed(), 63);
        // Progress survives: lift the deadline and finish the stream.
        engine.set_deadline(None);
        let mut rest = &trace[63..];
        assert_eq!(engine.feed(&mut rest).expect("continues"), Step::Drained);
        engine.end().expect("complete");
        assert_eq!(
            engine.into_analyzer().finish().to_json(),
            crate::analyze_refs(&trace, &config()).to_json()
        );
    }

    /// Saves a checkpoint of `trace[..at]` through an engine.
    fn checkpoint_at(trace: &[TraceRecord], at: usize) -> Vec<u8> {
        let mut engine = fresh(Policy::default());
        let mut head = &trace[..at];
        while engine.feed(&mut head).expect("fresh run") != Step::Drained {}
        let mut file = Vec::new();
        engine.save_checkpoint(&mut file).expect("save");
        file
    }

    #[test]
    fn resume_rejects_a_trace_differing_at_a_sampled_record() {
        let trace = synthetic::random_trace(12_000, 6);
        let saved = checkpoint_at(&trace, 10_000);
        let resumed_well = LiveWell::resume_from(saved.as_slice(), config()).expect("loads");
        let identity = resumed_well
            .trace_identity()
            .expect("engine saves identify");
        assert_eq!(identity, TraceIdentity::of_records(&trace[..10_000]));

        // Same first 4096 records; record 8192, a sampled one, differs.
        let mut other = trace.clone();
        other[8192] = synthetic::random_trace(1, 99)[0];
        assert_ne!(other[8192], trace[8192]);
        let mut engine = resumed(&saved, Policy::default());
        let err = run(&mut engine, &other, 4096).expect_err("wrong trace");
        assert!(
            matches!(err, CheckpointError::TraceMismatch { .. }),
            "{err}"
        );
        assert_eq!(
            engine.analyzer().records_processed(),
            10_000,
            "nothing placed"
        );

        // The right trace resumes to the uninterrupted answer.
        let mut engine = resumed(&saved, Policy::default());
        run(&mut engine, &trace, 4096).expect("right trace");
        assert_eq!(
            engine.into_analyzer().finish().to_json(),
            crate::analyze_refs(&trace, &config()).to_json()
        );
    }

    #[test]
    fn a_checkpoint_at_record_zero_resumes_over_any_stream() {
        let trace = synthetic::random_trace(500, 9);
        let mut engine = resumed(&checkpoint_at(&trace, 0), Policy::default());
        run(&mut engine, &trace, 100).expect("nothing to check");
        assert_eq!(engine.analyzer().records_processed(), 500);
    }

    #[test]
    fn resume_rejects_a_stream_ending_before_the_save_point() {
        let trace = synthetic::random_trace(6_000, 7);
        let saved = checkpoint_at(&trace, 5_000);
        let mut engine = resumed(&saved, Policy::default());
        let err = run(&mut engine, &trace[..4_500], 1000).expect_err("short stream");
        assert!(
            matches!(err, CheckpointError::TraceMismatch { .. }),
            "{err}"
        );
        let mut engine = resumed(
            &saved,
            Policy {
                take: Some(4_000),
                ..Policy::default()
            },
        );
        let err = run(&mut engine, &trace, 1000).expect_err("window before the save point");
        assert!(matches!(err, CheckpointError::AheadOfInput { .. }), "{err}");
    }

    #[test]
    fn a_window_ending_at_the_resume_point_only_checks_the_stream() {
        // How a caller that places records itself (`--jobs`) checks a
        // resumed stream: the engine re-reads up to the save point, places
        // nothing, and hands the analyzer back positioned after it.
        let trace = synthetic::random_trace(9_000, 8);
        let saved = checkpoint_at(&trace[50..], 3_000);
        let policy = Policy {
            skip: 50,
            take: Some(3_000),
            ..Policy::default()
        };
        let mut engine = resumed(&saved, policy);
        let (steps, saves) = run(&mut engine, &trace, 4096).expect("matching trace");
        assert_eq!((steps, saves.len()), (vec![Step::WindowEnd], 0));
        let mut well = engine.into_analyzer();
        assert_eq!(well.records_processed(), 3_000);
        well.process_slice(&trace[3_050..]);
        assert_eq!(
            well.finish().to_json(),
            crate::analyze_refs(&trace[50..], &config()).to_json()
        );
        let mut engine = resumed(&saved, policy);
        assert!(
            run(&mut engine, &trace[1..], 4096).is_err(),
            "shifted stream"
        );
    }

    /// A version-2 checkpoint written by the CLI before the streaming
    /// identity existed: `analyze --take 3000 --checkpoint-every 3000`
    /// over `synthetic::random_trace(6000, 42)` written with the default
    /// segment map. Its identity names the whole 6000-record trace.
    const V2_CHECKPOINT: &[u8] = include_bytes!("../tests/data/random-6000-42.v2.pgcp");

    fn v2_config() -> AnalysisConfig {
        AnalysisConfig::dataflow_limit().with_segments(SegmentMap::default())
    }

    fn v2_engine(take: Option<u64>) -> Engine {
        let well = LiveWell::resume_from(V2_CHECKPOINT, v2_config()).expect("v2 loads");
        let identity = well.trace_identity().expect("v2 identity");
        assert_eq!(identity.sample_crc, None);
        assert_eq!(identity.records, 6_000);
        assert_eq!(well.records_processed(), 3_000);
        let policy = Policy {
            take,
            ..Policy::default()
        };
        Engine::new(well, policy)
    }

    #[test]
    fn version_2_checkpoints_resume_and_verify() {
        assert_eq!(V2_CHECKPOINT[4], 2);
        let trace = synthetic::random_trace(6_000, 42);
        let mut engine = v2_engine(None);
        run(&mut engine, &trace, 1000).expect("matching trace");
        assert_eq!(
            engine.into_analyzer().finish().to_json(),
            crate::analyze_refs(&trace, &v2_config()).to_json()
        );
        // Same prefix, different length: caught at the end of the stream.
        let err = run(&mut v2_engine(None), &trace[..5_000], 1000).expect_err("short");
        assert!(
            matches!(err, CheckpointError::TraceMismatch { .. }),
            "{err}"
        );
        // Different prefix: caught once the prefix has been read.
        let other = synthetic::random_trace(6_000, 43);
        let mut engine = v2_engine(None);
        let mut rest = &other[..4_096];
        let err = engine.feed(&mut rest).expect_err("wrong prefix");
        assert!(
            matches!(err, CheckpointError::TraceMismatch { .. }),
            "{err}"
        );
        // A window ending at the save point, as `analyze --jobs` uses
        // to check a resumed stream, still reads on for the length.
        let (steps, _) = run(&mut v2_engine(Some(3_000)), &trace, 1000).expect("matching");
        assert!(steps.is_empty(), "{steps:?}");
        let err = run(&mut v2_engine(Some(3_000)), &trace[..5_000], 1000).expect_err("short");
        assert!(
            matches!(err, CheckpointError::TraceMismatch { .. }),
            "{err}"
        );
        // A re-save is a version-3 streaming checkpoint.
        let mut engine = v2_engine(None);
        let mut rest = &trace[..4_000];
        while engine.feed(&mut rest).expect("matching") != Step::Drained {}
        let mut file = Vec::new();
        engine.save_checkpoint(&mut file).expect("save");
        assert_eq!(file[4], crate::checkpoint::VERSION);
        let resaved = LiveWell::resume_from(file.as_slice(), v2_config()).expect("loads");
        assert_eq!(
            resaved.trace_identity(),
            Some(TraceIdentity::of_records(&trace[..4_000]))
        );
    }
}
