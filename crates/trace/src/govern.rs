//! Resource governors for untrusted input.
//!
//! Every byte-consuming entry point in the toolkit — the trace decoder, the
//! resync reader, the checkpoint loader, the text-trace ingester, the asm
//! parser — can be handed bytes produced by software we do not control. A
//! hostile (or merely buggy) producer must not be able to make the process
//! allocate unbounded memory, spin forever, or panic. The
//! [`ResourceGovernor`] is the single knob for all of those: it carries hard
//! caps on record counts, per-allocation sizes, declared lengths, cumulative
//! decode bytes, and wall-clock time, and every violation surfaces as a
//! typed [`LimitViolation`] rather than an abort.
//!
//! The cardinal rule the governor enforces: **check a declared length
//! against the cap before allocating for it.** A checkpoint that *declares*
//! a four-gigabyte live well is rejected while it is still just an eight-byte
//! varint.
//!
//! Defaults are generous — far above anything the paper's ten workloads
//! produce — so trusted pipelines never notice the governor. Operators can
//! tighten (or loosen) every limit via `PARAGRAPH_MAX_*` environment
//! variables; see [`Limits::from_env`].

use std::fmt;
use std::time::{Duration, Instant};

/// Hard resource caps applied while decoding untrusted input.
///
/// Construct with [`Limits::default`] (generous), [`Limits::strict`]
/// (tight, for fuzzing), or [`Limits::from_env`] (defaults plus operator
/// overrides), then adjust fields directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of records the reader will deliver.
    pub max_records: u64,
    /// Maximum size, in bytes, of any single buffer allocated on behalf of
    /// the input (chunk payloads, checkpoint bodies, text lines).
    pub max_alloc_bytes: u64,
    /// Maximum value accepted for any declared length field (chunk payload
    /// length, varint-encoded counts, string/line lengths) before the
    /// bytes it describes are read.
    pub max_declared_len: u64,
    /// Cumulative budget, in bytes, of input the decoder may consume. This
    /// also bounds resync scanning through garbage regions.
    pub max_decode_bytes: u64,
    /// Optional wall-clock budget for the whole decode.
    pub deadline: Option<Duration>,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_records: 1 << 40,
            max_alloc_bytes: 1 << 31,
            max_declared_len: 1 << 28,
            max_decode_bytes: 1 << 42,
            deadline: None,
        }
    }
}

impl Limits {
    /// Tight limits for fuzzing and adversarial tests: small allocations,
    /// few records, a short deadline. A fuzz case that would OOM or hang a
    /// default-governed reader fails fast and typed under these.
    pub fn strict() -> Limits {
        Limits {
            max_records: 1 << 16,
            max_alloc_bytes: 1 << 20,
            max_declared_len: 1 << 20,
            max_decode_bytes: 1 << 22,
            deadline: Some(Duration::from_secs(5)),
        }
    }

    /// Default limits with operator overrides applied from the environment.
    ///
    /// Recognized variables (all optional, all plain decimal):
    ///
    /// * `PARAGRAPH_MAX_RECORDS`
    /// * `PARAGRAPH_MAX_ALLOC_BYTES`
    /// * `PARAGRAPH_MAX_DECLARED_LEN`
    /// * `PARAGRAPH_MAX_DECODE_BYTES`
    /// * `PARAGRAPH_DEADLINE_MS` (0 disables the deadline)
    ///
    /// A malformed value (say `PARAGRAPH_MAX_RECORDS=1e6` — the variables
    /// take plain decimal, not scientific notation) falls back to the
    /// default for that limit **with a warning on stderr** — a typo must
    /// neither silently disable analysis nor silently run with a far more
    /// generous cap than the operator asked for. Long-running services
    /// should use [`Limits::from_env_checked`] instead and refuse to start
    /// on a malformed override.
    pub fn from_env() -> Limits {
        match Limits::from_env_checked() {
            Ok(limits) => limits,
            Err(errors) => {
                for e in &errors.errors {
                    eprintln!("warning: {e}; using the default for that limit");
                }
                errors.fallback
            }
        }
    }

    /// [`Limits::from_env`] that reports malformed overrides instead of
    /// falling back: `Err` carries one message per bad variable plus the
    /// limits that *would* apply if the bad values were ignored. One-shot
    /// commands warn and continue with the fallback; `paragraph serve`
    /// refuses to start, because a daemon that silently runs with generous
    /// defaults after an operator typo is a fail-open policy hole.
    ///
    /// # Errors
    ///
    /// [`EnvLimitErrors`] naming every unparsable variable and its value.
    pub fn from_env_checked() -> Result<Limits, EnvLimitErrors> {
        Limits::default().with_env_overrides()
    }

    /// These limits with the environment's overrides applied (see
    /// [`Limits::from_env`]).
    ///
    /// # Errors
    ///
    /// As for [`Limits::from_env_checked`].
    pub fn with_env_overrides(self) -> Result<Limits, EnvLimitErrors> {
        let mut limits = self;
        let mut errors = Vec::new();
        let mut var = |name: &'static str| -> Option<u64> {
            let raw = std::env::var(name).ok()?;
            match raw.trim().parse() {
                Ok(v) => Some(v),
                Err(_) => {
                    errors.push(format!("{name}={raw:?} is not a plain decimal integer"));
                    None
                }
            }
        };
        if let Some(v) = var("PARAGRAPH_MAX_RECORDS") {
            limits.max_records = v;
        }
        if let Some(v) = var("PARAGRAPH_MAX_ALLOC_BYTES") {
            limits.max_alloc_bytes = v;
        }
        if let Some(v) = var("PARAGRAPH_MAX_DECLARED_LEN") {
            limits.max_declared_len = v;
        }
        if let Some(v) = var("PARAGRAPH_MAX_DECODE_BYTES") {
            limits.max_decode_bytes = v;
        }
        if let Some(v) = var("PARAGRAPH_DEADLINE_MS") {
            limits.deadline = (v > 0).then(|| Duration::from_millis(v));
        }
        if errors.is_empty() {
            Ok(limits)
        } else {
            Err(EnvLimitErrors {
                errors,
                fallback: limits,
            })
        }
    }
}

/// Malformed `PARAGRAPH_MAX_*` / `PARAGRAPH_DEADLINE_MS` overrides found
/// by [`Limits::from_env_checked`]: every bad variable, plus the limits
/// that apply when the bad values are ignored (for callers that choose to
/// warn and degrade rather than refuse).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvLimitErrors {
    /// One human-readable message per unparsable variable.
    pub errors: Vec<String>,
    /// The limits with every *valid* override applied and every malformed
    /// one left at its default.
    pub fallback: Limits,
}

impl fmt::Display for EnvLimitErrors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed limit override(s): {}", self.errors.join("; "))
    }
}

impl std::error::Error for EnvLimitErrors {}

/// A resource limit was exceeded while decoding untrusted input.
///
/// Names the limit that tripped, what the input asked for, and the cap it
/// ran into — enough for an operator to decide whether the input is hostile
/// or the cap merely needs raising.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LimitViolation {
    /// Stable machine-readable name of the limit, e.g. `"max-declared-len"`.
    pub limit: &'static str,
    /// What was being measured, e.g. `"chunk payload length"`.
    pub what: &'static str,
    /// The value the input declared or reached.
    pub actual: u64,
    /// The configured cap it exceeded.
    pub cap: u64,
}

impl fmt::Display for LimitViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} exceeds the {} limit of {}",
            self.what, self.actual, self.limit, self.cap
        )
    }
}

impl std::error::Error for LimitViolation {}

/// Enforces a set of [`Limits`] over the lifetime of one decode.
///
/// The governor is stateful: it tracks how many records have been
/// delivered, how many input bytes have been consumed, the wall-clock start
/// time, and the largest single allocation charged so far (so tests can
/// assert that no allocation exceeded the cap no matter what the input
/// declared).
#[derive(Debug, Clone)]
pub struct ResourceGovernor {
    limits: Limits,
    started: Instant,
    records: u64,
    peak_alloc: u64,
}

impl Default for ResourceGovernor {
    fn default() -> ResourceGovernor {
        ResourceGovernor::new(Limits::default())
    }
}

impl ResourceGovernor {
    /// Builds a governor enforcing `limits`, with the wall clock starting
    /// now.
    pub fn new(limits: Limits) -> ResourceGovernor {
        ResourceGovernor {
            limits,
            started: Instant::now(),
            records: 0,
            peak_alloc: 0,
        }
    }

    /// The limits this governor enforces.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// The largest single allocation charged so far, in bytes.
    ///
    /// Invariant: never exceeds `limits.max_alloc_bytes`, because
    /// [`charge_alloc`](Self::charge_alloc) rejects before recording.
    pub fn peak_alloc(&self) -> u64 {
        self.peak_alloc
    }

    /// How many records have been charged so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Validates a declared length field *before* the bytes it describes
    /// are read or buffered.
    pub fn check_declared_len(
        &self,
        what: &'static str,
        declared: u64,
    ) -> Result<(), LimitViolation> {
        if declared > self.limits.max_declared_len {
            return Err(LimitViolation {
                limit: "max-declared-len",
                what,
                actual: declared,
                cap: self.limits.max_declared_len,
            });
        }
        Ok(())
    }

    /// Authorizes (and records) a single allocation of `bytes` bytes.
    /// Call this *before* the allocation; on `Err` the caller must not
    /// allocate.
    pub fn charge_alloc(&mut self, what: &'static str, bytes: u64) -> Result<(), LimitViolation> {
        if bytes > self.limits.max_alloc_bytes {
            return Err(LimitViolation {
                limit: "max-alloc-bytes",
                what,
                actual: bytes,
                cap: self.limits.max_alloc_bytes,
            });
        }
        self.peak_alloc = self.peak_alloc.max(bytes);
        Ok(())
    }

    /// Charges `n` delivered records against the record budget.
    pub fn charge_records(&mut self, n: u64) -> Result<(), LimitViolation> {
        self.records = self.records.saturating_add(n);
        if self.records > self.limits.max_records {
            return Err(LimitViolation {
                limit: "max-records",
                what: "record count",
                actual: self.records,
                cap: self.limits.max_records,
            });
        }
        Ok(())
    }

    /// Checks the cumulative count of input bytes consumed (the reader's
    /// absolute offset) against the decode budget.
    pub fn check_decode_bytes(&self, consumed: u64) -> Result<(), LimitViolation> {
        if consumed > self.limits.max_decode_bytes {
            return Err(LimitViolation {
                limit: "max-decode-bytes",
                what: "input bytes consumed",
                actual: consumed,
                cap: self.limits.max_decode_bytes,
            });
        }
        Ok(())
    }

    /// Checks the wall-clock deadline, if one is configured.
    pub fn check_deadline(&self) -> Result<(), LimitViolation> {
        let Some(deadline) = self.limits.deadline else {
            return Ok(());
        };
        let elapsed = self.started.elapsed();
        if elapsed > deadline {
            return Err(LimitViolation {
                limit: "deadline",
                what: "elapsed milliseconds",
                actual: elapsed.as_millis().min(u128::from(u64::MAX)) as u64,
                cap: deadline.as_millis().min(u128::from(u64::MAX)) as u64,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_generous() {
        let limits = Limits::default();
        assert!(limits.max_records >= 1 << 32);
        assert!(limits.max_alloc_bytes >= 1 << 30);
        assert!(limits.deadline.is_none());
    }

    #[test]
    fn declared_len_is_rejected_before_any_allocation() {
        let gov = ResourceGovernor::new(Limits::strict());
        let err = gov
            .check_declared_len("chunk payload length", u64::MAX)
            .unwrap_err();
        assert_eq!(err.limit, "max-declared-len");
        assert_eq!(gov.peak_alloc(), 0);
    }

    #[test]
    fn alloc_charges_track_the_peak_but_never_exceed_the_cap() {
        let mut gov = ResourceGovernor::new(Limits::strict());
        gov.charge_alloc("chunk frame", 512).unwrap();
        gov.charge_alloc("chunk frame", 128).unwrap();
        assert_eq!(gov.peak_alloc(), 512);
        let err = gov.charge_alloc("chunk frame", u64::MAX).unwrap_err();
        assert_eq!(err.limit, "max-alloc-bytes");
        assert_eq!(gov.peak_alloc(), 512, "rejected charge must not record");
    }

    #[test]
    fn record_budget_trips_once_exceeded() {
        let mut gov = ResourceGovernor::new(Limits {
            max_records: 10,
            ..Limits::default()
        });
        gov.charge_records(10).unwrap();
        let err = gov.charge_records(1).unwrap_err();
        assert_eq!(err.limit, "max-records");
        assert_eq!(err.actual, 11);
    }

    #[test]
    fn decode_byte_budget_bounds_consumption() {
        let gov = ResourceGovernor::new(Limits {
            max_decode_bytes: 100,
            ..Limits::default()
        });
        gov.check_decode_bytes(100).unwrap();
        let err = gov.check_decode_bytes(101).unwrap_err();
        assert_eq!(err.limit, "max-decode-bytes");
    }

    #[test]
    fn deadline_zero_duration_trips_immediately() {
        let gov = ResourceGovernor::new(Limits {
            deadline: Some(Duration::ZERO),
            ..Limits::default()
        });
        std::thread::sleep(Duration::from_millis(2));
        let err = gov.check_deadline().unwrap_err();
        assert_eq!(err.limit, "deadline");
    }

    #[test]
    fn no_deadline_never_trips() {
        let gov = ResourceGovernor::default();
        gov.check_deadline().unwrap();
    }

    #[test]
    fn violation_display_names_limit_and_values() {
        let v = LimitViolation {
            limit: "max-declared-len",
            what: "chunk payload length",
            actual: 4096,
            cap: 1024,
        };
        let text = v.to_string();
        assert!(text.contains("chunk payload length"), "{text}");
        assert!(text.contains("4096"), "{text}");
        assert!(text.contains("max-declared-len"), "{text}");
    }

    #[test]
    fn env_overrides_parse_and_ignore_garbage() {
        // Not testing actual env mutation (process-global, racy across the
        // parallel test harness); exercise the parser shape via from_env on
        // the unset path instead. The malformed-override paths (warning,
        // fallback, serve's refusal to start) are covered end to end by
        // crates/cli/tests/serve_cli.rs, which owns its child's environment.
        let limits = Limits::from_env();
        assert_eq!(limits.max_declared_len, Limits::default().max_declared_len);
        let checked = Limits::from_env_checked();
        assert_eq!(checked, Ok(limits), "unset env must be clean");
    }

    #[test]
    fn env_limit_errors_display_names_every_variable() {
        let errs = EnvLimitErrors {
            errors: vec![
                "PARAGRAPH_MAX_RECORDS=\"1e6\" is not a plain decimal integer".to_owned(),
                "PARAGRAPH_DEADLINE_MS=\"fast\" is not a plain decimal integer".to_owned(),
            ],
            fallback: Limits::default(),
        };
        let text = errs.to_string();
        assert!(text.contains("PARAGRAPH_MAX_RECORDS"), "{text}");
        assert!(text.contains("PARAGRAPH_DEADLINE_MS"), "{text}");
        assert!(text.contains("malformed"), "{text}");
    }
}
