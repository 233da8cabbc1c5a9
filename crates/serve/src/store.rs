//! The daemon's trace store: governed admission, crash-consistent spool,
//! budgeted in-memory cache.
//!
//! Uploaded traces are decoded **before** anything touches disk, under the
//! server's [`Limits`] — by default [`Limits::strict`], because every
//! upload is untrusted input (docs/ingest.md). A trace that decodes is
//! spooled through the shared crash-consistent artifact writer (unique
//! temp, `sync_all`, rename, parent fsync), so a crash mid-upload never
//! leaves a half-written spool entry, and the startup sweep removes any
//! orphaned temps a previous hard kill left behind.
//!
//! Decoded records are cached in memory under a byte budget. When the
//! budget overflows, least-recently-used entries drop their records (the
//! spool file remains); the next request that needs them re-decodes from
//! the spool under the same limits. The store therefore never holds more
//! decoded state than the budget allows, no matter how many traces have
//! been uploaded.

use crate::error::ServeError;
use paragraph_core::TraceIdentity;
use paragraph_trace::binary::TraceReader;
use paragraph_trace::{
    Limits, ResourceGovernor, SegmentMap, TraceError, TraceErrorKind, TraceRecord, TraceSource,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// What `POST /traces` reports back.
#[derive(Debug, Clone)]
pub struct UploadSummary {
    /// The assigned trace id (`t1`, `t2`, ...).
    pub id: String,
    /// Records decoded.
    pub records: u64,
    /// Spooled (binary) size in bytes.
    pub bytes: u64,
}

/// A resolved trace, records resident.
#[derive(Debug, Clone)]
pub struct ResolvedTrace {
    /// The trace id.
    pub id: String,
    /// The decoded records, shared with the cache.
    pub records: Arc<Vec<TraceRecord>>,
    /// The trace's segment map.
    pub segments: SegmentMap,
}

struct StoredTrace {
    path: PathBuf,
    segments: SegmentMap,
    identity: TraceIdentity,
    /// Decoded records, present while within the cache budget.
    records: Option<Arc<Vec<TraceRecord>>>,
    last_use: u64,
}

impl StoredTrace {
    fn resident_bytes(&self) -> u64 {
        match &self.records {
            Some(records) => (records.len() * std::mem::size_of::<TraceRecord>()) as u64,
            None => 0,
        }
    }
}

struct StoreState {
    traces: HashMap<String, StoredTrace>,
    next_id: u64,
    clock: u64,
    evictions: u64,
    reloads: u64,
}

/// The shared trace store.
pub struct TraceStore {
    spool: PathBuf,
    limits: Limits,
    cache_budget: u64,
    state: Mutex<StoreState>,
}

/// Classifies a decode failure: governor rejection, damage, or I/O.
fn decode_err(scope: &str, e: TraceError) -> ServeError {
    if let Some(v) = e.limit_violation() {
        return ServeError::rejected(scope, v);
    }
    match e.kind() {
        TraceErrorKind::Io(_) => ServeError::Internal(format!("{scope}: {e}")),
        _ => ServeError::BadRequest(format!("{scope}: {e}")),
    }
}

/// Decodes v2 trace bytes under `limits`. Used both for fresh uploads and
/// for spool reloads after a cache eviction.
fn decode_governed(
    scope: &str,
    bytes: Vec<u8>,
    limits: Limits,
) -> Result<(Vec<TraceRecord>, SegmentMap), ServeError> {
    let mut reader = TraceReader::from_source(TraceSource::from_bytes(bytes))
        .map_err(|e| decode_err(scope, e))?
        .with_governor(ResourceGovernor::new(limits));
    let segments = reader.segment_map();
    let mut records = Vec::new();
    while reader
        .read_block(&mut records)
        .map_err(|e| decode_err(scope, e))?
        > 0
    {}
    Ok((records, segments))
}

impl TraceStore {
    /// Opens the store over `spool`, creating the directory and sweeping
    /// any orphaned temp files a crashed predecessor left behind.
    pub fn open(
        spool: PathBuf,
        limits: Limits,
        cache_budget: u64,
    ) -> Result<TraceStore, ServeError> {
        std::fs::create_dir_all(&spool)
            .map_err(|e| ServeError::Internal(format!("spool {}: {e}", spool.display())))?;
        paragraph_core::artifact::clean_orphaned_tmp(&spool);
        Ok(TraceStore {
            spool,
            limits,
            cache_budget: cache_budget.max(1),
            state: Mutex::new(StoreState {
                traces: HashMap::new(),
                next_id: 0,
                clock: 0,
                evictions: 0,
                reloads: 0,
            }),
        })
    }

    /// The admission limits uploads decode under.
    pub fn limits(&self) -> Limits {
        self.limits
    }

    fn lock(&self) -> Result<std::sync::MutexGuard<'_, StoreState>, ServeError> {
        self.state
            .lock()
            .map_err(|_| ServeError::Internal("trace store lock poisoned".into()))
    }

    /// Admits one upload: decode under the governor (text input is first
    /// converted through the ingest pipeline), then spool the binary bytes
    /// crash-consistently, then cache the decoded records.
    pub fn upload(&self, body: Vec<u8>, text: bool) -> Result<UploadSummary, ServeError> {
        let binary = if text {
            let mut converted = Vec::new();
            let mut governor = ResourceGovernor::new(self.limits);
            paragraph_trace::ingest::ingest_text(
                std::io::Cursor::new(&body),
                &mut converted,
                &mut governor,
            )
            .map_err(|e| {
                if let Some(v) = e.limit_violation() {
                    ServeError::rejected("upload", v)
                } else {
                    ServeError::BadRequest(format!("upload: {e}"))
                }
            })?;
            converted
        } else {
            body
        };
        let (records, segments) = decode_governed("upload", binary.clone(), self.limits)?;
        let identity = TraceIdentity::of_records(&records);
        let record_count = records.len() as u64;
        let bytes = binary.len() as u64;

        let (id, path) = {
            let mut state = self.lock()?;
            state.next_id += 1;
            let id = format!("t{}", state.next_id);
            let path = self.spool.join(format!("{id}.pgtr"));
            (id, path)
        };
        paragraph_core::artifact::write_atomic_bytes(&path, &binary)
            .map_err(|e| ServeError::Internal(format!("spool {}: {e}", path.display())))?;

        let mut state = self.lock()?;
        state.clock += 1;
        let now = state.clock;
        state.traces.insert(
            id.clone(),
            StoredTrace {
                path,
                segments,
                identity,
                records: Some(Arc::new(records)),
                last_use: now,
            },
        );
        Self::enforce_budget(&mut state, self.cache_budget, &id);
        Ok(UploadSummary {
            id,
            records: record_count,
            bytes,
        })
    }

    /// Resolves `id` to resident records, reloading from the spool when
    /// the cache dropped them.
    pub fn resolve(&self, id: &str) -> Result<ResolvedTrace, ServeError> {
        let (cached, path) = {
            let mut state = self.lock()?;
            state.clock += 1;
            let now = state.clock;
            let entry = state
                .traces
                .get_mut(id)
                .ok_or_else(|| ServeError::NotFound(format!("no trace `{id}`")))?;
            entry.last_use = now;
            match &entry.records {
                Some(records) => (
                    Some(ResolvedTrace {
                        id: id.to_owned(),
                        records: Arc::clone(records),
                        segments: entry.segments,
                    }),
                    PathBuf::new(),
                ),
                None => (None, entry.path.clone()),
            }
        };
        if let Some(resolved) = cached {
            return Ok(resolved);
        }
        // Cache miss: re-decode from the spool outside the store lock so a
        // large reload never blocks unrelated requests.
        let bytes = std::fs::read(&path)
            .map_err(|e| ServeError::Internal(format!("spool {}: {e}", path.display())))?;
        let (records, segments) = decode_governed(id, bytes, self.limits)?;
        let identity = TraceIdentity::of_records(&records);
        let records = Arc::new(records);
        let mut state = self.lock()?;
        state.reloads += 1;
        state.clock += 1;
        let now = state.clock;
        let entry = state
            .traces
            .get_mut(id)
            .ok_or_else(|| ServeError::NotFound(format!("no trace `{id}`")))?;
        if entry.identity != identity {
            return Err(ServeError::Internal(format!(
                "spool {}: reloaded trace does not match its recorded identity",
                path.display()
            )));
        }
        entry.records = Some(Arc::clone(&records));
        entry.segments = segments;
        entry.last_use = now;
        let resolved = ResolvedTrace {
            id: id.to_owned(),
            records,
            segments,
        };
        Self::enforce_budget(&mut state, self.cache_budget, id);
        Ok(resolved)
    }

    /// Drops LRU records until resident bytes fit the budget. `keep` (the
    /// entry just touched) is never dropped, so a trace larger than the
    /// whole budget still serves — it just shares the cache with nothing.
    fn enforce_budget(state: &mut StoreState, budget: u64, keep: &str) {
        let mut resident: u64 = state.traces.values().map(StoredTrace::resident_bytes).sum();
        while resident > budget {
            let victim = state
                .traces
                .iter()
                .filter(|(id, t)| t.records.is_some() && id.as_str() != keep)
                .min_by_key(|(_, t)| t.last_use)
                .map(|(id, _)| id.clone());
            let Some(victim) = victim else { break };
            if let Some(entry) = state.traces.get_mut(&victim) {
                resident -= entry.resident_bytes();
                entry.records = None;
                state.evictions += 1;
            }
        }
    }

    /// Uploaded traces currently known.
    pub fn count(&self) -> usize {
        self.state.lock().map_or(0, |s| s.traces.len())
    }

    /// Decoded bytes currently resident in the cache.
    pub fn resident_bytes(&self) -> u64 {
        self.state.lock().map_or(0, |s| {
            s.traces.values().map(StoredTrace::resident_bytes).sum()
        })
    }

    /// Cache evictions (records dropped to the spool), cumulatively.
    pub fn evictions(&self) -> u64 {
        self.state.lock().map_or(0, |s| s.evictions)
    }

    /// Spool reloads after cache misses, cumulatively.
    pub fn reloads(&self) -> u64 {
        self.state.lock().map_or(0, |s| s.reloads)
    }

    /// The spool directory.
    pub fn spool_dir(&self) -> &Path {
        &self.spool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragraph_trace::binary::TraceWriter;
    use paragraph_trace::synthetic;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("paragraph-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn encoded_chain(len: usize) -> Vec<u8> {
        let records = synthetic::chain(len);
        let mut out = Vec::new();
        let mut writer = TraceWriter::new(&mut out, SegmentMap::default()).expect("header writes");
        for record in &records {
            writer.write_record(record).expect("record writes");
        }
        writer.finish().expect("trailer writes");
        out
    }

    #[test]
    fn upload_then_resolve_roundtrips() {
        let store = TraceStore::open(scratch("roundtrip"), Limits::default(), u64::MAX)
            .expect("store opens");
        let summary = store
            .upload(encoded_chain(64), false)
            .expect("upload admits");
        assert_eq!(summary.records, 64);
        let resolved = store.resolve(&summary.id).expect("resolve hits");
        assert_eq!(resolved.records.len(), 64);
        // The spool holds exactly the uploaded bytes, no temp files.
        let entries: Vec<_> = std::fs::read_dir(store.spool_dir())
            .expect("spool dir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
            .collect();
        assert_eq!(entries, vec![format!("{}.pgtr", summary.id)]);
    }

    #[test]
    fn rejects_oversized_declarations_without_spooling() {
        let store = TraceStore::open(
            scratch("reject"),
            Limits {
                max_records: 8,
                ..Limits::default()
            },
            u64::MAX,
        )
        .expect("store opens");
        let err = store
            .upload(encoded_chain(64), false)
            .expect_err("64 records over an 8-record limit must be rejected");
        assert_eq!(err.status(), 422, "governor rejection maps to 422: {err}");
        // Nothing reached the spool.
        let count = std::fs::read_dir(store.spool_dir())
            .expect("spool dir")
            .count();
        assert_eq!(count, 0, "a rejected upload must leave no spool entry");
    }

    #[test]
    fn garbage_uploads_are_bad_requests() {
        let store =
            TraceStore::open(scratch("garbage"), Limits::default(), u64::MAX).expect("store opens");
        let err = store
            .upload(b"not a trace at all".to_vec(), false)
            .expect_err("garbage must be refused");
        assert_eq!(err.status(), 400);
        assert!(matches!(err, ServeError::BadRequest(_)));
    }

    #[test]
    fn unknown_ids_are_not_found() {
        let store =
            TraceStore::open(scratch("missing"), Limits::default(), u64::MAX).expect("store opens");
        let err = store.resolve("t99").expect_err("unknown id");
        assert_eq!(err.status(), 404);
    }

    #[test]
    fn cache_evicts_lru_and_reloads_from_spool() {
        // Budget fits roughly one trace's records, not two.
        let budget = (96 * std::mem::size_of::<TraceRecord>()) as u64;
        let store =
            TraceStore::open(scratch("evict"), Limits::default(), budget).expect("store opens");
        let a = store.upload(encoded_chain(64), false).expect("upload a");
        let b = store.upload(encoded_chain(64), false).expect("upload b");
        assert!(
            store.evictions() >= 1,
            "the second upload must evict the first"
        );
        // Resolving the evicted trace reloads it from the spool with the
        // same contents.
        let ra = store.resolve(&a.id).expect("a reloads from spool");
        assert_eq!(ra.records.len(), 64);
        assert!(store.reloads() >= 1);
        let rb = store.resolve(&b.id).expect("b still resolves");
        assert_eq!(rb.records.len(), 64);
    }

    #[test]
    fn text_uploads_go_through_the_ingest_pipeline() {
        let store =
            TraceStore::open(scratch("text"), Limits::default(), u64::MAX).expect("store opens");
        let text = "# comment\n!segments heap=64 stack=256\n0x100 int-alu -> r8\n";
        let summary = store
            .upload(text.as_bytes().to_vec(), true)
            .expect("text admits");
        assert_eq!(summary.records, 1);
        let resolved = store.resolve(&summary.id).expect("resolves");
        assert_eq!(resolved.records.len(), 1);
    }
}
