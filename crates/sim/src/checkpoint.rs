//! Crash-only checkpoint journals for sweeps and ladders.
//!
//! A [`Checkpoint`] is an append-only JSONL journal (`hycap-checkpoint/1`)
//! holding one record per *completed* sweep point. The header pins a
//! 64-bit digest of the run configuration ([`scenario_digest`] over the
//! scenario parameters, the seed and [`ENGINE_VERSION`]); resuming against
//! a journal whose digest disagrees is refused, so stale results from a
//! different scenario or an older engine can never be merged into a run.
//!
//! Durability is *crash-only*: there is no signal handler (the workspace
//! forbids `unsafe`, and a handler buys nothing a crash-safe journal does
//! not already guarantee). Each record is appended, flushed and fsynced
//! before the point is considered journaled, so killing the process at any
//! instant — SIGINT, SIGKILL, OOM, power loss — loses at most the point
//! that was in flight. A torn final line (the kill landed mid-append) is
//! ignored on resume and the point recomputes.
//!
//! Values are stored as hexadecimal `f64::to_bits` words, not decimal:
//! resume must reproduce the uninterrupted run *bit-identically*, and a
//! decimal round-trip would quietly wash out the last ulp.

use hycap_errors::HycapError;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// Identifies the measurement semantics of this build. Folded into every
/// [`scenario_digest`], so a journal written by an engine whose numbers
/// could differ is rejected on resume instead of silently merged. Bump it
/// whenever an engine change can alter any measured value.
pub const ENGINE_VERSION: &str = "hycap-engine/7";

/// Schema tag of the journal header line.
const SCHEMA: &str = "hycap-checkpoint/1";

/// FNV-1a 64-bit digest of the run configuration, rendered as 16 hex
/// characters. Fold in every input that determines the measured values:
/// scenario parameters, seed, slot count — [`ENGINE_VERSION`] is always
/// included. Order matters; parts are separated so `["ab", "c"]` and
/// `["a", "bc"]` digest differently.
pub fn scenario_digest(parts: &[&str]) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
        hash ^= 0xff;
        hash = hash.wrapping_mul(PRIME);
    };
    eat(ENGINE_VERSION.as_bytes());
    for part in parts {
        eat(part.as_bytes());
    }
    format!("{hash:016x}")
}

struct CheckpointInner {
    file: File,
    done: BTreeMap<String, Vec<f64>>,
}

/// An open checkpoint journal. Thread-safe: workers journal completed
/// points concurrently through a shared reference (or an `Arc` when the
/// consumer needs `'static` closures, as the pool's `map` does).
pub struct Checkpoint {
    inner: Mutex<CheckpointInner>,
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("completed", &self.completed())
            .finish()
    }
}

impl Checkpoint {
    /// Creates a fresh journal at `path` (truncating any existing file),
    /// stamped with `digest`. Parent directories are created as needed.
    ///
    /// # Errors
    ///
    /// [`HycapError::Io`] when the journal cannot be created or the header
    /// cannot be written.
    pub fn create(path: &Path, digest: &str) -> Result<Self, HycapError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| HycapError::io("create checkpoint directory", &e))?;
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| HycapError::io("create checkpoint journal", &e))?;
        writeln!(file, "{{\"schema\":\"{SCHEMA}\",\"digest\":\"{digest}\"}}")
            .and_then(|()| file.flush())
            .and_then(|()| file.sync_data())
            .map_err(|e| HycapError::io("write checkpoint header", &e))?;
        Ok(Checkpoint {
            inner: Mutex::new(CheckpointInner {
                file,
                done: BTreeMap::new(),
            }),
        })
    }

    /// Opens the journal at `path` for resumption, loading every completed
    /// point. A missing file is not an error — resume of a run that never
    /// started is a fresh start — and a torn final record (the previous
    /// process was killed mid-append) is skipped. Further records append
    /// to the same file.
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when the journal's header schema
    /// or digest disagrees with `digest` (the journal belongs to a
    /// different scenario, seed or engine build);
    /// [`HycapError::Io`] when the file exists but cannot be read or
    /// reopened for appending.
    pub fn resume(path: &Path, digest: &str) -> Result<Self, HycapError> {
        if !path.exists() {
            return Self::create(path, digest);
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| HycapError::io("read checkpoint journal", &e))?;
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        match parse_header(header) {
            Some(found) if found == digest => {}
            Some(found) => {
                return Err(HycapError::invalid(
                    "checkpoint",
                    format!(
                        "journal digest {found} does not match this run's digest {digest}; \
                         the journal belongs to a different scenario, seed or engine version"
                    ),
                ));
            }
            None => {
                return Err(HycapError::invalid(
                    "checkpoint",
                    format!("journal header is not {SCHEMA}: {header:?}"),
                ));
            }
        }
        let mut done = BTreeMap::new();
        for line in lines {
            // A malformed record can only be the torn tail of a killed
            // append; the point simply recomputes.
            if let Some((key, values)) = parse_record(line) {
                done.insert(key, values);
            }
        }
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| HycapError::io("reopen checkpoint journal", &e))?;
        Ok(Checkpoint {
            inner: Mutex::new(CheckpointInner { file, done }),
        })
    }

    /// The journaled values for `key`, when that point already completed.
    pub fn lookup(&self, key: &str) -> Option<Vec<f64>> {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.done.get(key).cloned()
    }

    /// Points journaled so far (including those loaded by resume).
    pub fn completed(&self) -> usize {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.done.len()
    }

    /// Journals one completed point: appends its record, flushes and
    /// fsyncs before returning, so the point survives any subsequent
    /// crash. Recording the same key again overwrites the in-memory entry
    /// (last record wins on resume too).
    ///
    /// # Errors
    ///
    /// [`HycapError::InvalidParameter`] when `key` contains characters the
    /// record line cannot carry verbatim (quotes, backslashes, control
    /// characters); [`HycapError::Io`] when the append fails.
    pub fn record(&self, key: &str, values: &[f64]) -> Result<(), HycapError> {
        if key.chars().any(|c| c == '"' || c == '\\' || c.is_control()) {
            return Err(HycapError::invalid(
                "checkpoint key",
                format!("key {key:?} may not contain quotes, backslashes or control characters"),
            ));
        }
        let bits: Vec<String> = values
            .iter()
            .map(|v| format!("\"{:016x}\"", v.to_bits()))
            .collect();
        let line = format!("{{\"key\":\"{key}\",\"bits\":[{}]}}", bits.join(","));
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        writeln!(inner.file, "{line}")
            .and_then(|()| inner.file.flush())
            .and_then(|()| inner.file.sync_data())
            .map_err(|e| HycapError::io("append checkpoint record", &e))?;
        inner.done.insert(key.to_string(), values.to_vec());
        Ok(())
    }
}

fn parse_header(line: &str) -> Option<String> {
    if !line.contains(&format!("\"schema\":\"{SCHEMA}\"")) {
        return None;
    }
    extract_string_field(line, "digest")
}

fn parse_record(line: &str) -> Option<(String, Vec<f64>)> {
    let key = extract_string_field(line, "key")?;
    let rest = line.split_once("\"bits\":[")?.1;
    let (body, tail) = rest.split_once(']')?;
    if !tail.trim_end().ends_with('}') {
        return None;
    }
    let mut values = Vec::new();
    if !body.trim().is_empty() {
        for item in body.split(',') {
            let hex = item.trim().strip_prefix('"')?.strip_suffix('"')?;
            if hex.len() != 16 {
                return None;
            }
            values.push(f64::from_bits(u64::from_str_radix(hex, 16).ok()?));
        }
    }
    Some((key, values))
}

fn extract_string_field(line: &str, field: &str) -> Option<String> {
    let rest = line.split_once(&format!("\"{field}\":\""))?.1;
    Some(rest.split_once('"')?.0.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_journal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hycap-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}.jsonl"))
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let a = scenario_digest(&["scheme=a", "n=100", "seed=7"]);
        let b = scenario_digest(&["scheme=a", "n=100", "seed=7"]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert_ne!(a, scenario_digest(&["scheme=a", "n=100", "seed=8"]));
        // Separators keep part boundaries significant.
        assert_ne!(scenario_digest(&["ab", "c"]), scenario_digest(&["a", "bc"]));
    }

    #[test]
    fn record_and_resume_round_trip_exact_bits() {
        let path = temp_journal("round-trip");
        let digest = scenario_digest(&["test", "round-trip"]);
        let odd = [1.0 / 3.0, f64::MIN_POSITIVE, -0.0, 2.5e-308, f64::INFINITY];
        {
            let ckpt = Checkpoint::create(&path, &digest).unwrap();
            ckpt.record("n=100", &odd).unwrap();
            ckpt.record("n=200", &[42.0]).unwrap();
            ckpt.record("empty", &[]).unwrap();
            assert_eq!(ckpt.completed(), 3);
        }
        let resumed = Checkpoint::resume(&path, &digest).unwrap();
        assert_eq!(resumed.completed(), 3);
        let got = resumed.lookup("n=100").unwrap();
        assert_eq!(got.len(), odd.len());
        for (g, o) in got.iter().zip(&odd) {
            assert_eq!(g.to_bits(), o.to_bits(), "{g} vs {o}");
        }
        assert_eq!(resumed.lookup("empty").unwrap(), Vec::<f64>::new());
        assert_eq!(resumed.lookup("n=999"), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_wrong_digest() {
        let path = temp_journal("wrong-digest");
        Checkpoint::create(&path, "aaaaaaaaaaaaaaaa").unwrap();
        let err = Checkpoint::resume(&path, "bbbbbbbbbbbbbbbb").unwrap_err();
        assert!(matches!(err, HycapError::InvalidParameter { .. }));
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("digest"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_of_missing_file_starts_fresh() {
        let path = temp_journal("fresh-start");
        let _ = std::fs::remove_file(&path);
        let ckpt = Checkpoint::resume(&path, "cccccccccccccccc").unwrap();
        assert_eq!(ckpt.completed(), 0);
        ckpt.record("p", &[1.0]).unwrap();
        drop(ckpt);
        let again = Checkpoint::resume(&path, "cccccccccccccccc").unwrap();
        assert_eq!(again.completed(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_record_is_skipped() {
        let path = temp_journal("torn-tail");
        let digest = scenario_digest(&["torn"]);
        {
            let ckpt = Checkpoint::create(&path, &digest).unwrap();
            ckpt.record("a", &[1.0]).unwrap();
        }
        // Simulate a kill mid-append: half a record, no closing brace.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        write!(file, "{{\"key\":\"b\",\"bits\":[\"3ff0").unwrap();
        drop(file);
        let resumed = Checkpoint::resume(&path, &digest).unwrap();
        assert_eq!(resumed.completed(), 1);
        assert!(resumed.lookup("b").is_none());
        // The journal still accepts the recomputed point.
        resumed.record("b", &[2.0]).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn record_rejects_unjournalable_keys() {
        let path = temp_journal("bad-key");
        let ckpt = Checkpoint::create(&path, "dddddddddddddddd").unwrap();
        for bad in ["has\"quote", "back\\slash", "new\nline"] {
            let err = ckpt.record(bad, &[1.0]).unwrap_err();
            assert!(matches!(err, HycapError::InvalidParameter { .. }), "{bad}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rerecorded_key_takes_last_value() {
        let path = temp_journal("last-wins");
        let digest = scenario_digest(&["last-wins"]);
        {
            let ckpt = Checkpoint::create(&path, &digest).unwrap();
            ckpt.record("p", &[1.0]).unwrap();
            ckpt.record("p", &[2.0]).unwrap();
            assert_eq!(ckpt.lookup("p").unwrap(), vec![2.0]);
            assert_eq!(ckpt.completed(), 1);
        }
        let resumed = Checkpoint::resume(&path, &digest).unwrap();
        assert_eq!(resumed.lookup("p").unwrap(), vec![2.0]);
        std::fs::remove_file(&path).unwrap();
    }
}
