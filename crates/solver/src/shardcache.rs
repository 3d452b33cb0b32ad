//! The solver's cross-cell model store: sharded in memory, optionally
//! persisted to disk.
//!
//! The study runner solves 22 bombs × 4 profiles, and the bombs are not
//! strangers to each other — argv-digit guards, length checks, and table
//! bounds recur across the dataset, so the cone-of-influence slices the
//! optimizer carves out (`slice::partition`) repeat *across cells*, not
//! just across rounds. The per-solver query cache cannot see that (its
//! keys are thread-local interner ids). This store can: one
//! `Arc<ShardCache>` per study, shared by every worker thread and keyed by
//! [`content_key`] — FNV-1a over the slice's SMT-LIB rendering, so keys
//! agree across threads and across processes even though hash-consed term
//! ids do not.
//!
//! Concurrency: N-way sharding with one `RwLock` per shard. Lookups take
//! a read lock on a single shard; stores take a write lock on a single
//! shard; no global lock exists, so worker threads contend only on true
//! key-space collisions.
//!
//! ## Disk tier
//!
//! A store made by [`ShardCache::open`] persists across runs: each shard
//! is backed by one segment file (`seg-<i>.bomblab`), loaded at open and
//! rewritten by [`flush`](ShardCache::flush) when the shard changed.
//!
//! * Segments are written whole via tmp-file + rename, never appended in
//!   place. Flushes are serialised, so concurrent callers never share a
//!   tmp file.
//! * Every segment opens with a version-stamped header binding it to
//!   [`FORMAT_VERSION`] and [`PIPELINE_REV`]; every entry line carries a
//!   CRC-32 of its payload.
//! * A corrupt, truncated, unreadable, or version-mismatched segment is
//!   *rejected whole*: its entries are dropped, [`segments_rejected`]
//!   counts it, and the next flush rebuilds the file. Loading never panics
//!   and never errors the caller.
//!
//! ## Soundness
//!
//! * **Read-through hits are re-verified.** A stored model is untrusted
//!   input, from disk or from another thread; it answers a slice only
//!   after concrete evaluation confirms it satisfies every slice
//!   constraint. A failed verification counts as a rejection and the
//!   pipeline proceeds as a miss — a stale or poisoned entry can cost
//!   time, never correctness ([`ShardCache::poisoned`] exercises this).
//! * **Stateless profiles attach write-only.** Paper-tool profiles
//!   (`incremental_solver: false`) warm the store but never read it, so
//!   their per-query cost model — and with it Table II — is byte-identical
//!   whether the store is warm or cold.
//!
//! [`segments_rejected`]: ShardCache::segments_rejected

use crate::expr::Term;
use crate::{smtlib, Model};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Number of independently locked shards, and of segment files. Eight is
/// comfortably above any realistic `--jobs` on the study's dataset sizes
/// while keeping the idle-memory cost of the empty store trivial.
pub const NUM_SHARDS: usize = 8;

/// On-disk layout revision of the segment files themselves.
pub const FORMAT_VERSION: u32 = 1;

/// Revision of the solving pipeline the stored models were produced by.
/// Bump whenever the SMT-LIB rendering (and with it every key), the term
/// language, or bit-blasting semantics change meaning: old segments are
/// then version-mismatched and rebuilt instead of silently reinterpreted.
pub const PIPELINE_REV: u32 = 2;

/// One stored model: the slice's variable bindings in sorted order.
type Bindings = Vec<(Arc<str>, u64)>;

/// Process-stable content key of a slice: FNV-1a over its SMT-LIB
/// rendering. Unlike [`Term::id`] (an interner address, unique only within
/// one thread of one process), the rendering survives threads and
/// restarts, and it is linear in the DAG size.
pub fn content_key(terms: &[Term]) -> u64 {
    let text = smtlib::to_smtlib(terms);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// CRC-32 (IEEE, reflected polynomial `0xEDB8_8320`), bit at a time — the
/// store loads once per study, so table-free simplicity wins.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// One shard's entries plus its rewrite flag.
#[derive(Debug, Default)]
struct Shard {
    /// key → bindings, in key order so a flush renders deterministically.
    entries: BTreeMap<u64, Bindings>,
    /// The shard changed since it was loaded or last flushed.
    dirty: bool,
}

/// A sharded, thread-safe model store shared by every solver of a study.
#[derive(Debug, Default)]
pub struct ShardCache {
    shards: [RwLock<Shard>; NUM_SHARDS],
    hits: AtomicU64,
    stores: AtomicU64,
    rejected: AtomicU64,
    /// Corrupt every stored binding (hook for tests of the verification
    /// path).
    poison: bool,
    /// Directory of the segment files; `None` keeps the store in memory.
    dir: Option<PathBuf>,
    /// Segments dropped at open.
    segments_rejected: u64,
    /// Serialises flushes.
    flushing: Mutex<()>,
}

impl ShardCache {
    /// An empty store that corrupts everything it stores (tests of the
    /// verification path).
    #[must_use]
    pub fn poisoned() -> ShardCache {
        ShardCache {
            poison: true,
            ..ShardCache::default()
        }
    }

    /// An empty in-memory store, boxed into the `Arc` every consumer
    /// wants anyway.
    #[must_use]
    pub fn shared() -> Arc<ShardCache> {
        Arc::new(ShardCache::default())
    }

    /// Opens (or creates) the store persisted in `dir` and loads every
    /// segment that passes validation. Segments that fail — bad header,
    /// wrong version, torn line, checksum mismatch, unreadable file — are
    /// counted in [`segments_rejected`](ShardCache::segments_rejected) and
    /// dropped; only an uncreatable *directory* is an error.
    ///
    /// # Errors
    ///
    /// Returns the error of creating `dir`.
    pub fn open(dir: &Path) -> io::Result<ShardCache> {
        fs::create_dir_all(dir)?;
        let mut cache = ShardCache {
            dir: Some(dir.to_path_buf()),
            ..ShardCache::default()
        };
        for i in 0..NUM_SHARDS {
            let mut bytes = match fs::read(segment_path(dir, i)) {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(_) => Vec::new(),
            };
            // Fault-injection point: one hit per segment read. Inert (one
            // relaxed atomic load) unless a chaos plan is armed.
            if let Some(action) =
                bomblab_fault::fault_point(bomblab_fault::FaultSite::CacheSegmentLoad)
            {
                match action {
                    bomblab_fault::FaultAction::ShortRead => {
                        let keep = bytes.len() / 2;
                        bytes.truncate(keep);
                    }
                    bomblab_fault::FaultAction::BitFlip => {
                        let mid = bytes.len() / 2;
                        if let Some(b) = bytes.get_mut(mid) {
                            *b ^= 0x10;
                        }
                    }
                    _ => {}
                }
            }
            let shard = cache.shards[i]
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            match parse_segment(&bytes, i) {
                Some(entries) => shard.entries = entries,
                None => {
                    // Dirty, so the next flush rebuilds the file.
                    shard.dirty = true;
                    cache.segments_rejected += 1;
                }
            }
        }
        Ok(cache)
    }

    fn shard(&self, key: u64) -> &RwLock<Shard> {
        &self.shards[shard_index(key)]
    }

    /// Returns the stored bindings for `key`, if any. The caller owns
    /// verification — this is raw, untrusted data.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<Bindings> {
        self.shard(key)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .get(&key)
            .cloned()
    }

    /// Stores a satisfying slice model under `key`. First writer wins —
    /// verification on the read path is the soundness authority, so
    /// which thread's (equally valid) model survives does not matter.
    /// Returns whether this call inserted the entry.
    pub fn record(&self, key: u64, model: &Model) -> bool {
        let mut bindings: Bindings = model.iter().map(|(n, v)| (n.clone(), *v)).collect();
        if self.poison {
            for (_, v) in &mut bindings {
                *v ^= 0x5A5A_5A5A_5A5A_5A5A;
            }
        }
        let mut shard = self
            .shard(key)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if shard.entries.contains_key(&key) {
            return false;
        }
        shard.entries.insert(key, bindings);
        shard.dirty = true;
        self.stores.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Rewrites the segment file of every shard that changed since the
    /// last flush (full render to a tmp file, then rename). Entries are
    /// written in key order, so equal stores produce byte-identical
    /// segments. A no-op for an in-memory store.
    ///
    /// # Errors
    ///
    /// Returns the first write or rename error; the shard stays dirty and
    /// the next flush retries it.
    pub fn flush(&self) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let _serial = self.flushing.lock().unwrap_or_else(PoisonError::into_inner);
        for (i, lock) in self.shards.iter().enumerate() {
            let text = {
                let mut shard = lock.write().unwrap_or_else(PoisonError::into_inner);
                if !shard.dirty {
                    continue;
                }
                shard.dirty = false;
                render_segment(i, &shard.entries)
            };
            let path = segment_path(dir, i);
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            if let Err(e) = fs::write(&tmp, text).and_then(|()| fs::rename(&tmp, &path)) {
                lock.write().unwrap_or_else(PoisonError::into_inner).dirty = true;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Counts one verified read-through hit.
    pub fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one model rejected by read-through verification.
    pub fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Verified read-through hits across the store's lifetime.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Models stored across the store's lifetime.
    #[must_use]
    pub fn stores(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }

    /// Models rejected by read-through verification across the store's
    /// lifetime.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Segments dropped at open for corruption, truncation, version
    /// mismatch, or read errors.
    #[must_use]
    pub fn segments_rejected(&self) -> u64 {
        self.segments_rejected
    }

    /// Number of stored entries, over all shards.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entries
                    .len()
            })
            .sum()
    }
}

/// The shard (and segment) holding `key`: the high bits of a multiplicative
/// hash, so FNV keys spread evenly.
fn shard_index(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61) as usize % NUM_SHARDS
}

/// The segment file backing shard `i`.
fn segment_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("seg-{i}.bomblab"))
}

/// The version-stamped first line of shard `i`'s segment.
fn segment_header(i: usize) -> String {
    format!("bomblab-cache v{FORMAT_VERSION} rev{PIPELINE_REV} shard{i}")
}

/// Shard `i`'s segment: the header, then one `crc payload` line per entry.
/// A payload is `key binding binding ...` with hex-encoded variable names
/// (names are opaque bytes; hex keeps the line format whitespace-safe).
fn render_segment(i: usize, entries: &BTreeMap<u64, Bindings>) -> String {
    let mut text = format!("{}\n", segment_header(i));
    for (key, bindings) in entries {
        let mut payload = format!("{key:016x}");
        for (name, value) in bindings {
            payload.push(' ');
            for b in name.as_bytes() {
                payload.push_str(&format!("{b:02x}"));
            }
            payload.push_str(&format!(":{value:016x}"));
        }
        text.push_str(&format!("{:08x} {payload}\n", crc32(payload.as_bytes())));
    }
    text
}

/// Parses shard `i`'s segment; `None` rejects the whole segment (any bad
/// header, checksum, malformed line, or key of another shard poisons it —
/// partial trust is not worth the bookkeeping when a rebuild is one warm
/// study away).
fn parse_segment(bytes: &[u8], i: usize) -> Option<BTreeMap<u64, Bindings>> {
    let text = std::str::from_utf8(bytes).ok()?;
    let mut lines = text.lines();
    if lines.next()? != segment_header(i) {
        return None;
    }
    let mut entries = BTreeMap::new();
    for line in lines {
        let crc_hex = line.get(..8)?;
        let payload = line.get(8..)?.strip_prefix(' ')?;
        let crc = u32::from_str_radix(crc_hex, 16).ok()?;
        if crc != crc32(payload.as_bytes()) {
            return None;
        }
        let mut tokens = payload.split(' ');
        let key = u64::from_str_radix(tokens.next()?, 16).ok()?;
        if shard_index(key) != i {
            return None;
        }
        let mut bindings = Vec::new();
        for tok in tokens {
            let (name_hex, value_hex) = tok.split_once(':')?;
            let name = hex_decode(name_hex)?;
            let value = u64::from_str_radix(value_hex, 16).ok()?;
            bindings.push((Arc::from(name), value));
        }
        entries.insert(key, bindings);
    }
    Some(entries)
}

/// Decodes a hex-encoded UTF-8 variable name.
fn hex_decode(s: &str) -> Option<String> {
    if s.is_empty() || !s.len().is_multiple_of(2) {
        return None;
    }
    let mut bytes = Vec::with_capacity(s.len() / 2);
    for i in (0..s.len()).step_by(2) {
        bytes.push(u8::from_str_radix(s.get(i..i + 2)?, 16).ok()?);
    }
    String::from_utf8(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BvOp, CmpOp};

    fn model(pairs: &[(&str, u64)]) -> Model {
        let mut m = Model::default();
        for &(n, v) in pairs {
            m.insert(n, v);
        }
        m
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bomblab-shardcache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn record_then_lookup_round_trips() {
        let cache = ShardCache::default();
        assert!(cache.lookup(42).is_none());
        assert!(cache.record(42, &model(&[("x", 7), ("y", 9)])));
        let got = cache.lookup(42).expect("stored entry");
        assert_eq!(
            got.iter()
                .map(|(n, v)| (n.as_ref(), *v))
                .collect::<Vec<_>>(),
            vec![("x", 7), ("y", 9)]
        );
        assert_eq!(cache.stores(), 1);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn first_writer_wins() {
        let cache = ShardCache::default();
        assert!(cache.record(1, &model(&[("x", 1)])));
        assert!(!cache.record(1, &model(&[("x", 2)])));
        assert_eq!(cache.lookup(1).expect("entry")[0].1, 1);
        assert_eq!(cache.stores(), 1);
    }

    #[test]
    fn keys_spread_over_multiple_shards() {
        let cache = ShardCache::default();
        for key in 0..256u64 {
            cache.record(key, &model(&[("x", key)]));
        }
        let populated = cache
            .shards
            .iter()
            .filter(|s| !s.read().unwrap().entries.is_empty())
            .count();
        assert!(populated > 1, "all 256 keys landed in one shard");
        assert_eq!(cache.entries(), 256);
    }

    #[test]
    fn poisoned_store_corrupts_bindings() {
        let cache = ShardCache::poisoned();
        cache.record(9, &model(&[("x", 7)]));
        let got = cache.lookup(9).expect("entry");
        assert_ne!(got[0].1, 7, "poison must corrupt the stored value");
    }

    #[test]
    fn concurrent_writers_and_readers_agree() {
        let cache = Arc::new(ShardCache::default());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for key in 0..64 {
                        cache.record(key, &model(&[("x", key)]));
                        assert!(cache.lookup(key).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.entries(), 64);
        assert_eq!(cache.stores(), 64, "exactly one writer won each key");
    }

    #[test]
    fn round_trips_models_across_reopen() {
        let dir = tmpdir("roundtrip");
        let c = ShardCache::open(&dir).expect("open");
        c.record(7, &model(&[("x", 0x35), ("arg1_b0", 0x30)]));
        c.record(8, &Model::default()); // empty models are legal entries
        c.flush().expect("flush");

        let c2 = ShardCache::open(&dir).expect("reopen");
        assert_eq!(c2.segments_rejected(), 0);
        assert_eq!(c2.entries(), 2);
        let m = c2.lookup(7).expect("entry survives");
        assert_eq!(
            m.iter().map(|(n, v)| (n.as_ref(), *v)).collect::<Vec<_>>(),
            vec![("arg1_b0", 0x30), ("x", 0x35)]
        );
        assert!(c2.lookup(8).is_some());
        assert!(c2.lookup(9).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_rewrites_only_changed_shards() {
        let dir = tmpdir("dirty");
        let c = ShardCache::open(&dir).expect("open");
        c.record(7, &model(&[("x", 1)]));
        c.flush().expect("flush");
        let seg = segment_path(&dir, shard_index(7));
        fs::remove_file(&seg).expect("segment written");
        c.record(7, &model(&[("x", 2)])); // first writer wins: no change
        c.flush().expect("flush");
        assert!(!seg.exists(), "a clean shard is not rewritten");
        assert!(ShardCache::default().flush().is_ok(), "in-memory no-op");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_truncated_and_mismatched_segments_are_rejected_not_fatal() {
        let dir = tmpdir("corrupt");
        let c = ShardCache::open(&dir).expect("open");
        for key in 0..64u64 {
            c.record(key, &model(&[("x", key)]));
        }
        c.flush().expect("flush");
        let lines = |i: usize| {
            fs::read_to_string(segment_path(&dir, i)).map_or(0, |t| t.lines().count() - 1)
        };
        let populated: Vec<usize> = (0..NUM_SHARDS).filter(|&i| lines(i) > 0).collect();
        assert!(populated.len() >= 3, "64 keys fill at least three shards");
        let (p0, p1, p2) = (populated[0], populated[1], populated[2]);
        let lost = lines(p0) + lines(p1) + lines(p2);

        // Bit-flip one segment, truncate another mid-line, version-bump a
        // third's header. Each is rejected whole; the rest load fine.
        let path = segment_path(&dir, p0);
        let mut bytes = fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        fs::write(&path, &bytes).expect("write");

        let path = segment_path(&dir, p1);
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 5]).expect("write");

        let path = segment_path(&dir, p2);
        let text = fs::read_to_string(&path).expect("read");
        let bumped = text.replace(
            &format!("v{FORMAT_VERSION} rev{PIPELINE_REV}"),
            &format!("v{FORMAT_VERSION} rev{}", PIPELINE_REV + 1),
        );
        fs::write(&path, bumped).expect("write");

        let c2 = ShardCache::open(&dir).expect("reopen never fails on corruption");
        assert_eq!(c2.segments_rejected(), 3);
        assert_eq!(c2.entries(), 64 - lost, "only the intact shards load");

        // The next flush rebuilds the rejected segments, and recording the
        // lost entries again restores them.
        c2.flush().expect("rebuild flush");
        let c3 = ShardCache::open(&dir).expect("reopen");
        assert_eq!(c3.segments_rejected(), 0);
        assert_eq!(c3.entries(), 64 - lost);
        for key in 0..64u64 {
            c3.record(key, &model(&[("x", key)]));
        }
        c3.flush().expect("flush");
        assert_eq!(ShardCache::open(&dir).expect("reopen").entries(), 64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn content_keys_are_stable_and_content_based() {
        let x = Term::var("x", 32);
        let c1 = Term::cmp(
            CmpOp::Eq,
            &Term::bin(BvOp::Add, &x, &Term::bv(1, 32)),
            &Term::bv(5, 32),
        );
        let c2 = Term::cmp(
            CmpOp::Eq,
            &Term::bin(BvOp::Add, &x, &Term::bv(2, 32)),
            &Term::bv(5, 32),
        );
        assert_eq!(
            content_key(std::slice::from_ref(&c1)),
            content_key(std::slice::from_ref(&c1))
        );
        assert_ne!(content_key(&[c1]), content_key(&[c2]));
    }

    #[test]
    fn crc32_matches_the_ieee_check_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
