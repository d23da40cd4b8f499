//! Checkpoint manifests: the durable boundary format shared by both
//! engines.
//!
//! A manifest captures everything needed to resume a job from its last
//! committed interval (GraphChi) or job phase (Hyracks): an engine
//! **fingerprint** (so a checkpoint is never replayed into a differently
//! shaped job), a two-word **cursor** (interval/phase position), and a set
//! of named binary **sections** (vertex values, partition payloads, engine
//! state) each guarded by an XXH64 checksum.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! magic "FCKP" | version u32 | fingerprint u64 | cursor[0] u64 | cursor[1] u64
//! n_sections u32
//! per section: name_len u32 | name | payload_len u64 | payload_xxh64 u64
//! header_xxh64 u64            <- guards everything above
//! section payloads, concatenated in directory order
//! ```
//!
//! The directory-then-payload split means a flipped byte in a payload
//! surfaces as [`RecoveryError::SectionChecksum`] naming the damaged
//! section, while a flipped byte in the header (or a truncated file — the
//! torn-write case) fails earlier with a header-level error. Either way
//! recovery **fails closed**: a typed error, never a panic, never a
//! partially applied restore.
//!
//! [`write_manifest`] commits atomically: the encoding is written to
//! `<path>.tmp`, fsynced, then renamed over `path`, so a crash mid-write
//! leaves either the previous checkpoint or none at all. The only way to
//! observe a torn manifest is the fault plan's torn-write mode, which
//! deliberately bypasses the rename protocol.
//!
//! The engines never call the file functions themselves: a [`Checkpointer`]
//! owns the policy, and every decoder of these untrusted bytes goes through
//! one bounds-checked [`Cursor`].

use metrics::ResilienceReport;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// File magic: "FCKP" (Facade ChecKPoint).
const MAGIC: [u8; 4] = *b"FCKP";
/// Current manifest format version.
const VERSION: u32 = 1;
/// Seed for the header checksum (distinct from payload seed so a payload
/// spliced into the header position can never validate).
const HEADER_SEED: u64 = 0xFACA_DE00_0000_0001;
/// Seed for per-section payload checksums.
const PAYLOAD_SEED: u64 = 0xFACA_DE00_0000_0002;

// --- XXH64 -----------------------------------------------------------------

const PRIME1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME2))
        .rotate_left(31)
        .wrapping_mul(PRIME1)
}

#[inline]
fn xxh_merge(acc: u64, val: u64) -> u64 {
    (acc ^ xxh_round(0, val))
        .wrapping_mul(PRIME1)
        .wrapping_add(PRIME4)
}

#[inline]
fn read_u64_le(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("8-byte window"))
}

#[inline]
fn read_u32_le(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("4-byte window"))
}

/// XXH64 over `data` with `seed` — the checksum the manifest format (and
/// the engines' config fingerprints) are built on. Hand-rolled from the
/// public specification; no external crates.
#[must_use]
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut i = 0usize;
    let mut h: u64;
    if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME1).wrapping_add(PRIME2);
        let mut v2 = seed.wrapping_add(PRIME2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME1);
        while i + 32 <= len {
            v1 = xxh_round(v1, read_u64_le(data, i));
            v2 = xxh_round(v2, read_u64_le(data, i + 8));
            v3 = xxh_round(v3, read_u64_le(data, i + 16));
            v4 = xxh_round(v4, read_u64_le(data, i + 24));
            i += 32;
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = xxh_merge(h, v1);
        h = xxh_merge(h, v2);
        h = xxh_merge(h, v3);
        h = xxh_merge(h, v4);
    } else {
        h = seed.wrapping_add(PRIME5);
    }
    h = h.wrapping_add(len as u64);
    while i + 8 <= len {
        h ^= xxh_round(0, read_u64_le(data, i));
        h = h.rotate_left(27).wrapping_mul(PRIME1).wrapping_add(PRIME4);
        i += 8;
    }
    if i + 4 <= len {
        h ^= u64::from(read_u32_le(data, i)).wrapping_mul(PRIME1);
        h = h.rotate_left(23).wrapping_mul(PRIME2).wrapping_add(PRIME3);
        i += 4;
    }
    while i < len {
        h ^= u64::from(data[i]).wrapping_mul(PRIME5);
        h = h.rotate_left(11).wrapping_mul(PRIME1);
        i += 1;
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME3);
    h ^= h >> 32;
    h
}

// --- errors ----------------------------------------------------------------

/// Why a checkpoint could not be restored. Every variant is a **fail
/// closed** outcome: the caller discards the checkpoint and cold-starts.
#[derive(Debug)]
#[non_exhaustive]
pub enum RecoveryError {
    /// No checkpoint exists at the given path (a normal cold start, not
    /// corruption — callers usually don't count this as a discard).
    Missing(PathBuf),
    /// The file could not be read.
    Io(std::io::Error),
    /// The file does not start with the `FCKP` magic.
    BadMagic,
    /// The format version is newer than this build understands.
    BadVersion(u32),
    /// The file ends before the encoded structure does — the torn-write
    /// signature.
    Truncated,
    /// The header checksum does not match: the directory itself is
    /// corrupt.
    ManifestChecksum,
    /// A section payload's checksum does not match.
    SectionChecksum {
        /// Name of the damaged section.
        section: String,
    },
    /// The checkpoint was written by a differently configured job.
    FingerprintMismatch {
        /// Fingerprint the resuming job computed for itself.
        expected: u64,
        /// Fingerprint recorded in the manifest.
        found: u64,
    },
    /// A section decoded structurally but its contents don't fit the
    /// resuming job (wrong length, bad tag, ...).
    Malformed(String),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Missing(path) => write!(f, "no checkpoint at {}", path.display()),
            Self::Io(err) => write!(f, "checkpoint io error: {err}"),
            Self::BadMagic => write!(f, "not a checkpoint manifest (bad magic)"),
            Self::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            Self::Truncated => write!(f, "checkpoint manifest is truncated (torn write?)"),
            Self::ManifestChecksum => write!(f, "checkpoint header checksum mismatch"),
            Self::SectionChecksum { section } => {
                write!(f, "checkpoint section {section:?} checksum mismatch")
            }
            Self::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different job (fingerprint {found:#x}, expected {expected:#x})"
            ),
            Self::Malformed(what) => write!(f, "checkpoint section malformed: {what}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RecoveryError {
    fn from(err: std::io::Error) -> Self {
        Self::Io(err)
    }
}

// --- manifest --------------------------------------------------------------

/// An in-memory checkpoint manifest: fingerprint + cursor + named binary
/// sections; [`Checkpointer::commit`] builds and persists one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Job-shape fingerprint; restore refuses manifests whose fingerprint
    /// differs from the resuming job's own.
    pub fingerprint: u64,
    /// Engine-defined position: GraphChi uses `[pass, next_interval]`,
    /// Hyracks `[next_phase, 0]`.
    pub cursor: [u64; 2],
    /// Named binary payloads, in insertion order.
    pub sections: Vec<(String, Vec<u8>)>,
}

impl Manifest {
    /// The payload of the section named `name`, if present.
    #[must_use]
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
    }

    /// The payload of a section the resuming job cannot do without; its
    /// absence is a [`RecoveryError::Malformed`] checkpoint.
    pub fn require(&self, name: &str) -> Result<&[u8], RecoveryError> {
        self.section(name)
            .ok_or_else(|| RecoveryError::Malformed(format!("missing section `{name}`")))
    }
}

/// Encode a manifest to its on-disk byte layout.
#[must_use]
pub fn encode_manifest(manifest: &Manifest) -> Vec<u8> {
    let mut head = Vec::with_capacity(64 + manifest.sections.len() * 32);
    head.extend_from_slice(&MAGIC);
    head.extend_from_slice(&VERSION.to_le_bytes());
    head.extend_from_slice(&manifest.fingerprint.to_le_bytes());
    head.extend_from_slice(&manifest.cursor[0].to_le_bytes());
    head.extend_from_slice(&manifest.cursor[1].to_le_bytes());
    head.extend_from_slice(
        &u32::try_from(manifest.sections.len())
            .expect("section count fits u32")
            .to_le_bytes(),
    );
    for (name, payload) in &manifest.sections {
        head.extend_from_slice(
            &u32::try_from(name.len())
                .expect("section name fits u32")
                .to_le_bytes(),
        );
        head.extend_from_slice(name.as_bytes());
        head.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        head.extend_from_slice(&xxh64(payload, PAYLOAD_SEED).to_le_bytes());
    }
    let header_sum = xxh64(&head, HEADER_SEED);
    head.extend_from_slice(&header_sum.to_le_bytes());
    for (_, payload) in &manifest.sections {
        head.extend_from_slice(payload);
    }
    head
}

/// Bounds-checked little-endian reader over untrusted checkpoint bytes: the
/// manifest itself and every section payload decode through it. Running
/// off the end is [`RecoveryError::Truncated`] (the torn-write signature),
/// leftover bytes at [`Cursor::finish`] are [`RecoveryError::Malformed`];
/// it never panics and never allocates from a length it has not checked.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// A reader positioned at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    /// Bytes consumed so far.
    #[must_use]
    pub fn position(&self) -> usize {
        self.at
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], RecoveryError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(RecoveryError::Truncated)?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, RecoveryError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, RecoveryError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Ends the read: every byte must have been consumed.
    pub fn finish(self) -> Result<(), RecoveryError> {
        match self.bytes.len() - self.at {
            0 => Ok(()),
            n => Err(RecoveryError::Malformed(format!(
                "{n} trailing bytes after section payload"
            ))),
        }
    }
}

/// Decode and verify a manifest from its on-disk byte layout. Checks, in
/// order: magic, version, header completeness, header checksum, payload
/// completeness, every section checksum, then that no byte follows the last
/// payload.
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, RecoveryError> {
    let mut cursor = Cursor::new(bytes);
    if cursor.take(4)? != MAGIC {
        return Err(RecoveryError::BadMagic);
    }
    let version = cursor.u32()?;
    if version != VERSION {
        return Err(RecoveryError::BadVersion(version));
    }
    let fingerprint = cursor.u64()?;
    let position = [cursor.u64()?, cursor.u64()?];
    let n_sections = cursor.u32()?;
    // Not pre-sized: `n_sections` is not yet covered by any checksum.
    let mut dir: Vec<(String, u64, u64)> = Vec::new();
    for _ in 0..n_sections {
        let name_len = cursor.u32()? as usize;
        let name = String::from_utf8(cursor.take(name_len)?.to_vec())
            .map_err(|_| RecoveryError::Malformed("section name is not utf-8".into()))?;
        dir.push((name, cursor.u64()?, cursor.u64()?));
    }
    let header = &bytes[..cursor.position()];
    if xxh64(header, HEADER_SEED) != cursor.u64()? {
        return Err(RecoveryError::ManifestChecksum);
    }
    let mut sections = Vec::with_capacity(dir.len());
    for (name, payload_len, payload_sum) in dir {
        let len = usize::try_from(payload_len).map_err(|_| RecoveryError::Truncated)?;
        let payload = cursor.take(len)?;
        if xxh64(payload, PAYLOAD_SEED) != payload_sum {
            return Err(RecoveryError::SectionChecksum { section: name });
        }
        sections.push((name, payload.to_vec()));
    }
    cursor.finish()?;
    Ok(Manifest {
        fingerprint,
        cursor: position,
        sections,
    })
}

/// Write `manifest` to `path` with an atomic commit: encode to
/// `<path>.tmp`, fsync, rename over `path`. Emits a `ckpt_write` complete
/// span carrying the cursor and payload size.
pub fn write_manifest(path: &Path, manifest: &Manifest) -> std::io::Result<()> {
    let started = std::time::Instant::now();
    let bytes = encode_manifest(manifest);
    let tmp = tmp_path(path);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    facade_trace::complete(
        "ckpt_write",
        started,
        &[
            ("bytes", (bytes.len() as u64).into()),
            ("sections", (manifest.sections.len() as u64).into()),
            ("cursor0", manifest.cursor[0].into()),
            ("cursor1", manifest.cursor[1].into()),
        ],
    );
    Ok(())
}

/// Write a deliberately torn manifest: a truncated prefix of the encoding,
/// placed **directly at the final path** (no tmp + rename), simulating a
/// crash mid-`write(2)` on a filesystem without atomic replace. Restore
/// must detect this as [`RecoveryError::Truncated`] (or a checksum error)
/// and fall back to a cold start.
pub fn write_manifest_torn(path: &Path, manifest: &Manifest) -> std::io::Result<()> {
    let bytes = encode_manifest(manifest);
    // Keep the magic so the file *looks* like a checkpoint, then cut the
    // encoding mid-directory: the worst plausible tear.
    let keep = (bytes.len() / 2).max(MAGIC.len());
    std::fs::write(path, &bytes[..keep])
}

/// Read and verify the manifest at `path`. Emits a `ckpt_restore` complete
/// span. A missing file is [`RecoveryError::Missing`]; any structural or
/// checksum failure is its own typed variant — never a panic.
pub fn read_manifest(path: &Path) -> Result<Manifest, RecoveryError> {
    let started = std::time::Instant::now();
    if !path.exists() {
        return Err(RecoveryError::Missing(path.to_path_buf()));
    }
    let bytes = std::fs::read(path)?;
    let manifest = decode_manifest(&bytes)?;
    facade_trace::complete(
        "ckpt_restore",
        started,
        &[
            ("bytes", (bytes.len() as u64).into()),
            ("sections", (manifest.sections.len() as u64).into()),
        ],
    );
    Ok(manifest)
}

/// The scratch path used by the atomic-rename protocol.
#[must_use]
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

// --- checkpointer ----------------------------------------------------------

/// The checkpoint policy of one job, owned in one place for both engines:
/// which file, which fingerprint, what counts as a discard, how a commit is
/// made durable, and what happens to the file when the job completes.
///
/// A job with a checkpoint directory builds one, then:
/// [`restore`](Self::restore) once at start (a verified checkpoint resumes
/// the job; a damaged or foreign one is discarded and counted),
/// [`commit`](Self::commit) at every durable boundary, and
/// [`finish`](Self::finish) on completion. A job that dies in between
/// leaves its last commit behind for the next run with the same
/// fingerprint.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    path: PathBuf,
    fingerprint: u64,
    fault_plan: Option<crate::FaultPlan>,
}

impl Checkpointer {
    /// A checkpointer for the file at `path`, accepting and producing only
    /// manifests stamped with `fingerprint` (the job shape: engine, input,
    /// value-affecting configuration, program).
    #[must_use]
    pub fn new(path: PathBuf, fingerprint: u64) -> Self {
        Self {
            path,
            fingerprint,
            fault_plan: None,
        }
    }

    /// Subjects commits to `plan`'s torn-write mode.
    #[must_use]
    pub fn fault_plan(mut self, plan: Option<crate::FaultPlan>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Reads and verifies the checkpoint: checksums, then fingerprint.
    /// [`RecoveryError::Missing`] when there is none; any other error means
    /// a file was present and failed verification.
    fn load(&self) -> Result<Manifest, RecoveryError> {
        let manifest = read_manifest(&self.path)?;
        if manifest.fingerprint != self.fingerprint {
            return Err(RecoveryError::FingerprintMismatch {
                expected: self.fingerprint,
                found: manifest.fingerprint,
            });
        }
        Ok(manifest)
    }

    /// The resume decision. `None` is a cold start: silently when no
    /// checkpoint exists, counted once in `torn_checkpoints_discarded`
    /// when one exists but fails verification (checksums, then
    /// fingerprint) or `decode` rejects its section shapes. `Some` is a
    /// verified resume, counted in `recoveries` and traced as a
    /// `checkpoint_resume` instant. Never panics on damaged input and
    /// never yields a partial restore.
    pub fn restore<T>(
        &self,
        report: &mut ResilienceReport,
        decode: impl FnOnce(&Manifest) -> Result<T, RecoveryError>,
    ) -> Option<T> {
        match self.load().and_then(|manifest| {
            let state = decode(&manifest)?;
            Ok((manifest.cursor, state))
        }) {
            Ok((cursor, state)) => {
                report.recoveries += 1;
                facade_trace::instant(
                    "checkpoint_resume",
                    &[("cursor0", cursor[0].into()), ("cursor1", cursor[1].into())],
                );
                Some(state)
            }
            Err(RecoveryError::Missing(_)) => None,
            Err(_) => {
                report.torn_checkpoints_discarded += 1;
                None
            }
        }
    }

    /// Commits one durable boundary, best-effort: an I/O failure degrades
    /// to "no checkpoint taken" (the previous one survives the atomic
    /// rename) rather than failing a healthy job. Under the fault plan's
    /// torn-write mode the file is deliberately truncated mid-write instead
    /// — a simulated crash during the checkpoint itself — and does not
    /// count as written.
    pub fn commit(
        &self,
        cursor: [u64; 2],
        sections: Vec<(String, Vec<u8>)>,
        report: &mut ResilienceReport,
    ) {
        let manifest = Manifest {
            fingerprint: self.fingerprint,
            cursor,
            sections,
        };
        if self
            .fault_plan
            .as_ref()
            .is_some_and(crate::FaultPlan::tear_checkpoint_write)
        {
            let _ = write_manifest_torn(&self.path, &manifest);
            return;
        }
        if write_manifest(&self.path, &manifest).is_ok() {
            report.checkpoints_written += 1;
        }
    }

    /// The job completed: its checkpoint is obsolete (resuming a finished
    /// job would replay its tail). Removal is best-effort — a leftover only
    /// costs a fingerprint-checked restore attempt. The run's checkpoint
    /// counters stay in its [`ResilienceReport`], where hosts read them.
    pub fn finish(&self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

// --- primitive codecs ------------------------------------------------------

/// Encode a `f64` slice as little-endian bytes (the engines' vertex/edge
/// value sections).
#[must_use]
pub fn encode_f64s(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a little-endian `f64` section; the byte length must be a
/// multiple of 8.
pub fn decode_f64s(bytes: &[u8]) -> Result<Vec<f64>, RecoveryError> {
    let mut cursor = Cursor::new(bytes);
    let values = (0..bytes.len() / 8)
        .map(|_| cursor.u64().map(f64::from_bits))
        .collect::<Result<_, _>>()?;
    cursor.finish()?;
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            fingerprint: 0xDEAD_BEEF,
            cursor: [3, 7],
            sections: vec![
                ("values".into(), encode_f64s(&[1.0, 2.5, -3.25])),
                ("state".into(), vec![1, 0, 42, 0, 0, 0, 0, 0, 0]),
            ],
        }
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        // Published XXH64 test vectors.
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"", 1), 0xD5AF_BA13_36A3_BE4B);
        // Longer-than-32-byte input exercises the lane loop; value checked
        // for self-consistency (stability across builds), plus seed
        // sensitivity.
        let long = b"the quick brown fox jumps over the lazy dog repeatedly";
        assert_ne!(xxh64(long, 0), xxh64(long, 1));
        assert_eq!(xxh64(long, 0), xxh64(long, 0));
    }

    #[test]
    fn manifest_roundtrips_through_encode_decode() {
        let m = sample();
        let bytes = encode_manifest(&m);
        let back = decode_manifest(&bytes).expect("clean decode");
        assert_eq!(back, m);
        assert_eq!(back.section("values"), m.section("values"));
        assert!(back.section("missing").is_none());
    }

    #[test]
    fn payload_corruption_names_the_section() {
        let m = sample();
        let mut bytes = encode_manifest(&m);
        // Flip one byte of the *last* payload (the "state" section).
        let at = bytes.len() - 1;
        bytes[at] ^= 0x01;
        match decode_manifest(&bytes) {
            Err(RecoveryError::SectionChecksum { section }) => assert_eq!(section, "state"),
            other => panic!("expected SectionChecksum, got {other:?}"),
        }
    }

    #[test]
    fn header_corruption_fails_with_manifest_checksum() {
        let m = sample();
        let mut bytes = encode_manifest(&m);
        // Flip a byte inside the fingerprint field.
        bytes[9] ^= 0x80;
        assert!(matches!(
            decode_manifest(&bytes),
            Err(RecoveryError::ManifestChecksum)
        ));
    }

    #[test]
    fn bad_magic_and_version_fail_closed() {
        let m = sample();
        let mut bytes = encode_manifest(&m);
        bytes[0] = b'X';
        assert!(matches!(
            decode_manifest(&bytes),
            Err(RecoveryError::BadMagic)
        ));
        let mut bytes = encode_manifest(&m);
        bytes[4] = 99;
        assert!(matches!(
            decode_manifest(&bytes),
            Err(RecoveryError::BadVersion(99))
        ));
    }

    #[test]
    fn truncation_fails_closed_at_every_length() {
        // A torn write can stop at *any* byte; every prefix must produce a
        // typed error, never a panic or a false success.
        let bytes = encode_manifest(&sample());
        for cut in 0..bytes.len() {
            match decode_manifest(&bytes[..cut]) {
                Err(_) => {}
                Ok(m) => panic!("prefix of {cut} bytes decoded as {m:?}"),
            }
        }
    }

    #[test]
    fn a_byte_after_the_last_payload_is_malformed() {
        // Every checksum still holds: only the length gives the byte away.
        let mut bytes = encode_manifest(&sample());
        bytes.push(0);
        assert!(matches!(
            decode_manifest(&bytes),
            Err(RecoveryError::Malformed(_))
        ));
    }

    #[test]
    fn atomic_write_then_read_roundtrips() {
        let dir = crate::test_support::TempDir::new("ckpt_roundtrip");
        let path = dir.path().join("m.ckpt");
        let m = sample();
        write_manifest(&path, &m).expect("write");
        assert!(!tmp_path(&path).exists(), "tmp file must be renamed away");
        let back = read_manifest(&path).expect("read");
        assert_eq!(back, m);
    }

    #[test]
    fn torn_write_is_detected() {
        let dir = crate::test_support::TempDir::new("ckpt_torn");
        let path = dir.path().join("m.ckpt");
        write_manifest_torn(&path, &sample()).expect("torn write");
        assert!(
            read_manifest(&path).is_err(),
            "torn manifest must not restore"
        );
    }

    #[test]
    fn missing_file_is_its_own_variant() {
        let dir = crate::test_support::TempDir::new("ckpt_missing");
        match read_manifest(&dir.path().join("absent.ckpt")) {
            Err(RecoveryError::Missing(_)) => {}
            other => panic!("expected Missing, got {other:?}"),
        }
    }

    #[test]
    fn cursor_rejects_every_strict_prefix_and_any_trailing_byte() {
        // take(3) | u32 | u64: 15 bytes exactly.
        let mut bytes = b"abc".to_vec();
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        let read = |bytes: &[u8]| -> Result<(Vec<u8>, u32, u64), RecoveryError> {
            let mut c = Cursor::new(bytes);
            let out = (c.take(3)?.to_vec(), c.u32()?, c.u64()?);
            c.finish()?;
            Ok(out)
        };
        assert_eq!(read(&bytes).unwrap(), (b"abc".to_vec(), 7, u64::MAX));
        for cut in 0..bytes.len() {
            assert!(
                matches!(read(&bytes[..cut]), Err(RecoveryError::Truncated)),
                "prefix of {cut} bytes"
            );
        }
        bytes.push(0);
        assert!(matches!(read(&bytes), Err(RecoveryError::Malformed(_))));
        // A length that would wrap the offset is a truncation, not a panic.
        let mut c = Cursor::new(&bytes);
        c.take(1).unwrap();
        assert!(matches!(c.take(usize::MAX), Err(RecoveryError::Truncated)));
        assert_eq!(c.position(), 1, "a failed read consumes nothing");
    }

    #[test]
    fn checkpointer_restores_commits_discards_and_cleans_up() {
        let dir = crate::test_support::TempDir::new("ckpt_policy");
        let path = dir.path().join("job.fckp");
        let ckpt = Checkpointer::new(path.clone(), 0xF00D);
        let decode = |m: &Manifest| decode_f64s(m.require("values")?);

        // Nothing on disk: a silent cold start.
        let mut report = ResilienceReport::default();
        assert_eq!(ckpt.restore(&mut report, decode), None);
        assert!(report.is_clean());

        // Commit, then a verified restore.
        let sections = vec![("values".to_string(), encode_f64s(&[1.5, -2.0]))];
        ckpt.commit([2, 3], sections, &mut report);
        assert_eq!(report.checkpoints_written, 1);
        assert_eq!(ckpt.load().unwrap().cursor, [2, 3]);
        assert_eq!(ckpt.restore(&mut report, decode), Some(vec![1.5, -2.0]));
        assert_eq!(
            (report.recoveries, report.torn_checkpoints_discarded),
            (1, 0)
        );

        // Each way a present file can be unusable is one counted discard:
        // a foreign fingerprint, a section shape `decode` rejects, damage.
        let foreign = Checkpointer::new(path.clone(), 0xBEEF);
        assert!(matches!(
            foreign.load(),
            Err(RecoveryError::FingerprintMismatch { found: 0xF00D, .. })
        ));
        let mut report = ResilienceReport::default();
        assert_eq!(foreign.restore(&mut report, decode), None);
        let shape = |m: &Manifest| m.require("absent").map(<[u8]>::to_vec);
        assert_eq!(ckpt.restore(&mut report, shape), None);
        write_manifest_torn(&path, &ckpt.load().unwrap()).unwrap();
        assert_eq!(ckpt.restore(&mut report, decode), None);
        assert_eq!(
            (report.recoveries, report.torn_checkpoints_discarded),
            (0, 3)
        );

        ckpt.finish();
        assert!(!path.exists(), "a finished job removes its checkpoint");
    }

    #[test]
    fn torn_commits_are_not_counted_and_do_not_restore() {
        let dir = crate::test_support::TempDir::new("ckpt_torn_commit");
        let plan = crate::FaultPlan::builder(1)
            .torn_checkpoint_writes()
            .build();
        let ckpt = Checkpointer::new(dir.path().join("job.fckp"), 7).fault_plan(Some(plan.clone()));
        let mut report = ResilienceReport::default();
        ckpt.commit([1, 0], vec![("s".into(), vec![9; 64])], &mut report);
        assert_eq!(report.checkpoints_written, 0, "a torn write is no commit");
        assert_eq!(plan.faults_injected(), 1);
        assert_eq!(ckpt.restore(&mut report, |_| Ok(())), None);
        assert_eq!(report.torn_checkpoints_discarded, 1);
    }

    #[test]
    fn f64_codec_roundtrips_and_rejects_ragged_lengths() {
        let vals = [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE];
        assert_eq!(decode_f64s(&encode_f64s(&vals)).unwrap(), vals);
        assert!(matches!(
            decode_f64s(&[0u8; 7]),
            Err(RecoveryError::Malformed(_))
        ));
    }
}
