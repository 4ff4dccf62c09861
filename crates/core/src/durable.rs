//! The on-disk envelope and crash-durable writes shared by every durable
//! store in the workspace (model artifacts, registry indexes, attack
//! checkpoints).
//!
//! ## The sealed two-line envelope
//!
//! Every durable file is a two-line UTF-8 document:
//!
//! ```text
//! {"magic":"SPLITMFG-MODEL","version":1,"checksum":"fnv1a64:<16 hex>"}
//! {...payload JSON...}
//! ```
//!
//! Line 1 is the header: the [`Format`]'s magic string, its version, and
//! the [`fnv1a64`] checksum of the payload line's bytes. [`seal`] writes
//! it; [`open`] checks structure, magic, version and checksum in that
//! order and hands back the payload line, each failure its own
//! [`EnvelopeError`] variant. Both are pure: the stores own their i/o and
//! their payload checks. The checksum catches corruption, not tampering,
//! so each payload decoder still validates what it decodes.
//!
//! ## Atomic writes
//!
//! [`atomic_write`] follows the full crash-safety discipline:
//!
//! 1. write the bytes to a `.tmp` sibling,
//! 2. `fsync` the staging file (the data must be durable *before* the
//!    rename publishes it, or a crash could atomically install an empty
//!    file),
//! 3. atomically `rename` it over the destination,
//! 4. `fsync` the parent directory (the rename itself lives in the
//!    directory; without this a power cut after the rename can roll the
//!    directory entry back to the old file — the rename was atomic but
//!    not yet durable).
//!
//! A crash at any instant therefore leaves either the previous file or
//! the complete new one at the destination — never a truncation — and
//! once `atomic_write` returns, the new file survives power loss.
//!
//! Every stage is bracketed by [`crate::failpoint`] sites named
//! `<site>.before_tmp`, `<site>.after_tmp`, `<site>.after_rename` and
//! `<site>.after_dir_sync`, so chaos tests can kill the process in each
//! distinct on-disk state and assert recovery.

use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::failpoint;

/// One durable file format: what its header must say, and what to call
/// it in error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// First field of every header; anything else is another kind of file.
    pub magic: &'static str,
    /// The single version this build reads and writes.
    pub version: u32,
    /// What the file is, for messages ("model artifact", "checkpoint").
    pub noun: &'static str,
}

/// Why [`open`] refused a file. Each variant carries the [`Format::noun`]
/// of the format it was opened as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Not a two-line document, or the header line is not JSON of the
    /// header's shape.
    Malformed {
        /// The format's noun.
        noun: &'static str,
        /// What is wrong with the structure.
        reason: String,
    },
    /// The header's magic string is not the format's.
    BadMagic {
        /// The format's noun.
        noun: &'static str,
        /// What the header contained instead.
        found: String,
    },
    /// The file was written by another version of the format.
    UnsupportedVersion {
        /// The format's noun.
        noun: &'static str,
        /// Version found in the header.
        found: u32,
        /// The single version this build supports.
        supported: u32,
    },
    /// The payload line does not hash to the header's checksum.
    ChecksumMismatch {
        /// The format's noun.
        noun: &'static str,
        /// Checksum recorded in the header.
        expected: String,
        /// Checksum of the payload actually present.
        found: String,
    },
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::Malformed { noun, reason } => write!(f, "malformed {noun}: {reason}"),
            EnvelopeError::BadMagic { noun, found } => {
                write!(f, "not a {noun} (magic '{found}')")
            }
            EnvelopeError::UnsupportedVersion {
                noun,
                found,
                supported,
            } => write!(
                f,
                "{noun} format version {found} unsupported (this build reads {supported})"
            ),
            EnvelopeError::ChecksumMismatch {
                noun,
                expected,
                found,
            } => write!(
                f,
                "{noun} checksum mismatch: header says {expected}, payload hashes to {found}"
            ),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// The header line. Field order is the on-disk order.
#[derive(Serialize, Deserialize)]
struct Header {
    magic: String,
    version: u32,
    checksum: String,
}

/// Seals `payload` (one line, no newline inside) into `format`'s
/// two-line envelope, trailing newline included.
#[must_use]
pub fn seal(format: &Format, payload: &str) -> String {
    let header = Header {
        magic: format.magic.to_owned(),
        version: format.version,
        checksum: fnv1a64(payload.as_bytes()),
    };
    let header = serde_json::to_string(&header).expect("header serialization is infallible");
    format!("{header}\n{payload}\n")
}

/// Opens `format`'s envelope around `text` and returns the payload line,
/// whose bytes are then known to hash to the header's checksum.
///
/// # Errors
///
/// The first failing check as an [`EnvelopeError`]: structure, magic,
/// version, checksum.
pub fn open<'a>(format: &Format, text: &'a str) -> Result<&'a str, EnvelopeError> {
    let malformed = |reason: String| EnvelopeError::Malformed {
        noun: format.noun,
        reason,
    };
    let mut lines = text.lines();
    let header_line = lines.next().ok_or_else(|| malformed("empty file".into()))?;
    let payload = lines
        .next()
        .ok_or_else(|| malformed("missing payload line".into()))?;
    if lines.any(|l| !l.trim().is_empty()) {
        return Err(malformed("unexpected content after payload line".into()));
    }
    let header: Header = serde_json::from_str(header_line)
        .map_err(|e| malformed(format!("header does not parse: {e}")))?;
    if header.magic != format.magic {
        return Err(EnvelopeError::BadMagic {
            noun: format.noun,
            found: header.magic,
        });
    }
    if header.version != format.version {
        return Err(EnvelopeError::UnsupportedVersion {
            noun: format.noun,
            found: header.version,
            supported: format.version,
        });
    }
    let found = fnv1a64(payload.as_bytes());
    if header.checksum != found {
        return Err(EnvelopeError::ChecksumMismatch {
            noun: format.noun,
            expected: header.checksum,
            found,
        });
    }
    Ok(payload)
}

/// FNV-1a 64-bit hash of `bytes`, formatted as the checksum string used
/// by envelope headers and registry index entries (`fnv1a64:<16 hex>`).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a64:{hash:016x}")
}

/// Writes `bytes` to `path` crash-durably (see the module docs for the
/// four-stage discipline). `site` names the [`crate::failpoint`] site
/// family bracketing each stage (`"checkpoint"`, `"artifact"`,
/// `"registry_index"`).
///
/// # Errors
///
/// Returns the underlying [`io::Error`]; the `.tmp` sibling is removed
/// best-effort on the error path. A path without a file name is
/// [`io::ErrorKind::InvalidInput`].
pub fn atomic_write(path: &Path, bytes: &[u8], site: &str) -> io::Result<()> {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("path {} has no file name", path.display()),
        ));
    };
    let tmp = path.with_file_name(format!("{name}.tmp"));
    failpoint::hit(&format!("{site}.before_tmp"));
    let write_then_sync = (|| {
        use std::io::Write as _;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        failpoint::hit(&format!("{site}.after_tmp"));
        std::fs::rename(&tmp, path)?;
        failpoint::hit(&format!("{site}.after_rename"));
        // The rename is atomic but only durable once the directory entry
        // is on disk. An unwritable parent (rare filesystems) is not a
        // correctness failure for readers — they still see old-or-new —
        // so sync errors here are real errors, not ignored.
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()?;
        failpoint::hit(&format!("{site}.after_dir_sync"));
        Ok(())
    })();
    if let Err(e) = write_then_sync {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const TEST: Format = Format {
        magic: "SPLITMFG-TEST",
        version: 3,
        noun: "test file",
    };
    const PAYLOAD: &str = "{\"ids\":[1,2,3],\"name\":\"x\"}";

    /// `Ok(payload)` must mean `payload` is the text's second line and
    /// hashes to a checksum the header records.
    fn assert_open_is_sound(text: &str) {
        if let Ok(payload) = open(&TEST, text) {
            assert_eq!(text.lines().nth(1), Some(payload), "{text:?}");
            assert!(text.contains(&fnv1a64(payload.as_bytes())), "{text:?}");
        }
    }

    #[test]
    fn seal_then_open_returns_the_payload() {
        let text = seal(&TEST, PAYLOAD);
        assert_eq!(
            text,
            format!(
                "{{\"magic\":\"SPLITMFG-TEST\",\"version\":3,\"checksum\":\"{}\"}}\n{PAYLOAD}\n",
                fnv1a64(PAYLOAD.as_bytes())
            )
        );
        assert_eq!(open(&TEST, &text), Ok(PAYLOAD));
        assert_eq!(
            open(&TEST, text.trim_end()),
            Ok(PAYLOAD),
            "final newline optional"
        );
        assert_eq!(open(&TEST, &format!("{text}\n \n")), Ok(PAYLOAD));
        assert!(matches!(
            open(&TEST, &format!("{text}\nmore")),
            Err(EnvelopeError::Malformed { .. })
        ));
        let other = Format { version: 4, ..TEST };
        assert_eq!(
            open(&other, &text),
            Err(EnvelopeError::UnsupportedVersion {
                noun: "test file",
                found: 3,
                supported: 4
            })
        );
        let bad = open(&TEST, &text.replace("TEST", "BEST")).expect_err("bad magic");
        assert_eq!(bad.to_string(), "not a test file (magic 'SPLITMFG-BEST')");
    }

    /// Decoder property on the framing: every truncation and every
    /// single-byte change of a sealed file is refused with an
    /// [`EnvelopeError`] (only dropping the final newline is harmless),
    /// and arbitrary bytes never panic.
    #[test]
    fn every_truncation_and_byte_change_is_a_typed_refusal() {
        let text = seal(&TEST, PAYLOAD);
        for cut in 0..text.len() {
            match open(&TEST, &text[..cut]) {
                Ok(payload) => {
                    assert_eq!(cut, text.len() - 1, "only the final newline may go");
                    assert_eq!(payload, PAYLOAD);
                }
                Err(_) => assert!(cut < text.len() - 1, "cut at {cut}"),
            }
        }
        let mut bytes = text.clone().into_bytes();
        for i in 0..bytes.len() {
            let original = bytes[i];
            for b in (0..=u8::MAX).filter(|&b| b != original) {
                bytes[i] = b;
                let changed = String::from_utf8_lossy(&bytes);
                assert!(open(&TEST, &changed).is_err(), "byte {i} -> {b:#04x}");
            }
            bytes[i] = original;
        }
    }

    #[test]
    fn arbitrary_bytes_and_token_soups_open_or_fail_typed() {
        let sealed = seal(&TEST, PAYLOAD);
        let checksum = format!("\"{}\"", fnv1a64(PAYLOAD.as_bytes()));
        let tokens = [
            "{",
            "}",
            "[",
            "]",
            ":",
            ",",
            "\"",
            "\\",
            "\n",
            "\r\n",
            " ",
            "\"magic\"",
            "\"version\"",
            "\"checksum\"",
            "\"SPLITMFG-TEST\"",
            "3",
            "-1",
            "1e400",
            "4294967296",
            "null",
            &checksum,
            PAYLOAD,
            "\u{fffd}",
            "\0",
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(0x5ea1);
        for _ in 0..4_000 {
            let len = rng.gen_range(0..160usize);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
            assert_open_is_sound(&String::from_utf8_lossy(&bytes));
            let soup: String = (0..rng.gen_range(0..40usize))
                .map(|_| tokens[rng.gen_range(0..tokens.len())])
                .collect();
            assert_open_is_sound(&soup);
            // A sealed file with a random slice of it spliced in.
            let at = rng.gen_range(0..=sealed.len());
            let from = rng.gen_range(0..sealed.len());
            let to = rng.gen_range(from..=sealed.len());
            assert_open_is_sound(&format!(
                "{}{}{}",
                &sealed[..at],
                &sealed[from..to],
                &sealed[at..]
            ));
        }
    }

    #[test]
    fn checksum_is_stable_and_position_dependent() {
        assert_eq!(fnv1a64(b""), "fnv1a64:cbf29ce484222325");
        assert_eq!(fnv1a64(b"a"), "fnv1a64:af63dc4c8601ec8c");
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_staging_file() {
        let dir = std::env::temp_dir().join("smattack_durable_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("file");
        atomic_write(&path, b"one", "test").expect("writes");
        assert_eq!(std::fs::read(&path).expect("reads"), b"one");
        atomic_write(&path, b"two", "test").expect("replaces");
        assert_eq!(std::fs::read(&path).expect("reads"), b"two");
        assert!(!dir.join("file.tmp").exists(), "staging file renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pathological_paths_are_typed_io_errors() {
        assert_eq!(
            atomic_write(Path::new("/"), b"x", "test")
                .expect_err("no file name")
                .kind(),
            io::ErrorKind::InvalidInput
        );
        assert!(atomic_write(Path::new("/nonexistent-parent-dir/file"), b"x", "test").is_err());
    }

    #[test]
    fn relative_paths_without_a_parent_sync_the_cwd() {
        // `path.parent()` is Some("") for a bare file name; the directory
        // fsync must fall back to "." instead of failing.
        let dir = std::env::temp_dir().join("smattack_durable_cwd_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let prev = std::env::current_dir().expect("cwd");
        std::env::set_current_dir(&dir).expect("chdir");
        let res = atomic_write(Path::new("bare-file"), b"x", "test");
        std::env::set_current_dir(prev).expect("chdir back");
        res.expect("bare relative path writes");
        assert_eq!(std::fs::read(dir.join("bare-file")).expect("reads"), b"x");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
