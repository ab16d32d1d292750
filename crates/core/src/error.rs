//! The crate-wide error type for every fallible cobtree constructor.
//!
//! The original reproduction exposed panicking constructors with
//! crate-specific `assert!` conventions; the unified facade converts all
//! of them to `Result`-returning `try_*` APIs sharing this one enum, so
//! callers composing layouts, indexers and storage backends handle one
//! error type end to end. The panicking entry points remain as thin
//! wrappers for tests and quick scripts.

/// Everything that can go wrong constructing layouts, indexers, or
/// search trees.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A tree height outside the supported interval.
    HeightOutOfRange {
        /// The offending height.
        height: u32,
        /// Smallest supported height.
        min: u32,
        /// Largest supported height for the requested operation.
        max: u32,
    },
    /// A key set was empty where at least one key is required.
    EmptyKeys,
    /// Keys were not strictly ascending: `keys[index] >= keys[index + 1]`.
    UnsortedKeys {
        /// Index of the first out-of-order adjacent pair.
        index: usize,
    },
    /// A key slice did not match the size the tree shape dictates.
    KeyCountMismatch {
        /// Keys the tree shape requires (`2^h − 1`).
        expected: u64,
        /// Keys actually supplied.
        got: u64,
    },
    /// More keys than any materializable tree can hold.
    TooManyKeys {
        /// Keys supplied.
        got: u64,
        /// Hard ceiling (`2^31 − 1` — positions are stored as `u32`).
        max: u64,
    },
    /// A position table was not a permutation of `0..2^h − 1`.
    NotAPermutation {
        /// Human-readable description of the defect.
        detail: String,
    },
    /// Two composed components were built for different tree heights.
    HeightMismatch {
        /// Height of the first component (e.g. the layout).
        expected: u32,
        /// Height of the second component (e.g. the index).
        got: u32,
    },
    /// A probe batch handed to a sorted-batch search was not ascending:
    /// `batch[index] > batch[index + 1]` (equal adjacent probes are fine).
    UnsortedBatch {
        /// Index of the first descending adjacent pair.
        index: usize,
    },
    /// A layout name that [`crate::NamedLayout`] does not know.
    UnknownLayout {
        /// The unrecognized name.
        name: String,
    },
    /// Malformed serialized data (e.g. layout JSON or a tree-file
    /// region that violates the format's structural rules).
    Malformed {
        /// Human-readable description of the defect.
        detail: String,
    },
    /// An I/O operation on a tree file failed. Wraps the
    /// `std::io::Error` as text so this enum stays `Clone + PartialEq`.
    Io {
        /// The `std::io::ErrorKind`, stringified.
        kind: String,
        /// The underlying error message.
        detail: String,
    },
    /// A tree file does not start with the `COBT` magic bytes — it is
    /// not a cobtree file at all.
    BadMagic {
        /// The four bytes actually found.
        got: [u8; 4],
    },
    /// A tree file carries a format version this build cannot decode.
    UnsupportedVersion {
        /// Version found in the header.
        got: u16,
        /// Newest version this build supports.
        supported: u16,
    },
    /// A tree file is shorter than a region its header declares.
    Truncated {
        /// Bytes the header (or fixed header size) requires.
        needed: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// A stored checksum does not match the bytes it covers.
    ChecksumMismatch {
        /// Which checksum failed: `"header"` or `"content"`.
        region: &'static str,
    },
    /// A tree file stores keys of a different type than requested.
    KeyTypeMismatch {
        /// Type tag of the requested key type (see `format::FixedKey`).
        expected: u8,
        /// Type tag found in the file header.
        got: u8,
    },
    /// `Storage::Mapped` was requested from the key-set builder; mapped
    /// trees are opened from a saved file, not built from keys.
    MappedStorageRequiresFile,
    /// The shard that owns the requested key range is quarantined
    /// (failed a scrub or read-path checksum) and is not serving until
    /// the next flush heals it. Other shards remain available.
    ShardUnavailable {
        /// Dense index of the quarantined shard.
        shard: u32,
    },
    /// A wire-protocol frame names an opcode this build does not know
    /// (see [`crate::protocol`]).
    UnknownOpcode {
        /// The unrecognized opcode byte.
        op: u8,
    },
    /// A wire-protocol frame declares a body larger than the hard
    /// per-frame ceiling — treated as a framing error (desync or abuse)
    /// and grounds for closing the connection.
    FrameTooLarge {
        /// Declared body length.
        got: u64,
        /// Hard ceiling ([`crate::protocol::MAX_FRAME_BYTES`]).
        max: u64,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::HeightOutOfRange { height, min, max } => {
                write!(f, "tree height {height} out of supported range {min}..={max}")
            }
            Error::EmptyKeys => f.write_str("key set is empty"),
            Error::UnsortedKeys { index } => write!(
                f,
                "keys must be strictly ascending (violated at adjacent pair starting at index {index})"
            ),
            Error::KeyCountMismatch { expected, got } => {
                write!(f, "expected exactly {expected} keys for this tree shape, got {got}")
            }
            Error::TooManyKeys { got, max } => {
                write!(f, "{got} keys exceed the materializable maximum of {max}")
            }
            Error::NotAPermutation { detail } => {
                write!(f, "positions must form a permutation: {detail}")
            }
            Error::HeightMismatch { expected, got } => {
                write!(f, "components disagree on tree height: {expected} vs {got}")
            }
            Error::UnsortedBatch { index } => write!(
                f,
                "sorted-batch probes must be ascending (descending adjacent pair starting at index {index})"
            ),
            Error::UnknownLayout { name } => write!(f, "unknown layout name '{name}'"),
            Error::Malformed { detail } => write!(f, "malformed data: {detail}"),
            Error::Io { kind, detail } => write!(f, "i/o error ({kind}): {detail}"),
            Error::BadMagic { got } => {
                write!(f, "not a cobtree file: magic bytes {got:?} != b\"COBT\"")
            }
            Error::UnsupportedVersion { got, supported } => {
                write!(
                    f,
                    "tree-file format version {got} unsupported (this build reads <= {supported})"
                )
            }
            Error::Truncated { needed, got } => {
                write!(f, "tree file truncated: need {needed} bytes, have {got}")
            }
            Error::ChecksumMismatch { region } => {
                write!(f, "tree-file {region} checksum mismatch (corrupt or tampered data)")
            }
            Error::KeyTypeMismatch { expected, got } => write!(
                f,
                "tree file stores key type tag {got}, but key type tag {expected} was requested"
            ),
            Error::MappedStorageRequiresFile => f.write_str(
                "Storage::Mapped serves a saved tree file; build with an in-memory storage, \
                 then SearchTree::write_file and SearchTree::open",
            ),
            Error::ShardUnavailable { shard } => {
                write!(f, "shard {shard} is quarantined and unavailable until healed")
            }
            Error::UnknownOpcode { op } => write!(f, "unknown protocol opcode {op:#04x}"),
            Error::FrameTooLarge { got, max } => {
                write!(f, "protocol frame body of {got} bytes exceeds the {max}-byte ceiling")
            }
        }
    }
}

impl Error {
    /// Wraps a `std::io::Error` (tree-file persistence paths).
    #[must_use]
    pub fn io(e: &std::io::Error) -> Self {
        Error::Io {
            kind: e.kind().to_string(),
            detail: e.to_string(),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Validates that `keys` is non-empty and strictly ascending.
///
/// # Errors
/// [`Error::EmptyKeys`] or [`Error::UnsortedKeys`].
pub fn check_sorted_keys<K: Ord>(keys: &[K]) -> Result<()> {
    if keys.is_empty() {
        return Err(Error::EmptyKeys);
    }
    for (index, pair) in keys.windows(2).enumerate() {
        if pair[0] >= pair[1] {
            return Err(Error::UnsortedKeys { index });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::KeyCountMismatch {
            expected: 7,
            got: 6,
        };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('6'));
        let e = Error::UnknownLayout {
            name: "NOPE".into(),
        };
        assert!(e.to_string().contains("NOPE"));
    }

    #[test]
    fn sorted_key_checks() {
        assert_eq!(check_sorted_keys::<u64>(&[]), Err(Error::EmptyKeys));
        assert_eq!(check_sorted_keys(&[1u64]), Ok(()));
        assert_eq!(check_sorted_keys(&[1u64, 2, 3]), Ok(()));
        assert_eq!(
            check_sorted_keys(&[1u64, 3, 3]),
            Err(Error::UnsortedKeys { index: 1 })
        );
        assert_eq!(
            check_sorted_keys(&[2u64, 1]),
            Err(Error::UnsortedKeys { index: 0 })
        );
    }
}
