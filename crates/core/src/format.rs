//! The zero-copy on-disk tree-file format (`.cobt`).
//!
//! The paper's layouts are *static artifacts*: computed once, then
//! served from slow storage where the only thing that matters is that
//! **the byte order on the medium is the layout order** — every block
//! transfer then fetches exactly the nodes the layout put together.
//! This module defines the container that makes the claim operational: a
//! tree file is the padded key array in layout order, preceded by a
//! fixed header and a layout descriptor, with every region aligned to a
//! caller-chosen block size. A reader maps the file and serves searches
//! directly from the mapped bytes — no deserialization step exists.
//!
//! The byte-level specification lives in `docs/FORMAT.md`; this module
//! is its reference implementation. Summary:
//!
//! ```text
//! ┌────────────────────┐ offset 0, 96 bytes, little-endian throughout
//! │ header             │ magic, version, key type, descriptor kind,
//! │                    │ height, key count, block size, region table,
//! │                    │ content + header checksums (FNV-1a 64)
//! ├────────────────────┤ offset 96
//! │ descriptor         │ layout name (named kind) or label (table kind)
//! ├────────────────────┤ aligned up to block_bytes
//! │ key region         │ (2^h − 1) keys in layout order, fixed width,
//! │                    │ padding slots zeroed
//! ├────────────────────┤ aligned up to block_bytes (table kind only)
//! │ index region       │ u32 position per BFS node — the serialized
//! │                    │ PositionIndex for non-arithmetic layouts
//! └────────────────────┘
//! ```
//!
//! Two descriptor kinds cover every [`crate::NamedLayout`] /
//! `RecursiveSpec` / materialized-[`Layout`](crate::Layout) source:
//!
//! * **named** (`kind = 0`) — the descriptor region holds the layout's
//!   display name (e.g. `MINWEP`); the reader rebuilds the arithmetic
//!   indexer, so the file carries *no* position table at all;
//! * **table** (`kind = 1`) — the descriptor region holds a free-form
//!   label and the index region holds the materialized permutation
//!   (`u32` position per BFS node), validated as a permutation on open.
//!
//! **Format v2** adds B-ary *fat-node* geometry: header byte 10 stores
//! the node arity (`0` = binary, else a power of two in `2..=64` —
//! slots per chunk). Fat files use the named kind with a
//! [`crate::fat::FatLayout`] label (`FAT8-VEB`, …); their key region
//! holds [`crate::fat::fat_slot_capacity`] slots (chunks are padded to
//! the power-of-two stride, so the region exceeds `2^h − 1` slots) and
//! every structural rule is cross-checked on parse: arity must match
//! the label, the table kind must not carry an arity, and v1 files must
//! keep byte 10 zero. Version-1 files remain readable unchanged.
//!
//! Everything here is pure byte-slicing on `&[u8]`: [`parse`] returns a
//! [`Geometry`] of offsets (no borrows, no copies), and the accessors
//! take the file bytes by reference — whether those bytes come from
//! `std::fs::read` or an `mmap` region is the caller's business
//! (`cobtree-search`'s `MappedTree` does both).

use crate::error::{Error, Result};
use crate::named::NamedLayout;
use crate::tree::Tree;

/// The four magic bytes every tree file starts with.
pub const MAGIC: [u8; 4] = *b"COBT";

/// Newest format version this build reads and writes. Version 2 added
/// the fat-node arity byte (header byte 10); version-1 files are still
/// accepted (their byte 10 is reserved-zero, i.e. binary).
pub const VERSION: u16 = 2;

/// The endianness canary stored at offset 6: the format is defined
/// little-endian, and a writer that stored this constant through a
/// native-endian path on a big-endian machine is detected on read.
pub const ENDIAN_MARK: u16 = 0x1234;

/// Fixed header size in bytes; the descriptor region starts here.
pub const HEADER_LEN: usize = 96;

/// Default region alignment: one cache line / small disk block.
pub const DEFAULT_BLOCK_BYTES: u64 = 64;

/// Tallest tree the format can carry: positions are stored as `u32`, so
/// the node count `2^h − 1` must fit in `u32` (this matches the
/// facade's `MAX_KEYS` ceiling of `2^31 − 1` keys).
pub const MAX_FORMAT_HEIGHT: u32 = 31;

/// Byte offset of the content-checksum field (bytes `80..88`).
pub const CONTENT_HASH_OFFSET: usize = 80;

/// Byte offset of the header-checksum field (bytes `88..96`).
pub const HEADER_HASH_OFFSET: usize = 88;

// ---------------------------------------------------------------------------
// Fixed-width key codecs
// ---------------------------------------------------------------------------

/// A key type with a fixed little-endian wire encoding — the bound for
/// every persistence entry point ([`encode_tree`], `SearchTree::write_file`,
/// `MappedTree`). The `TAG` goes into the file header so a reader
/// opening the file under the wrong type gets a typed
/// [`Error::KeyTypeMismatch`] instead of garbage keys.
pub trait FixedKey: Copy + Ord + Send + Sync + 'static {
    /// Type tag stored in the header (must be unique per type).
    const TAG: u8;
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// `true` for two's-complement signed encodings — the SIMD
    /// rank-of-key kernels use it to pick between signed comparison and
    /// sign-bias + signed comparison on the raw lanes.
    const SIGNED: bool = false;
    /// Writes `self` into `out[..WIDTH]`, little-endian.
    fn write_le(self, out: &mut [u8]);
    /// Reads a key from `bytes[..WIDTH]`, little-endian.
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! impl_fixed_key {
    ($($t:ty => $tag:expr, $signed:expr),* $(,)?) => {$(
        impl FixedKey for $t {
            const TAG: u8 = $tag;
            const WIDTH: usize = std::mem::size_of::<$t>();
            const SIGNED: bool = $signed;
            #[inline]
            fn write_le(self, out: &mut [u8]) {
                out[..Self::WIDTH].copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes[..Self::WIDTH].try_into().expect("validated region"))
            }
        }
    )*};
}

impl_fixed_key!(
    u32 => 1, false,
    u64 => 2, false,
    i32 => 3, true,
    i64 => 4, true,
    u16 => 5, false,
    u128 => 6, false,
);

/// Human-readable name for a key type tag, for error messages and the
/// `serve` experiment's format table.
#[must_use]
pub fn key_tag_name(tag: u8) -> &'static str {
    match tag {
        1 => "u32",
        2 => "u64",
        3 => "i32",
        4 => "i64",
        5 => "u16",
        6 => "u128",
        _ => "unknown",
    }
}

fn known_key_tag(tag: u8) -> bool {
    (1..=6).contains(&tag)
}

// ---------------------------------------------------------------------------
// Descriptor
// ---------------------------------------------------------------------------

/// How the layout travels inside the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescriptorKind {
    /// Descriptor region holds a [`NamedLayout`] display name; the
    /// reader rebuilds the arithmetic indexer (no index region).
    Named,
    /// Descriptor region holds a free-form label; the index region
    /// holds the materialized `u32` position table, node-indexed.
    Table,
}

impl DescriptorKind {
    fn to_byte(self) -> u8 {
        match self {
            DescriptorKind::Named => 0,
            DescriptorKind::Table => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(DescriptorKind::Named),
            1 => Some(DescriptorKind::Table),
            _ => None,
        }
    }
}

/// Layout descriptor handed to [`encode_tree`].
#[derive(Debug, Clone, Copy)]
pub enum Descriptor<'a> {
    /// A Table I layout, stored by name — the reader recomputes
    /// positions arithmetically, and the file carries no table.
    Named(NamedLayout),
    /// A B-ary fat-node layout (format v2): stored by its
    /// `FAT<arity>-<ORDER>` label with the arity duplicated in header
    /// byte 10, key region sized to the fat slot capacity. The reader
    /// rebuilds the arithmetic [`crate::fat::FatIndex`]; no index
    /// region.
    Fat(crate::fat::FatLayout),
    /// Any other layout, stored as its materialized permutation.
    Table {
        /// Human-readable label (informational; round-trips).
        label: &'a str,
        /// `positions_by_node[i - 1]` = 0-based position of BFS node `i`
        /// (exactly [`crate::Layout::positions`]).
        positions_by_node: &'a [u32],
    },
}

// ---------------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes`, continuing from `state` (seed with
/// [`fnv1a_init`]). Exposed so tests and tools can re-seal patched
/// files; not a cryptographic hash — it detects corruption, not
/// adversaries.
#[must_use]
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// The FNV-1a 64 offset basis (initial state for [`fnv1a`]).
#[must_use]
pub fn fnv1a_init() -> u64 {
    FNV_OFFSET
}

// ---------------------------------------------------------------------------
// Geometry: the parsed, validated header
// ---------------------------------------------------------------------------

/// The validated header of a tree file: plain offsets and sizes, no
/// borrow of the file bytes — so a self-contained reader can own both
/// the mapping and this struct side by side.
#[derive(Debug, Clone)]
pub struct Geometry {
    /// Format version found in the file.
    pub version: u16,
    /// Key type tag (see [`FixedKey::TAG`] / [`key_tag_name`]).
    pub key_tag: u8,
    /// Descriptor kind.
    pub kind: DescriptorKind,
    /// Tree height `h`; the key region holds `2^h − 1` slots.
    pub height: u32,
    /// Stored (real) keys; ranks `key_count + 1 ..= 2^h − 1` are padding.
    pub key_count: u64,
    /// Fat-node arity (slots per chunk): `0` for binary files, else a
    /// power of two in `2..=64` (format v2, matching the `FAT*` label).
    pub arity: u8,
    /// Region alignment the writer used (power of two).
    pub block_bytes: u64,
    /// Descriptor region `(offset, length)` in bytes.
    pub descriptor: (usize, usize),
    /// Key region `(offset, length)` in bytes.
    pub keys: (usize, usize),
    /// Index region `(offset, length)` in bytes (`length == 0` for the
    /// named kind).
    pub index: (usize, usize),
}

impl Geometry {
    /// Slot count of the complete tree, `2^h − 1`. Ranks and key
    /// counts are bounded by this regardless of arity.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        (1u64 << self.height) - 1
    }

    /// Storage slots in the key region: [`Geometry::capacity`] for
    /// binary files, [`crate::fat::fat_slot_capacity`] for fat files
    /// (chunk padding makes it larger).
    #[must_use]
    pub fn slots(&self) -> u64 {
        if self.arity == 0 {
            self.capacity()
        } else {
            crate::fat::fat_slot_capacity(self.height, u32::from(self.arity).trailing_zeros())
        }
    }

    /// Per-key width in bytes implied by the key region.
    #[must_use]
    pub fn key_width(&self) -> usize {
        (self.keys.1 as u64 / self.slots()) as usize
    }

    /// The descriptor string (layout name or label).
    ///
    /// # Panics
    /// Panics if `file` is not the buffer this geometry was parsed from
    /// (the region was UTF-8-validated by [`parse`]).
    #[must_use]
    pub fn descriptor_str<'a>(&self, file: &'a [u8]) -> &'a str {
        let (off, len) = self.descriptor;
        std::str::from_utf8(&file[off..off + len]).expect("descriptor validated by parse()")
    }

    /// The key region bytes.
    #[must_use]
    pub fn key_bytes<'a>(&self, file: &'a [u8]) -> &'a [u8] {
        let (off, len) = self.keys;
        &file[off..off + len]
    }

    /// Reads the key stored at layout position `pos` directly from the
    /// file bytes. Callers are responsible for not reading padding
    /// slots (their contents are unspecified; the writer zeroes them).
    #[inline]
    #[must_use]
    pub fn key_at_position<K: FixedKey>(&self, file: &[u8], pos: u64) -> K {
        debug_assert!(pos < self.slots());
        let off = self.keys.0 + (pos as usize) * K::WIDTH;
        K::read_le(&file[off..off + K::WIDTH])
    }

    /// Reads the layout position of BFS `node` from the index region
    /// (table kind only).
    ///
    /// # Panics
    /// Panics (debug) if the geometry has no index region.
    #[inline]
    #[must_use]
    pub fn table_position(&self, file: &[u8], node: u64) -> u64 {
        debug_assert_eq!(self.kind, DescriptorKind::Table);
        let off = self.index.0 + ((node - 1) as usize) * 4;
        u64::from(u32::from_le_bytes(
            file[off..off + 4].try_into().expect("validated region"),
        ))
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn align_up(off: u64, align: u64) -> u64 {
    off.div_ceil(align) * align
}

fn check_shape(height: u32, key_count: u64, block_bytes: u64) -> Result<u64> {
    Tree::try_new(height)?;
    if height > MAX_FORMAT_HEIGHT {
        return Err(Error::HeightOutOfRange {
            height,
            min: 1,
            max: MAX_FORMAT_HEIGHT,
        });
    }
    let capacity = (1u64 << height) - 1;
    if key_count == 0 {
        return Err(Error::EmptyKeys);
    }
    if key_count > capacity {
        return Err(Error::KeyCountMismatch {
            expected: capacity,
            got: key_count,
        });
    }
    if block_bytes == 0 || !block_bytes.is_power_of_two() || block_bytes > (1 << 30) {
        return Err(Error::Malformed {
            detail: format!("block_bytes {block_bytes} must be a power of two in 1..=2^30"),
        });
    }
    Ok(capacity)
}

/// Serializes a tree into a fresh byte buffer in the `.cobt` format.
///
/// `key_at_position(p)` must return the key stored at layout position
/// `p` for real slots and `None` for padding slots (which are written as
/// zero bytes). The caller guarantees the mapping is consistent with
/// the descriptor — `cobtree-search`'s `SearchTree::encode` derives both
/// from one shared position index, and the round-trip property tests
/// hold it to that.
///
/// # Errors
/// [`Error::HeightOutOfRange`] / [`Error::EmptyKeys`] /
/// [`Error::KeyCountMismatch`] / [`Error::Malformed`] on an impossible
/// shape, and [`Error::NotAPermutation`] when a table descriptor's
/// length does not match the tree.
pub fn encode_tree<K: FixedKey>(
    height: u32,
    key_count: u64,
    block_bytes: u64,
    descriptor: &Descriptor<'_>,
    mut key_at_position: impl FnMut(u64) -> Option<K>,
) -> Result<Vec<u8>> {
    let capacity = check_shape(height, key_count, block_bytes)?;

    let (kind, arity, desc_label): (DescriptorKind, u8, String) = match descriptor {
        Descriptor::Named(layout) => (DescriptorKind::Named, 0, layout.label().to_string()),
        Descriptor::Fat(layout) => (
            DescriptorKind::Named,
            layout.arity() as u8,
            layout.label().to_string(),
        ),
        Descriptor::Table {
            label,
            positions_by_node,
        } => {
            if positions_by_node.len() as u64 != capacity {
                return Err(Error::NotAPermutation {
                    detail: format!(
                        "descriptor table has {} entries, tree needs {capacity}",
                        positions_by_node.len()
                    ),
                });
            }
            (DescriptorKind::Table, 0, (*label).to_string())
        }
    };
    let slots = match descriptor {
        Descriptor::Fat(layout) => {
            crate::fat::FatIndex::try_new(*layout, height)?;
            crate::fat::fat_slot_capacity(height, layout.span())
        }
        _ => capacity,
    };
    let desc_bytes = desc_label.as_bytes();

    let desc_off = HEADER_LEN as u64;
    let desc_len = desc_bytes.len() as u64;
    let key_off = align_up(desc_off + desc_len, block_bytes);
    let key_len = slots * K::WIDTH as u64;
    let (index_off, index_len) = match kind {
        DescriptorKind::Named => (align_up(key_off + key_len, block_bytes), 0),
        DescriptorKind::Table => (align_up(key_off + key_len, block_bytes), capacity * 4),
    };
    let total = (index_off + index_len) as usize;

    let mut out = vec![0u8; total];
    out[0..4].copy_from_slice(&MAGIC);
    out[4..6].copy_from_slice(&VERSION.to_le_bytes());
    out[6..8].copy_from_slice(&ENDIAN_MARK.to_le_bytes());
    out[8] = K::TAG;
    out[9] = kind.to_byte();
    out[10] = arity;
    // byte 11 reserved, zero.
    out[12..16].copy_from_slice(&height.to_le_bytes());
    out[16..24].copy_from_slice(&key_count.to_le_bytes());
    out[24..32].copy_from_slice(&block_bytes.to_le_bytes());
    out[32..40].copy_from_slice(&desc_off.to_le_bytes());
    out[40..48].copy_from_slice(&desc_len.to_le_bytes());
    out[48..56].copy_from_slice(&key_off.to_le_bytes());
    out[56..64].copy_from_slice(&key_len.to_le_bytes());
    out[64..72].copy_from_slice(&index_off.to_le_bytes());
    out[72..80].copy_from_slice(&index_len.to_le_bytes());

    out[desc_off as usize..(desc_off + desc_len) as usize].copy_from_slice(desc_bytes);

    for p in 0..slots {
        if let Some(k) = key_at_position(p) {
            let off = key_off as usize + (p as usize) * K::WIDTH;
            k.write_le(&mut out[off..off + K::WIDTH]);
        }
    }

    if let Descriptor::Table {
        positions_by_node, ..
    } = descriptor
    {
        for (i, &p) in positions_by_node.iter().enumerate() {
            let off = index_off as usize + i * 4;
            out[off..off + 4].copy_from_slice(&p.to_le_bytes());
        }
    }

    seal_content_hash(&mut out);
    seal_header_hash(&mut out);
    Ok(out)
}

/// Recomputes and stores the content checksum of an encoded file (over
/// every byte after the header — regions *and* their alignment
/// padding, so no byte of the file escapes integrity coverage). Public
/// so tests can re-seal deliberately patched files; returns the stored
/// hash.
///
/// # Panics
/// Panics if `file` is shorter than the header.
pub fn seal_content_hash(file: &mut [u8]) -> u64 {
    let hash = content_hash(file);
    file[CONTENT_HASH_OFFSET..CONTENT_HASH_OFFSET + 8].copy_from_slice(&hash.to_le_bytes());
    hash
}

/// Recomputes and stores the header checksum (over bytes
/// `0..HEADER_HASH_OFFSET`); call after [`seal_content_hash`]. Public
/// for the same test/tooling reasons; returns the stored hash.
///
/// # Panics
/// Panics if `file` is shorter than the header.
pub fn seal_header_hash(file: &mut [u8]) -> u64 {
    let hash = fnv1a(fnv1a_init(), &file[..HEADER_HASH_OFFSET]);
    file[HEADER_HASH_OFFSET..HEADER_HASH_OFFSET + 8].copy_from_slice(&hash.to_le_bytes());
    hash
}

fn content_hash(file: &[u8]) -> u64 {
    fnv1a(fnv1a_init(), &file[HEADER_LEN..])
}

// ---------------------------------------------------------------------------
// Parsing / validation
// ---------------------------------------------------------------------------

fn read_u16(file: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(file[at..at + 2].try_into().expect("bounds checked"))
}

fn read_u32(file: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(file[at..at + 4].try_into().expect("bounds checked"))
}

fn read_u64(file: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(file[at..at + 8].try_into().expect("bounds checked"))
}

fn region(file: &[u8], off: u64, len: u64, what: &str) -> Result<(usize, usize)> {
    let end = off.checked_add(len).ok_or_else(|| Error::Malformed {
        detail: format!("{what} region offset overflow"),
    })?;
    if end > file.len() as u64 {
        return Err(Error::Truncated {
            needed: end,
            got: file.len() as u64,
        });
    }
    Ok((off as usize, len as usize))
}

/// Parses and fully validates a tree file: magic, version, endianness,
/// header checksum, shape, region table (bounds, ordering, alignment,
/// sizes), content checksum, descriptor (UTF-8; a known layout name for
/// the named kind), and — for the table kind — that the index region is
/// a genuine permutation of `0..2^h − 1`.
///
/// Validation is `O(file size)` (dominated by the checksum); nothing is
/// copied out of `file`.
///
/// # Errors
/// Every malformed input maps to a typed [`Error`] — this function (and
/// everything downstream of it) must never panic on untrusted bytes:
/// [`Error::Truncated`], [`Error::BadMagic`],
/// [`Error::UnsupportedVersion`], [`Error::ChecksumMismatch`],
/// [`Error::Malformed`], [`Error::HeightOutOfRange`],
/// [`Error::EmptyKeys`], [`Error::KeyCountMismatch`],
/// [`Error::NotAPermutation`], or [`Error::UnknownLayout`].
pub fn parse(file: &[u8]) -> Result<Geometry> {
    // Foreign files announce themselves by their first bytes even when
    // shorter than our header.
    if file.len() >= 4 && file[0..4] != MAGIC {
        return Err(Error::BadMagic {
            got: file[0..4].try_into().expect("length checked"),
        });
    }
    if file.len() < HEADER_LEN {
        return Err(Error::Truncated {
            needed: HEADER_LEN as u64,
            got: file.len() as u64,
        });
    }
    let version = read_u16(file, 4);
    if version == 0 || version > VERSION {
        return Err(Error::UnsupportedVersion {
            got: version,
            supported: VERSION,
        });
    }
    if read_u16(file, 6) != ENDIAN_MARK {
        return Err(Error::Malformed {
            detail: "endianness marker mismatch (file written with non-little-endian encoding)"
                .into(),
        });
    }
    let stored_header_hash = read_u64(file, HEADER_HASH_OFFSET);
    if fnv1a(fnv1a_init(), &file[..HEADER_HASH_OFFSET]) != stored_header_hash {
        return Err(Error::ChecksumMismatch { region: "header" });
    }

    let key_tag = file[8];
    if !known_key_tag(key_tag) {
        return Err(Error::Malformed {
            detail: format!("unknown key type tag {key_tag}"),
        });
    }
    let kind = DescriptorKind::from_byte(file[9]).ok_or_else(|| Error::Malformed {
        detail: format!("unknown descriptor kind {}", file[9]),
    })?;
    let arity = file[10];
    if version < 2 && arity != 0 {
        return Err(Error::Malformed {
            detail: "reserved header bytes 10..12 must be zero".into(),
        });
    }
    if arity != 0 && (!arity.is_power_of_two() || !(2..=64).contains(&arity)) {
        return Err(Error::Malformed {
            detail: format!("fat arity {arity} unsupported (power of two in 2..=64, or 0)"),
        });
    }
    if arity != 0 && kind != DescriptorKind::Named {
        return Err(Error::Malformed {
            detail: "fat geometry requires the named descriptor kind".into(),
        });
    }
    if file[11] != 0 {
        return Err(Error::Malformed {
            detail: "reserved header byte 11 must be zero".into(),
        });
    }

    let height = read_u32(file, 12);
    let key_count = read_u64(file, 16);
    let block_bytes = read_u64(file, 24);
    let capacity = check_shape(height, key_count, block_bytes)?;
    let slots = if arity == 0 {
        capacity
    } else {
        crate::fat::fat_slot_capacity(height, u32::from(arity).trailing_zeros())
    };

    let descriptor = region(file, read_u64(file, 32), read_u64(file, 40), "descriptor")?;
    let keys = region(file, read_u64(file, 48), read_u64(file, 56), "key")?;
    let index = region(file, read_u64(file, 64), read_u64(file, 72), "index")?;

    if descriptor.0 != HEADER_LEN {
        return Err(Error::Malformed {
            detail: format!(
                "descriptor region must start at {HEADER_LEN}, not {}",
                descriptor.0
            ),
        });
    }
    if (keys.0 as u64) % block_bytes != 0 || keys.0 < descriptor.0 + descriptor.1 {
        return Err(Error::Malformed {
            detail: "key region must be block-aligned after the descriptor".into(),
        });
    }
    let width = key_width_of(key_tag);
    if keys.1 as u64 != slots * width as u64 {
        return Err(Error::Malformed {
            detail: format!(
                "key region length {} != slot count {slots} x key width {width}",
                keys.1
            ),
        });
    }
    match kind {
        DescriptorKind::Named => {
            if index.1 != 0 {
                return Err(Error::Malformed {
                    detail: "named-layout files must not carry an index region".into(),
                });
            }
        }
        DescriptorKind::Table => {
            if index.1 as u64 != capacity * 4 {
                return Err(Error::Malformed {
                    detail: format!("index region length {} != capacity {capacity} x 4", index.1),
                });
            }
            if (index.0 as u64) % block_bytes != 0 || index.0 < keys.0 + keys.1 {
                return Err(Error::Malformed {
                    detail: "index region must be block-aligned after the key region".into(),
                });
            }
        }
    }

    if content_hash(file) != read_u64(file, CONTENT_HASH_OFFSET) {
        return Err(Error::ChecksumMismatch { region: "content" });
    }

    let desc_str =
        std::str::from_utf8(&file[descriptor.0..descriptor.0 + descriptor.1]).map_err(|_| {
            Error::Malformed {
                detail: "descriptor region is not UTF-8".into(),
            }
        })?;
    match kind {
        DescriptorKind::Named if arity != 0 => {
            // Fat geometry: the label must be a fat layout AND agree
            // with the header's arity byte (errors as UnknownLayout for
            // an unparseable label, Malformed for a disagreement).
            let layout: crate::fat::FatLayout = desc_str.parse()?;
            if layout.arity() != u32::from(arity) {
                return Err(Error::Malformed {
                    detail: format!(
                        "descriptor label {desc_str} disagrees with header arity {arity}"
                    ),
                });
            }
        }
        DescriptorKind::Named => {
            // Errors as UnknownLayout with the offending name.
            let _: NamedLayout = desc_str.parse()?;
        }
        DescriptorKind::Table => {
            // O(n) permutation check over the mapped table — the one
            // pass that makes every later table_position() infallible.
            let mut seen = vec![false; capacity as usize];
            for node in 1..=capacity {
                let off = index.0 + ((node - 1) as usize) * 4;
                let p = read_u32(file, off) as u64;
                if p >= capacity || seen[p as usize] {
                    return Err(Error::NotAPermutation {
                        detail: format!(
                            "index entry for node {node}: position {p} out of range or repeated"
                        ),
                    });
                }
                seen[p as usize] = true;
            }
        }
    }

    Ok(Geometry {
        version,
        key_tag,
        kind,
        height,
        key_count,
        arity,
        block_bytes,
        descriptor,
        keys,
        index,
    })
}

/// Checks that the file's key type matches `K`, after [`parse`].
///
/// # Errors
/// [`Error::KeyTypeMismatch`] when the tags differ.
pub fn expect_key_type<K: FixedKey>(geometry: &Geometry) -> Result<()> {
    if geometry.key_tag != K::TAG {
        return Err(Error::KeyTypeMismatch {
            expected: K::TAG,
            got: geometry.key_tag,
        });
    }
    Ok(())
}

fn key_width_of(tag: u8) -> usize {
    match tag {
        1 => u32::WIDTH,
        2 => u64::WIDTH,
        3 => i32::WIDTH,
        4 => i64::WIDTH,
        5 => u16::WIDTH,
        6 => u128::WIDTH,
        _ => unreachable!("tag validated by known_key_tag"),
    }
}

// ---------------------------------------------------------------------------
// Forest manifest (`.cobf`)
// ---------------------------------------------------------------------------

/// The four magic bytes every forest manifest starts with.
pub const FOREST_MAGIC: [u8; 4] = *b"COBF";

/// The static-forest manifest version ([`encode_manifest`] writes it;
/// both parsers accept it).
pub const FOREST_VERSION: u16 = 1;

/// The tiered-engine manifest version: adds the epoch counter, the
/// memtable flush record and per-shard file generations
/// ([`encode_manifest_v2`] writes it; both parsers accept it).
pub const FOREST_VERSION_V2: u16 = 2;

/// Fixed version-1 manifest header size in bytes; shard entries start
/// here.
pub const MANIFEST_HEADER_LEN: usize = 40;

/// Fixed version-2 manifest header size in bytes (the extra 24 bytes
/// hold the epoch and the memtable flush record).
pub const MANIFEST_V2_HEADER_LEN: usize = 64;

/// One shard's row in a forest manifest: how many keys the shard holds
/// and — for occupied shards — the smallest and largest of them (the
/// fence data the router is rebuilt from on open). Empty shards (range
/// partitions that received no keys) carry `bounds: None` and no file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardManifest<K> {
    /// Keys stored in this shard's tree file (`0` for an empty shard).
    pub key_count: u64,
    /// `(first_key, last_key)` of the shard, `None` when empty.
    pub bounds: Option<(K, K)>,
}

fn manifest_stride<K: FixedKey>() -> usize {
    // flag byte + key count + first + last.
    1 + 8 + 2 * K::WIDTH
}

/// Serializes a forest manifest: the shard count, total key count and
/// per-shard `(key_count, first_key, last_key)` rows, sealed with the
/// same FNV-1a header/content checksums as tree files. Shard order is
/// the range-partition order; occupied shards must be non-overlapping
/// and ascending.
///
/// # Errors
/// [`Error::EmptyKeys`] when no shard holds a key, and
/// [`Error::Malformed`] for zero shards, inverted bounds
/// (`first > last`), a zero-count shard with bounds (or vice versa), or
/// occupied shards out of ascending fence order.
pub fn encode_manifest<K: FixedKey>(shards: &[ShardManifest<K>]) -> Result<Vec<u8>> {
    if shards.is_empty() {
        return Err(Error::Malformed {
            detail: "a forest manifest needs at least one shard".into(),
        });
    }
    if shards.len() > u32::MAX as usize {
        return Err(Error::Malformed {
            detail: format!("{} shards exceed the manifest's u32 ceiling", shards.len()),
        });
    }
    let mut total = 0u64;
    let mut prev_last: Option<K> = None;
    for (i, s) in shards.iter().enumerate() {
        match (s.key_count, s.bounds) {
            (0, None) => {}
            (0, Some(_)) | (_, None) => {
                return Err(Error::Malformed {
                    detail: format!("shard {i}: key count and bounds disagree about emptiness"),
                });
            }
            (_, Some((first, last))) => {
                if first > last {
                    return Err(Error::Malformed {
                        detail: format!("shard {i}: first key sorts above last key"),
                    });
                }
                if let Some(p) = prev_last {
                    if first <= p {
                        return Err(Error::Malformed {
                            detail: format!("shard {i}: fence overlaps the previous shard"),
                        });
                    }
                }
                prev_last = Some(last);
            }
        }
        total = total.checked_add(s.key_count).ok_or(Error::Malformed {
            detail: "manifest key counts overflow u64".into(),
        })?;
    }
    if total == 0 {
        return Err(Error::EmptyKeys);
    }

    let stride = manifest_stride::<K>();
    let mut out = vec![0u8; MANIFEST_HEADER_LEN + shards.len() * stride];
    out[0..4].copy_from_slice(&FOREST_MAGIC);
    out[4..6].copy_from_slice(&FOREST_VERSION.to_le_bytes());
    out[6..8].copy_from_slice(&ENDIAN_MARK.to_le_bytes());
    out[8] = K::TAG;
    // bytes 9..12 reserved, zero.
    out[12..16].copy_from_slice(&(shards.len() as u32).to_le_bytes());
    out[16..24].copy_from_slice(&total.to_le_bytes());
    for (i, s) in shards.iter().enumerate() {
        let off = MANIFEST_HEADER_LEN + i * stride;
        if let Some((first, last)) = s.bounds {
            out[off] = 1;
            out[off + 1..off + 9].copy_from_slice(&s.key_count.to_le_bytes());
            first.write_le(&mut out[off + 9..off + 9 + K::WIDTH]);
            last.write_le(&mut out[off + 9 + K::WIDTH..off + 9 + 2 * K::WIDTH]);
        }
    }
    // Content hash covers the entry rows; header hash covers bytes 0..24
    // plus the sealed content hash (same discipline as tree files).
    let content = fnv1a(fnv1a_init(), &out[MANIFEST_HEADER_LEN..]);
    out[24..32].copy_from_slice(&content.to_le_bytes());
    let header = fnv1a(fnv1a_init(), &out[..32]);
    out[32..40].copy_from_slice(&header.to_le_bytes());
    Ok(out)
}

/// Parses and fully validates a forest manifest: magic, version,
/// endianness, checksums, key type, and the same shard-row invariants
/// [`encode_manifest`] enforces. Returns the shard rows in partition
/// order. Accepts both version-1 and version-2 manifests; version-2
/// extras (epoch, flush record, generations) are dropped — use
/// [`parse_manifest_v2`] to keep them.
///
/// # Errors
/// [`Error::BadMagic`] / [`Error::Truncated`] /
/// [`Error::UnsupportedVersion`] / [`Error::ChecksumMismatch`] /
/// [`Error::KeyTypeMismatch`] / [`Error::Malformed`] /
/// [`Error::EmptyKeys`] — never a panic on untrusted bytes. A
/// version-2 manifest recording zero keys (legal for a drained tiered
/// engine) is [`Error::EmptyKeys`] here, because the static forest
/// this row shape describes cannot be empty.
pub fn parse_manifest<K: FixedKey>(bytes: &[u8]) -> Result<Vec<ShardManifest<K>>> {
    let m = parse_manifest_v2::<K>(bytes)?;
    if m.total_keys() == 0 {
        return Err(Error::EmptyKeys);
    }
    Ok(m.shards
        .into_iter()
        .map(|r| ShardManifest {
            key_count: r.key_count,
            bounds: r.bounds,
        })
        .collect())
}

/// One shard's row in a **version-2** manifest: the v1 fence data plus
/// the shard file's *generation* — a store-wide unique file id, so a
/// compaction can publish rebuilt shards under fresh names while
/// carrying untouched shard files forward without renaming them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRecord<K> {
    /// Keys stored in this shard's tree file (`0` for an empty slot).
    pub key_count: u64,
    /// `(first_key, last_key)` of the shard, `None` when empty.
    pub bounds: Option<(K, K)>,
    /// File generation the shard was written under (`0` for empty
    /// slots and for rows converted from a version-1 manifest).
    pub generation: u64,
}

/// A parsed **version-2** forest manifest: the epoch counter that
/// orders published states, the memtable flush record (how many buffer
/// insertions and tombstones the publishing flush applied), and the
/// generation-stamped shard rows. Version-1 bytes parse into this
/// shape with `epoch`, the flush record and every generation zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestV2<K> {
    /// Publication counter: each successful flush/compaction writes a
    /// new manifest with the next epoch. `0` only for v1 conversions.
    pub epoch: u64,
    /// Memtable insertions applied by the flush that published this
    /// epoch (observability; not needed to rebuild the router).
    pub flushed_inserts: u64,
    /// Tombstones applied by that flush.
    pub flushed_tombstones: u64,
    /// Shard rows in partition order.
    pub shards: Vec<ShardRecord<K>>,
}

impl<K> ManifestV2<K> {
    /// Total key count across the rows. Unlike version 1, zero is
    /// legal: it represents a fully drained tiered engine.
    #[must_use]
    pub fn total_keys(&self) -> u64 {
        self.shards.iter().map(|r| r.key_count).sum()
    }
}

fn manifest_stride_v2<K: FixedKey>() -> usize {
    // flag byte + key count + generation + first + last.
    1 + 8 + 8 + 2 * K::WIDTH
}

/// Shared row-shape validation for both manifest encoders: bounds
/// agree with the count, `first <= last`, occupied fences strictly
/// ascending. Returns the total key count.
fn check_manifest_rows<K: Ord + Copy>(
    rows: impl Iterator<Item = (u64, Option<(K, K)>)>,
) -> Result<u64> {
    let mut total = 0u64;
    let mut prev_last: Option<K> = None;
    for (i, (key_count, bounds)) in rows.enumerate() {
        match (key_count, bounds) {
            (0, None) => {}
            (0, Some(_)) | (_, None) => {
                return Err(Error::Malformed {
                    detail: format!("shard {i}: key count and bounds disagree about emptiness"),
                });
            }
            (_, Some((first, last))) => {
                if first > last {
                    return Err(Error::Malformed {
                        detail: format!("shard {i}: first key sorts above last key"),
                    });
                }
                if let Some(p) = prev_last {
                    if first <= p {
                        return Err(Error::Malformed {
                            detail: format!("shard {i}: fence overlaps the previous shard"),
                        });
                    }
                }
                prev_last = Some(last);
            }
        }
        total = total.checked_add(key_count).ok_or(Error::Malformed {
            detail: "manifest key counts overflow u64".into(),
        })?;
    }
    Ok(total)
}

/// Serializes a **version-2** forest manifest: the v1 row data plus
/// the epoch counter, the memtable flush record and per-shard file
/// generations, sealed with the same FNV-1a header/content checksum
/// discipline. Unlike [`encode_manifest`], a zero total key count is
/// accepted — a tiered engine whose every key was tombstoned away
/// still publishes a (fully empty) state.
///
/// # Errors
/// [`Error::Malformed`] for zero shards, inverted bounds, a
/// count/bounds disagreement, occupied shards out of ascending fence
/// order, or a non-zero generation on an empty slot.
pub fn encode_manifest_v2<K: FixedKey>(manifest: &ManifestV2<K>) -> Result<Vec<u8>> {
    let shards = &manifest.shards;
    if shards.is_empty() {
        return Err(Error::Malformed {
            detail: "a forest manifest needs at least one shard".into(),
        });
    }
    if shards.len() > u32::MAX as usize {
        return Err(Error::Malformed {
            detail: format!("{} shards exceed the manifest's u32 ceiling", shards.len()),
        });
    }
    let total = check_manifest_rows(shards.iter().map(|r| (r.key_count, r.bounds)))?;
    if let Some(i) = shards
        .iter()
        .position(|r| r.bounds.is_none() && r.generation != 0)
    {
        return Err(Error::Malformed {
            detail: format!("shard {i}: empty slot carries a non-zero generation"),
        });
    }

    let stride = manifest_stride_v2::<K>();
    let mut out = vec![0u8; MANIFEST_V2_HEADER_LEN + shards.len() * stride];
    out[0..4].copy_from_slice(&FOREST_MAGIC);
    out[4..6].copy_from_slice(&FOREST_VERSION_V2.to_le_bytes());
    out[6..8].copy_from_slice(&ENDIAN_MARK.to_le_bytes());
    out[8] = K::TAG;
    // bytes 9..12 reserved, zero.
    out[12..16].copy_from_slice(&(shards.len() as u32).to_le_bytes());
    out[16..24].copy_from_slice(&total.to_le_bytes());
    out[24..32].copy_from_slice(&manifest.epoch.to_le_bytes());
    out[32..40].copy_from_slice(&manifest.flushed_inserts.to_le_bytes());
    out[40..48].copy_from_slice(&manifest.flushed_tombstones.to_le_bytes());
    for (i, r) in shards.iter().enumerate() {
        let off = MANIFEST_V2_HEADER_LEN + i * stride;
        if let Some((first, last)) = r.bounds {
            out[off] = 1;
            out[off + 1..off + 9].copy_from_slice(&r.key_count.to_le_bytes());
            out[off + 9..off + 17].copy_from_slice(&r.generation.to_le_bytes());
            first.write_le(&mut out[off + 17..off + 17 + K::WIDTH]);
            last.write_le(&mut out[off + 17 + K::WIDTH..off + 17 + 2 * K::WIDTH]);
        }
    }
    let content = fnv1a(fnv1a_init(), &out[MANIFEST_V2_HEADER_LEN..]);
    out[48..56].copy_from_slice(&content.to_le_bytes());
    let header = fnv1a(fnv1a_init(), &out[..56]);
    out[56..64].copy_from_slice(&header.to_le_bytes());
    Ok(out)
}

/// Parses and fully validates a forest manifest of **either version**,
/// returning the version-2 view: version-1 bytes surface with `epoch`,
/// the flush record and every generation zero; version-2 bytes carry
/// them through. Validation mirrors [`parse_manifest`] (typed errors,
/// never panics), except that a zero total key count is accepted for
/// version-2 bytes.
///
/// # Errors
/// [`Error::BadMagic`] / [`Error::Truncated`] /
/// [`Error::UnsupportedVersion`] / [`Error::ChecksumMismatch`] /
/// [`Error::KeyTypeMismatch`] / [`Error::Malformed`] /
/// [`Error::EmptyKeys`] (version-1 bytes only).
pub fn parse_manifest_v2<K: FixedKey>(bytes: &[u8]) -> Result<ManifestV2<K>> {
    if bytes.len() >= 4 && bytes[0..4] != FOREST_MAGIC {
        return Err(Error::BadMagic {
            got: bytes[0..4].try_into().expect("length checked"),
        });
    }
    if bytes.len() < MANIFEST_HEADER_LEN {
        return Err(Error::Truncated {
            needed: MANIFEST_HEADER_LEN as u64,
            got: bytes.len() as u64,
        });
    }
    let version = read_u16(bytes, 4);
    if version == 0 || version > FOREST_VERSION_V2 {
        return Err(Error::UnsupportedVersion {
            got: version,
            supported: FOREST_VERSION_V2,
        });
    }
    let v2 = version == FOREST_VERSION_V2;
    let header_len = if v2 {
        MANIFEST_V2_HEADER_LEN
    } else {
        MANIFEST_HEADER_LEN
    };
    if bytes.len() < header_len {
        return Err(Error::Truncated {
            needed: header_len as u64,
            got: bytes.len() as u64,
        });
    }
    if read_u16(bytes, 6) != ENDIAN_MARK {
        return Err(Error::Malformed {
            detail: "endianness marker mismatch in forest manifest".into(),
        });
    }
    // v1 seals the header hash over bytes 0..32 at offset 32; v2 over
    // bytes 0..56 at offset 56 (the wider header).
    let (header_covered, header_at, content_at) = if v2 { (56, 56, 48) } else { (32, 32, 24) };
    if fnv1a(fnv1a_init(), &bytes[..header_covered]) != read_u64(bytes, header_at) {
        return Err(Error::ChecksumMismatch { region: "header" });
    }
    if bytes[8] != K::TAG {
        return Err(Error::KeyTypeMismatch {
            expected: K::TAG,
            got: bytes[8],
        });
    }
    if bytes[9] != 0 || read_u16(bytes, 10) != 0 {
        return Err(Error::Malformed {
            detail: "reserved manifest bytes 9..12 must be zero".into(),
        });
    }
    let shard_count = read_u32(bytes, 12) as usize;
    if shard_count == 0 {
        return Err(Error::Malformed {
            detail: "a forest manifest needs at least one shard".into(),
        });
    }
    let stride = if v2 {
        manifest_stride_v2::<K>()
    } else {
        manifest_stride::<K>()
    };
    let needed = header_len as u64 + shard_count as u64 * stride as u64;
    if (bytes.len() as u64) < needed {
        return Err(Error::Truncated {
            needed,
            got: bytes.len() as u64,
        });
    }
    if bytes.len() as u64 != needed {
        return Err(Error::Malformed {
            detail: format!(
                "manifest is {} bytes, shard table dictates {needed}",
                bytes.len()
            ),
        });
    }
    if fnv1a(fnv1a_init(), &bytes[header_len..]) != read_u64(bytes, content_at) {
        return Err(Error::ChecksumMismatch { region: "content" });
    }

    // Occupied-row payload starts after the flag + key count (+ the v2
    // generation); empty rows must be all-zero past the flag.
    let keys_at = if v2 { 17 } else { 9 };
    let mut shards = Vec::with_capacity(shard_count);
    for i in 0..shard_count {
        let off = header_len + i * stride;
        let flag = bytes[off];
        let key_count = read_u64(bytes, off + 1);
        let entry = match flag {
            0 => {
                if key_count != 0 || bytes[off + 9..off + stride].iter().any(|&b| b != 0) {
                    return Err(Error::Malformed {
                        detail: format!("shard {i}: empty shard carries non-zero payload"),
                    });
                }
                ShardRecord {
                    key_count: 0,
                    bounds: None,
                    generation: 0,
                }
            }
            1 => {
                if key_count == 0 {
                    return Err(Error::Malformed {
                        detail: format!("shard {i}: occupied shard with zero keys"),
                    });
                }
                let generation = if v2 { read_u64(bytes, off + 9) } else { 0 };
                let first = K::read_le(&bytes[off + keys_at..off + keys_at + K::WIDTH]);
                let last =
                    K::read_le(&bytes[off + keys_at + K::WIDTH..off + keys_at + 2 * K::WIDTH]);
                ShardRecord {
                    key_count,
                    bounds: Some((first, last)),
                    generation,
                }
            }
            other => {
                return Err(Error::Malformed {
                    detail: format!("shard {i}: unknown occupancy flag {other}"),
                });
            }
        };
        shards.push(entry);
    }
    let total = check_manifest_rows(shards.iter().map(|r| (r.key_count, r.bounds)))?;
    if total != read_u64(bytes, 16) {
        return Err(Error::Malformed {
            detail: format!(
                "manifest total {} disagrees with shard rows summing to {total}",
                read_u64(bytes, 16)
            ),
        });
    }
    if total == 0 && !v2 {
        return Err(Error::EmptyKeys);
    }
    let (epoch, flushed_inserts, flushed_tombstones) = if v2 {
        (
            read_u64(bytes, 24),
            read_u64(bytes, 32),
            read_u64(bytes, 40),
        )
    } else {
        (0, 0, 0)
    };
    Ok(ManifestV2 {
        epoch,
        flushed_inserts,
        flushed_tombstones,
        shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::PositionIndex;

    /// A tiny height-3 named file with keys 10..=70 at in-order ranks.
    fn sample_named() -> Vec<u8> {
        let layout = NamedLayout::MinWep;
        let idx = layout.indexer(3);
        let tree = Tree::new(3);
        encode_tree::<u64>(3, 7, 64, &Descriptor::Named(layout), |p| {
            // invert: which node sits at position p?
            tree.nodes()
                .find(|&i| idx.position(i, tree.depth(i)) == p)
                .map(|i| tree.in_order_rank(i) * 10)
        })
        .unwrap()
    }

    fn sample_table() -> Vec<u8> {
        let layout = NamedLayout::HalfWep.materialize(3);
        let tree = Tree::new(3);
        encode_tree::<u64>(
            3,
            5, // two padding slots
            128,
            &Descriptor::Table {
                label: "halfwep-materialized",
                positions_by_node: layout.positions(),
            },
            |p| {
                let node = tree
                    .nodes()
                    .find(|&i| layout.position(i) == p)
                    .expect("position covered");
                let rank = tree.in_order_rank(node);
                (rank <= 5).then_some(rank * 3)
            },
        )
        .unwrap()
    }

    #[test]
    fn named_file_round_trips_through_parse() {
        let file = sample_named();
        let g = parse(&file).unwrap();
        assert_eq!(g.version, VERSION);
        assert_eq!(g.kind, DescriptorKind::Named);
        assert_eq!(g.height, 3);
        assert_eq!(g.key_count, 7);
        assert_eq!(g.capacity(), 7);
        assert_eq!(g.block_bytes, 64);
        assert_eq!(g.descriptor_str(&file), "MINWEP");
        assert_eq!(g.key_width(), 8);
        expect_key_type::<u64>(&g).unwrap();
        assert_eq!(
            expect_key_type::<u32>(&g).unwrap_err(),
            Error::KeyTypeMismatch {
                expected: 1,
                got: 2
            }
        );
        // Key region is block-aligned and zero-copy readable.
        assert_eq!(g.keys.0 % 64, 0);
        let idx = NamedLayout::MinWep.indexer(3);
        let tree = Tree::new(3);
        for i in tree.nodes() {
            let p = idx.position(i, tree.depth(i));
            assert_eq!(
                g.key_at_position::<u64>(&file, p),
                tree.in_order_rank(i) * 10
            );
        }
    }

    #[test]
    fn table_file_round_trips_with_padding() {
        let file = sample_table();
        let g = parse(&file).unwrap();
        assert_eq!(g.kind, DescriptorKind::Table);
        assert_eq!(g.key_count, 5);
        assert_eq!(g.descriptor_str(&file), "halfwep-materialized");
        assert_eq!(g.keys.0 % 128, 0);
        assert_eq!(g.index.0 % 128, 0);
        let layout = NamedLayout::HalfWep.materialize(3);
        for i in 1..=7u64 {
            assert_eq!(g.table_position(&file, i), layout.position(i));
        }
    }

    /// A height-5 FAT8-VEB file with 23 real keys (rank × 10).
    fn sample_fat() -> Vec<u8> {
        let layout: crate::fat::FatLayout = "FAT8-VEB".parse().unwrap();
        let index = layout.try_index(5).unwrap();
        let tree = Tree::new(5);
        encode_tree::<u64>(5, 23, 64, &Descriptor::Fat(layout), |p| {
            let node = index.node_at_position(p)?;
            let rank = tree.in_order_rank(node);
            (rank <= 23).then_some(rank * 10)
        })
        .unwrap()
    }

    #[test]
    fn fat_file_round_trips_through_parse() {
        let file = sample_fat();
        let g = parse(&file).unwrap();
        assert_eq!(g.version, VERSION);
        assert_eq!(g.kind, DescriptorKind::Named);
        assert_eq!(g.arity, 8);
        assert_eq!(g.height, 5);
        assert_eq!(g.key_count, 23);
        assert_eq!(g.capacity(), 31);
        assert_eq!(g.slots(), crate::fat::fat_slot_capacity(5, 3));
        assert!(g.slots() > g.capacity());
        assert_eq!(g.key_width(), 8);
        assert_eq!(g.descriptor_str(&file), "FAT8-VEB");
        assert_eq!(g.keys.1 as u64, g.slots() * 8);
        let layout: crate::fat::FatLayout = "FAT8-VEB".parse().unwrap();
        let index = layout.try_index(5).unwrap();
        let tree = Tree::new(5);
        for node in tree.nodes() {
            let rank = tree.in_order_rank(node);
            if rank <= 23 {
                let p = index.position(node, tree.depth(node));
                assert_eq!(g.key_at_position::<u64>(&file, p), rank * 10);
            }
        }
    }

    #[test]
    fn fat_geometry_violations_are_typed() {
        let base = sample_fat();

        // Arity not a power of two / out of range.
        for bad in [3u8, 7, 128, 255] {
            let mut f = base.clone();
            f[10] = bad;
            seal_header_hash(&mut f);
            assert!(
                matches!(parse(&f).unwrap_err(), Error::Malformed { .. }),
                "arity {bad}"
            );
        }

        // Arity zeroed under a FAT label: the label no longer parses as
        // a NamedLayout.
        let mut f = base.clone();
        f[10] = 0;
        seal_header_hash(&mut f);
        assert!(matches!(
            parse(&f).unwrap_err(),
            Error::UnknownLayout { .. } | Error::Malformed { .. }
        ));

        // Arity flipped to a *different valid* arity: key-region size
        // (and the label cross-check) no longer agree.
        let mut f = base.clone();
        f[10] = 16;
        seal_header_hash(&mut f);
        assert!(matches!(parse(&f).unwrap_err(), Error::Malformed { .. }));

        // A v1 header may not carry an arity.
        let mut f = base.clone();
        f[4..6].copy_from_slice(&1u16.to_le_bytes());
        seal_header_hash(&mut f);
        assert!(matches!(parse(&f).unwrap_err(), Error::Malformed { .. }));

        // The table kind may not carry an arity.
        let mut f = sample_table();
        f[10] = 8;
        seal_header_hash(&mut f);
        assert!(matches!(parse(&f).unwrap_err(), Error::Malformed { .. }));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let file = sample_table();
        for len in 0..file.len() {
            let err = parse(&file[..len]).expect_err("truncated file must not parse");
            assert!(
                matches!(
                    err,
                    Error::Truncated { .. } | Error::ChecksumMismatch { .. }
                ),
                "prefix {len}: unexpected error {err:?}"
            );
        }
        assert!(parse(&file).is_ok());
    }

    #[test]
    fn header_corruption_is_rejected_typed() {
        let base = sample_named();

        let mut f = base.clone();
        f[0] = b'X';
        assert!(matches!(parse(&f).unwrap_err(), Error::BadMagic { .. }));

        let mut f = base.clone();
        f[4..6].copy_from_slice(&99u16.to_le_bytes());
        seal_header_hash(&mut f);
        assert_eq!(
            parse(&f).unwrap_err(),
            Error::UnsupportedVersion {
                got: 99,
                supported: VERSION
            }
        );

        let mut f = base.clone();
        f[6..8].copy_from_slice(&0x3412u16.to_le_bytes());
        seal_header_hash(&mut f);
        assert!(matches!(parse(&f).unwrap_err(), Error::Malformed { .. }));

        // Flipping a header byte without resealing trips the header hash.
        let mut f = base.clone();
        f[16] ^= 0xFF;
        assert_eq!(
            parse(&f).unwrap_err(),
            Error::ChecksumMismatch { region: "header" }
        );

        // Unknown key tag / kind, resealed so the hash is honest.
        let mut f = base.clone();
        f[8] = 42;
        seal_header_hash(&mut f);
        assert!(matches!(parse(&f).unwrap_err(), Error::Malformed { .. }));

        let mut f = base.clone();
        f[9] = 7;
        seal_header_hash(&mut f);
        assert!(matches!(parse(&f).unwrap_err(), Error::Malformed { .. }));

        // Height out of the format's range.
        let mut f = base.clone();
        f[12..16].copy_from_slice(&40u32.to_le_bytes());
        seal_header_hash(&mut f);
        assert!(matches!(
            parse(&f).unwrap_err(),
            Error::HeightOutOfRange { .. }
        ));

        // key_count 0 / beyond capacity.
        let mut f = base.clone();
        f[16..24].copy_from_slice(&0u64.to_le_bytes());
        seal_header_hash(&mut f);
        assert_eq!(parse(&f).unwrap_err(), Error::EmptyKeys);

        let mut f = base.clone();
        f[16..24].copy_from_slice(&8u64.to_le_bytes());
        seal_header_hash(&mut f);
        assert!(matches!(
            parse(&f).unwrap_err(),
            Error::KeyCountMismatch { .. }
        ));

        // Non-power-of-two block size.
        let mut f = base;
        f[24..32].copy_from_slice(&48u64.to_le_bytes());
        seal_header_hash(&mut f);
        assert!(matches!(parse(&f).unwrap_err(), Error::Malformed { .. }));
    }

    #[test]
    fn content_corruption_is_rejected_typed() {
        // Key-region bit flip without resealing: content checksum.
        let base = sample_named();
        let g = parse(&base).unwrap();
        let mut f = base.clone();
        f[g.keys.0] ^= 0x01;
        assert_eq!(
            parse(&f).unwrap_err(),
            Error::ChecksumMismatch { region: "content" }
        );

        // Unknown layout name, honestly resealed.
        let mut f = base;
        let (off, len) = g.descriptor;
        f[off..off + len].copy_from_slice(b"NOPWEP"); // same length as MINWEP
        seal_content_hash(&mut f);
        seal_header_hash(&mut f);
        assert_eq!(
            parse(&f).unwrap_err(),
            Error::UnknownLayout {
                name: "NOPWEP".into()
            }
        );

        // Table permutation violation, honestly resealed.
        let table = sample_table();
        let gt = parse(&table).unwrap();
        let mut f = table;
        let first = gt.index.0;
        let second = first + 4;
        let dup = f[first..first + 4].to_vec();
        f[second..second + 4].copy_from_slice(&dup);
        seal_content_hash(&mut f);
        seal_header_hash(&mut f);
        assert!(matches!(
            parse(&f).unwrap_err(),
            Error::NotAPermutation { .. }
        ));
    }

    #[test]
    fn encode_rejects_impossible_shapes() {
        let d = Descriptor::Named(NamedLayout::MinWep);
        assert_eq!(
            encode_tree::<u64>(3, 0, 64, &d, |_| None).unwrap_err(),
            Error::EmptyKeys
        );
        assert!(matches!(
            encode_tree::<u64>(3, 8, 64, &d, |_| None).unwrap_err(),
            Error::KeyCountMismatch { .. }
        ));
        assert!(matches!(
            encode_tree::<u64>(0, 1, 64, &d, |_| None).unwrap_err(),
            Error::HeightOutOfRange { .. }
        ));
        assert!(matches!(
            encode_tree::<u64>(32, 1, 64, &d, |_| None).unwrap_err(),
            Error::HeightOutOfRange { .. }
        ));
        assert!(matches!(
            encode_tree::<u64>(3, 7, 100, &d, |_| None).unwrap_err(),
            Error::Malformed { .. }
        ));
        let short = [0u32; 3];
        assert!(matches!(
            encode_tree::<u64>(
                3,
                7,
                64,
                &Descriptor::Table {
                    label: "x",
                    positions_by_node: &short
                },
                |_| None
            )
            .unwrap_err(),
            Error::NotAPermutation { .. }
        ));
    }

    fn sample_manifest() -> Vec<u8> {
        encode_manifest::<u64>(&[
            ShardManifest {
                key_count: 3,
                bounds: Some((10, 30)),
            },
            ShardManifest {
                key_count: 0,
                bounds: None,
            },
            ShardManifest {
                key_count: 2,
                bounds: Some((40, 50)),
            },
        ])
        .unwrap()
    }

    #[test]
    fn manifest_round_trips_with_empty_shards() {
        let bytes = sample_manifest();
        let shards = parse_manifest::<u64>(&bytes).unwrap();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0].key_count, 3);
        assert_eq!(shards[0].bounds, Some((10, 30)));
        assert_eq!(shards[1].key_count, 0);
        assert_eq!(shards[1].bounds, None);
        assert_eq!(shards[2].bounds, Some((40, 50)));
    }

    #[test]
    fn manifest_rejects_bad_shapes_on_encode() {
        assert!(matches!(
            encode_manifest::<u64>(&[]).unwrap_err(),
            Error::Malformed { .. }
        ));
        // All shards empty.
        assert_eq!(
            encode_manifest::<u64>(&[ShardManifest {
                key_count: 0,
                bounds: None
            }])
            .unwrap_err(),
            Error::EmptyKeys
        );
        // Count/bounds disagreement.
        assert!(matches!(
            encode_manifest::<u64>(&[ShardManifest {
                key_count: 5,
                bounds: None
            }])
            .unwrap_err(),
            Error::Malformed { .. }
        ));
        // Overlapping fences.
        assert!(matches!(
            encode_manifest::<u64>(&[
                ShardManifest {
                    key_count: 2,
                    bounds: Some((10, 30))
                },
                ShardManifest {
                    key_count: 2,
                    bounds: Some((30, 40))
                },
            ])
            .unwrap_err(),
            Error::Malformed { .. }
        ));
        // Inverted bounds.
        assert!(matches!(
            encode_manifest::<u64>(&[ShardManifest {
                key_count: 2,
                bounds: Some((9, 3))
            }])
            .unwrap_err(),
            Error::Malformed { .. }
        ));
    }

    #[test]
    fn manifest_corruption_is_rejected_typed() {
        let base = sample_manifest();

        let mut f = base.clone();
        f[0] = b'X';
        assert!(matches!(
            parse_manifest::<u64>(&f).unwrap_err(),
            Error::BadMagic { .. }
        ));

        for len in 0..base.len() {
            let err = parse_manifest::<u64>(&base[..len]).expect_err("truncated manifest");
            assert!(
                matches!(
                    err,
                    Error::Truncated { .. } | Error::ChecksumMismatch { .. }
                ),
                "prefix {len}: unexpected error {err:?}"
            );
        }

        // Header bit flip without resealing.
        let mut f = base.clone();
        f[16] ^= 0xFF;
        assert_eq!(
            parse_manifest::<u64>(&f).unwrap_err(),
            Error::ChecksumMismatch { region: "header" }
        );

        // Entry bit flip without resealing.
        let mut f = base.clone();
        let off = MANIFEST_HEADER_LEN + 1;
        f[off] ^= 0x01;
        assert_eq!(
            parse_manifest::<u64>(&f).unwrap_err(),
            Error::ChecksumMismatch { region: "content" }
        );

        // Wrong key type.
        assert_eq!(
            parse_manifest::<u32>(&base).unwrap_err(),
            Error::KeyTypeMismatch {
                expected: 1,
                got: 2
            }
        );
    }

    fn sample_manifest_v2() -> ManifestV2<u64> {
        ManifestV2 {
            epoch: 7,
            flushed_inserts: 120,
            flushed_tombstones: 13,
            shards: vec![
                ShardRecord {
                    key_count: 3,
                    bounds: Some((10, 30)),
                    generation: 4,
                },
                ShardRecord {
                    key_count: 0,
                    bounds: None,
                    generation: 0,
                },
                ShardRecord {
                    key_count: 2,
                    bounds: Some((40, 50)),
                    generation: 9,
                },
            ],
        }
    }

    #[test]
    fn manifest_v2_round_trips_epoch_flush_record_and_generations() {
        let m = sample_manifest_v2();
        let bytes = encode_manifest_v2(&m).unwrap();
        assert_eq!(read_u16(&bytes, 4), FOREST_VERSION_V2);
        let back = parse_manifest_v2::<u64>(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.total_keys(), 5);
        // The v1-shaped view drops the extras but keeps the rows.
        let rows = parse_manifest::<u64>(&bytes).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].key_count, 3);
        assert_eq!(rows[0].bounds, Some((10, 30)));
        assert_eq!(rows[1].bounds, None);
    }

    /// Backward compatibility: version-1 bytes keep parsing — through
    /// the original entry point *and* the v2 view, where the epoch,
    /// flush record and generations surface as zero.
    #[test]
    fn manifest_v1_files_still_parse_after_v2() {
        let v1 = sample_manifest();
        let rows = parse_manifest::<u64>(&v1).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].bounds, Some((40, 50)));
        let m = parse_manifest_v2::<u64>(&v1).unwrap();
        assert_eq!(m.epoch, 0);
        assert_eq!(m.flushed_inserts, 0);
        assert_eq!(m.flushed_tombstones, 0);
        assert!(m.shards.iter().all(|r| r.generation == 0));
        assert_eq!(m.total_keys(), 5);
    }

    #[test]
    fn manifest_v2_accepts_a_drained_store_but_v1_view_refuses_it() {
        let drained = ManifestV2::<u64> {
            epoch: 3,
            flushed_inserts: 0,
            flushed_tombstones: 8,
            shards: vec![
                ShardRecord {
                    key_count: 0,
                    bounds: None,
                    generation: 0,
                };
                2
            ],
        };
        let bytes = encode_manifest_v2(&drained).unwrap();
        let back = parse_manifest_v2::<u64>(&bytes).unwrap();
        assert_eq!(back.total_keys(), 0);
        assert_eq!(back.epoch, 3);
        // The static-forest view cannot represent an empty store.
        assert_eq!(parse_manifest::<u64>(&bytes).unwrap_err(), Error::EmptyKeys);
    }

    #[test]
    fn manifest_v2_corruption_and_truncation_fail_typed() {
        let base = encode_manifest_v2(&sample_manifest_v2()).unwrap();
        for len in 0..base.len() {
            let err = parse_manifest_v2::<u64>(&base[..len]).expect_err("truncated manifest");
            assert!(
                matches!(
                    err,
                    Error::Truncated { .. } | Error::ChecksumMismatch { .. }
                ),
                "prefix {len}: unexpected error {err:?}"
            );
        }
        for at in 0..base.len() {
            let mut f = base.clone();
            f[at] ^= 0x20;
            assert!(
                parse_manifest_v2::<u64>(&f).is_err(),
                "byte {at}: corruption accepted"
            );
        }
        // A future version is refused with the v2 ceiling.
        let mut f = base.clone();
        f[4..6].copy_from_slice(&3u16.to_le_bytes());
        let header = fnv1a(fnv1a_init(), &f[..56]);
        f[56..64].copy_from_slice(&header.to_le_bytes());
        assert_eq!(
            parse_manifest_v2::<u64>(&f).unwrap_err(),
            Error::UnsupportedVersion {
                got: 3,
                supported: FOREST_VERSION_V2
            }
        );
        // Empty slots must not smuggle a generation.
        let mut bad = sample_manifest_v2();
        bad.shards[1].generation = 5;
        assert!(matches!(
            encode_manifest_v2(&bad).unwrap_err(),
            Error::Malformed { .. }
        ));
    }

    #[test]
    fn fixed_key_codecs_round_trip() {
        let mut buf = [0u8; 16];
        7u32.write_le(&mut buf);
        assert_eq!(u32::read_le(&buf), 7);
        (-9i64).write_le(&mut buf);
        assert_eq!(i64::read_le(&buf), -9);
        (u128::MAX - 5).write_le(&mut buf);
        assert_eq!(u128::read_le(&buf), u128::MAX - 5);
        assert_eq!(key_tag_name(u16::TAG), "u16");
        assert_eq!(key_tag_name(99), "unknown");
    }
}
