//! Versioned, dependency-free binary snapshots of simulation state.
//!
//! A snapshot is a byte buffer with a fixed envelope:
//!
//! ```text
//! "SNAP" | version: u32 | body … | "ENDS" | fnv64(everything before): u64
//! ```
//!
//! The body is a sequence of primitive writes produced by [`SnapWriter`] and
//! consumed in the same order by [`SnapReader`]. Writers group state into
//! *named sections* ([`SnapWriter::section`]): a section is a tag byte plus
//! the section name, verified on read, so a reader that drifts out of sync
//! fails with a [`SnapError::BadSection`] naming both sides instead of
//! silently mis-interpreting bytes. Multi-byte integers are little-endian;
//! `f64` travels as its IEEE-754 bit pattern ([`f64::to_bits`]) so
//! round-trips are bit-exact; `u128` travels as two `u64` halves.
//!
//! Compatibility policy: the format is versioned, not self-describing. Any
//! layout change bumps [`SNAP_VERSION`] and old snapshots are *rejected*
//! (never migrated): a snapshot that lies about state is worse than no
//! snapshot. Truncated or bit-flipped files fail the checksum or section
//! checks with a diagnostic — a corrupt snapshot must never silently resume.
//!
//! State types register by implementing [`Snap`] next to their definition
//! (so private fields stay private), or — when a type is rebuilt from
//! configuration and only its mutable part travels — by exposing
//! `snap_save`/`snap_restore` methods that write into a [`SnapWriter`].
//! The `simlint` D5 rule flags sim-state containers in files that do
//! neither.

use crate::time::{SimDuration, SimTime};

/// Leading magic of every snapshot buffer.
pub const SNAP_MAGIC: [u8; 4] = *b"SNAP";
/// Current format version; bumped on any layout change.
pub const SNAP_VERSION: u32 = 1;
/// Magic separating the body from the checksum trailer.
const TRAILER_MAGIC: [u8; 4] = *b"ENDS";
/// Tag byte opening a named section.
const SECTION_TAG: u8 = 0xA5;

/// FNV-1a, 64-bit — the same dependency-free hash the golden tests use.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a snapshot buffer was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer does not start with `"SNAP"`.
    BadMagic,
    /// The buffer was written by a different format version.
    BadVersion {
        /// Version found in the buffer.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The buffer ends before the data it promises.
    Truncated {
        /// Read position at which bytes ran out.
        at: usize,
        /// Bytes the reader needed there.
        wanted: usize,
    },
    /// The trailer checksum does not match the buffer contents.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the buffer.
        computed: u64,
    },
    /// The reader expected one named section and found another (or none).
    BadSection {
        /// Section the reader asked for.
        expected: String,
        /// Section tag actually present.
        found: String,
    },
    /// A decoded value is structurally impossible (bad enum tag, length
    /// overflow, non-UTF-8 name).
    Corrupt(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::BadMagic => f.write_str("not a snapshot: bad magic"),
            SnapError::BadVersion { found, expected } => write!(
                f,
                "snapshot version {found} is not readable by this build (expects {expected}); \
                 re-create the snapshot"
            ),
            SnapError::Truncated { at, wanted } => {
                write!(f, "snapshot truncated: needed {wanted} byte(s) at offset {at}")
            }
            SnapError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: trailer says {stored:#018x}, contents hash to \
                 {computed:#018x}"
            ),
            SnapError::BadSection { expected, found } => write!(
                f,
                "snapshot out of sync: expected section {expected:?}, found {found:?}"
            ),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Serializes state into the snapshot envelope.
#[derive(Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl Default for SnapWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapWriter {
    /// A writer with the magic and version already emitted.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&SNAP_MAGIC);
        buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        SnapWriter { buf }
    }

    /// Opens a named section; [`SnapReader::section`] verifies the name.
    pub fn section(&mut self, name: &str) {
        self.buf.push(SECTION_TAG);
        self.str(name);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128` as two little-endian `u64` halves (low, high).
    pub fn u128(&mut self, v: u128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    /// Writes a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its bit pattern — bit-exact round-trips, NaNs and
    /// signed zeros included.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-framed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Writes a length-framed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Closes the envelope: appends the trailer magic and the FNV-64
    /// checksum of everything written so far.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf.extend_from_slice(&TRAILER_MAGIC);
        let checksum = fnv64(&self.buf);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        self.buf
    }
}

/// Deserializes state from a snapshot buffer, after validating the envelope.
#[derive(Debug)]
pub struct SnapReader<'a> {
    /// The body: everything between the version and the trailer magic.
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Validates magic, version, and checksum, and positions the reader at
    /// the start of the body.
    pub fn new(buf: &'a [u8]) -> Result<Self, SnapError> {
        // Envelope floor: magic + version + trailer magic + checksum.
        if buf.len() < 4 {
            return Err(SnapError::BadMagic);
        }
        if buf[..4] != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        if buf.len() < 8 {
            return Err(SnapError::Truncated { at: 4, wanted: 4 });
        }
        let version = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion {
                found: version,
                expected: SNAP_VERSION,
            });
        }
        if buf.len() < 8 + 12 {
            return Err(SnapError::Truncated {
                at: buf.len(),
                wanted: 8 + 12 - buf.len(),
            });
        }
        let trailer_at = buf.len() - 12;
        if buf[trailer_at..trailer_at + 4] != TRAILER_MAGIC {
            return Err(SnapError::Corrupt("trailer magic missing".into()));
        }
        let stored = u64::from_le_bytes(buf[trailer_at + 4..].try_into().expect("8 bytes"));
        let computed = fnv64(&buf[..trailer_at + 4]);
        if stored != computed {
            return Err(SnapError::ChecksumMismatch { stored, computed });
        }
        Ok(SnapReader {
            buf: &buf[..trailer_at],
            pos: 8,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.pos + n > self.buf.len() {
            return Err(SnapError::Truncated {
                at: self.pos,
                wanted: n,
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Verifies that the next item is the named section.
    pub fn section(&mut self, name: &str) -> Result<(), SnapError> {
        let bad = |found: String| SnapError::BadSection {
            expected: name.to_string(),
            found,
        };
        let tag = self.u8().map_err(|_| bad("<end of data>".into()))?;
        if tag != SECTION_TAG {
            return Err(bad(format!("<non-section byte {tag:#04x}>")));
        }
        let found = self.str()?;
        if found != name {
            return Err(bad(found));
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a `u128` written by [`SnapWriter::u128`].
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        let lo = self.u64()?;
        let hi = self.u64()?;
        Ok(u128::from(lo) | (u128::from(hi) << 64))
    }

    /// Reads a `usize` written as `u64`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::Corrupt(format!("bad bool byte {other:#04x}"))),
        }
    }

    /// Reads a length-framed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Reads a length-framed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| SnapError::Corrupt("non-UTF-8 string".into()))
    }
}

/// A type that can round-trip through a snapshot.
///
/// Implement next to the type's definition so private fields stay private.
/// `load` must consume exactly the bytes `save` wrote.
pub trait Snap: Sized {
    /// Serializes `self` into the writer.
    fn save(&self, w: &mut SnapWriter);
    /// Deserializes a value, consuming exactly what [`save`](Snap::save)
    /// produced.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

macro_rules! snap_prim {
    ($ty:ty, $write:ident, $read:ident) => {
        impl Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.$write(*self);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$read()
            }
        }
    };
}

snap_prim!(u8, u8, u8);
snap_prim!(u32, u32, u32);
snap_prim!(u64, u64, u64);
snap_prim!(u128, u128, u128);
snap_prim!(usize, usize, usize);
snap_prim!(f64, f64, f64);
snap_prim!(bool, bool, bool);

impl Snap for u16 {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(u32::from(*self));
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v = r.u32()?;
        u16::try_from(v).map_err(|_| SnapError::Corrupt(format!("u16 overflow: {v}")))
    }
}

impl Snap for SimTime {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.as_nanos());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SimTime::from_nanos(r.u64()?))
    }
}

impl Snap for SimDuration {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.as_nanos());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SimDuration::from_nanos(r.u64()?))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            other => Err(SnapError::Corrupt(format!("bad Option tag {other:#04x}"))),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for item in self {
            item.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.usize()?;
        // Guard against absurd lengths from corrupt buffers: never reserve
        // more than the remaining bytes could possibly encode (1 byte/item
        // minimum).
        let mut out = Vec::with_capacity(len.min(r.buf.len() - r.pos));
        for _ in 0..len {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl Snap for i64 {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.u64()? as i64)
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.str()
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.section("header");
        w.u64(42);
        w.f64(-0.0);
        w.u128(u128::MAX - 7);
        w.bool(true);
        w.section("body");
        vec![1u64, 2, 3].save(&mut w);
        Some(SimTime::from_nanos(9)).save(&mut w);
        w.str("hello");
        w.finish()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let buf = sample();
        let mut r = SnapReader::new(&buf).expect("valid");
        r.section("header").expect("header");
        assert_eq!(r.u64().unwrap(), 42);
        let z = r.f64().unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits(), "signed zero preserved");
        assert_eq!(r.u128().unwrap(), u128::MAX - 7);
        assert!(r.bool().unwrap());
        r.section("body").expect("body");
        assert_eq!(Vec::<u64>::load(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(
            Option::<SimTime>::load(&mut r).unwrap(),
            Some(SimTime::from_nanos(9))
        );
        assert_eq!(r.str().unwrap(), "hello");
    }

    #[test]
    fn rewriting_a_loaded_snapshot_is_byte_stable() {
        let buf = sample();
        let mut r = SnapReader::new(&buf).expect("valid");
        r.section("header").unwrap();
        let a = r.u64().unwrap();
        let b = r.f64().unwrap();
        let c = r.u128().unwrap();
        let d = r.bool().unwrap();
        r.section("body").unwrap();
        let e = Vec::<u64>::load(&mut r).unwrap();
        let f = Option::<SimTime>::load(&mut r).unwrap();
        let g = r.str().unwrap();
        let mut w = SnapWriter::new();
        w.section("header");
        w.u64(a);
        w.f64(b);
        w.u128(c);
        w.bool(d);
        w.section("body");
        e.save(&mut w);
        f.save(&mut w);
        w.str(&g);
        assert_eq!(w.finish(), buf);
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let buf = sample();
        for cut in 0..buf.len() {
            assert!(
                SnapReader::new(&buf[..cut]).is_err(),
                "truncation to {cut} bytes must not validate"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let buf = sample();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x10;
            assert!(
                SnapReader::new(&bad).is_err(),
                "flipping byte {i} must fail magic/version/checksum validation"
            );
        }
    }

    #[test]
    fn version_bump_is_rejected_with_diagnostic() {
        let mut buf = sample();
        let bumped = SNAP_VERSION + 1;
        buf[4..8].copy_from_slice(&bumped.to_le_bytes());
        match SnapReader::new(&buf) {
            Err(SnapError::BadVersion { found, expected }) => {
                assert_eq!(found, bumped);
                assert_eq!(expected, SNAP_VERSION);
            }
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut buf = sample();
        buf[0] = b'X';
        assert!(matches!(SnapReader::new(&buf), Err(SnapError::BadMagic)));
    }

    #[test]
    fn section_mismatch_names_both_sides() {
        let buf = sample();
        let mut r = SnapReader::new(&buf).expect("valid");
        match r.section("trailer-state") {
            Err(SnapError::BadSection { expected, found }) => {
                assert_eq!(expected, "trailer-state");
                assert_eq!(found, "header");
            }
            other => panic!("expected BadSection, got {other:?}"),
        }
    }

    #[test]
    fn errors_display_a_diagnostic() {
        let e = SnapError::BadVersion {
            found: 9,
            expected: SNAP_VERSION,
        };
        assert!(e.to_string().contains("version 9"));
        let e = SnapError::Truncated { at: 3, wanted: 8 };
        assert!(e.to_string().contains("truncated"));
    }
}
