//! The workspace's one little-endian record vocabulary: append helpers,
//! a bounds-checked [`Cursor`], CRC-32, and the length-prefixed
//! [`Envelope`] every record travels in — on disk here, and on the
//! binary wire in `fc-service`.
//!
//! Every on-disk file in this crate is a sequence of
//! [`Envelope::Record`]s:
//!
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload: len bytes]
//! ```
//!
//! The framing distinguishes three outcomes when reading: a complete
//! record, a clean end of file, and a *torn tail* — a header or payload
//! cut short, or a checksum mismatch, exactly what a crash mid-`write`
//! leaves behind. Torn tails are a normal part of recovery (the caller
//! truncates them), not corruption errors.
//!
//! The wire's two binary dialects are the same idea with a different
//! header ([`Envelope::Plain`], [`Envelope::Checked`]); an envelope is
//! written in place — header reserved, payload appended, header patched —
//! so a finished payload is never copied into a second buffer.

/// Upper bound on a single record's payload. Nothing legitimate comes
/// close (a snapshot is a compaction budget's worth of points); the cap
/// keeps a corrupt length prefix from looking like a 4 GiB allocation.
pub(crate) const MAX_PAYLOAD_BYTES: u32 = 1 << 30;

/// CRC-32 (IEEE 802.3, the zlib/gzip polynomial) of `bytes`, eight bytes
/// per step (slice-by-8): a checksum pass over a 16 KiB ingest block must
/// cost less than encoding it.
pub fn crc32(bytes: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut crc = !0u32;
    let mut steps = bytes.chunks_exact(8);
    for s in &mut steps {
        let lo = crc ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        let hi = u32::from_le_bytes([s[4], s[5], s[6], s[7]]);
        crc = T[7][(lo & 0xff) as usize]
            ^ T[6][(lo >> 8 & 0xff) as usize]
            ^ T[5][(lo >> 16 & 0xff) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][(hi & 0xff) as usize]
            ^ T[2][(hi >> 8 & 0xff) as usize]
            ^ T[1][(hi >> 16 & 0xff) as usize]
            ^ T[0][(hi >> 24) as usize];
    }
    for &b in steps.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// `tables[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight lookups advance the register over eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [crc32_table(); 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The header a length-prefixed record travels under. One writer
/// ([`Envelope::open`] / [`Envelope::seal`]) and one checksum verifier
/// ([`verified`]) serve all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Envelope {
    /// `[len][payload]`: a classic `bin1` wire frame, no checksum.
    Plain,
    /// `[len][crc32][payload]`, `len` counting the checksum and the
    /// payload: a `bin1c` wire frame.
    Checked,
    /// `[len][crc32][payload]`, `len` counting the payload alone: every
    /// on-disk record (WAL entries, snapshots).
    Record,
}

impl Envelope {
    /// The envelope of a binary wire connection: `bin1c` when it
    /// negotiated checksums, classic `bin1` otherwise.
    pub fn wire(checked: bool) -> Envelope {
        if checked {
            Envelope::Checked
        } else {
            Envelope::Plain
        }
    }

    fn header_bytes(self) -> usize {
        match self {
            Envelope::Plain => 4,
            Envelope::Checked | Envelope::Record => 8,
        }
    }

    /// Reserves this envelope's header at the end of `out` and returns
    /// its offset. Append the payload to `out`, then [`Self::seal`].
    pub fn open(self, out: &mut Vec<u8>) -> usize {
        let at = out.len();
        out.resize(at + self.header_bytes(), 0);
        at
    }

    /// Patches the header reserved at `at` for the payload appended since:
    /// its length, and (unless [`Envelope::Plain`]) its CRC-32.
    pub fn seal(self, out: &mut [u8], at: usize) {
        let body = at + self.header_bytes();
        let mut len = out.len() - body;
        if self == Envelope::Checked {
            len += 4;
        }
        out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
        if self != Envelope::Plain {
            let crc = crc32(&out[body..]);
            out[at + 4..body].copy_from_slice(&crc.to_le_bytes());
        }
    }
}

/// Splits a checksummed envelope body `[crc32][payload]` and verifies it:
/// the payload when its CRC-32 matches the stored one, `None` when it
/// does not or the body is too short to hold a checksum.
pub fn verified(body: &[u8]) -> Option<&[u8]> {
    let (stored, payload) = body.split_first_chunk::<4>()?;
    (crc32(payload) == u32::from_le_bytes(*stored)).then_some(payload)
}

/// One attempt to read a record at `*pos` in `buf`.
pub(crate) enum ReadOutcome<'a> {
    /// A complete, checksum-verified record; `*pos` advanced past it.
    Record(&'a [u8]),
    /// `*pos` is exactly the end of the buffer.
    Eof,
    /// The bytes at `*pos` are not a complete valid record — a partial
    /// header, a payload cut short, an impossible length, or a checksum
    /// mismatch. `*pos` is left at the record boundary so the caller can
    /// truncate there.
    Torn,
}

/// Reads the [`Envelope::Record`] starting at `*pos`, advancing `*pos`
/// on success.
pub(crate) fn read_framed<'a>(buf: &'a [u8], pos: &mut usize) -> ReadOutcome<'a> {
    let rest = &buf[*pos..];
    if rest.is_empty() {
        return ReadOutcome::Eof;
    }
    let Some(len) = Cursor::new(rest).u32() else {
        return ReadOutcome::Torn;
    };
    if len > MAX_PAYLOAD_BYTES {
        return ReadOutcome::Torn;
    }
    let end = Envelope::Record.header_bytes() + len as usize;
    match rest.get(4..end).and_then(verified) {
        Some(payload) => {
            *pos += end;
            ReadOutcome::Record(payload)
        }
        None => ReadOutcome::Torn,
    }
}

/// A little-endian cursor over a record payload; every getter answers
/// `None` past the end, so decoders fail soft on short payloads.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Whether every byte has been read.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The unread remainder (the cursor does not move).
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// The next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.bytes(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.bytes(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// A little-endian `f64` (bit pattern preserved).
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A run of `n` little-endian `f64`s.
    pub fn f64s(&mut self, n: usize) -> Option<Vec<f64>> {
        let bytes = self.bytes(n.checked_mul(8)?)?;
        Some(
            bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect(),
        )
    }

    /// A string written by [`put_str`]. `None` on short or non-UTF-8
    /// payloads.
    pub fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.bytes(len)?)
            .ok()
            .map(str::to_owned)
    }
}

/// Appends a weighted dataset: `dim, n` then `n` weights then `n·dim`
/// flat coordinates, all little-endian.
pub(crate) fn put_dataset(out: &mut Vec<u8>, data: &fc_geom::Dataset) {
    put_u32(out, data.dim() as u32);
    put_u32(out, data.len() as u32);
    put_f64s(out, data.weights());
    put_f64s(out, data.points().as_flat());
}

/// Reads a dataset written by [`put_dataset`]. `None` on a short buffer
/// or payload the geometry layer rejects (bad weights, dim mismatch).
pub(crate) fn get_dataset(cur: &mut Cursor<'_>) -> Option<fc_geom::Dataset> {
    let dim = cur.u32()? as usize;
    let n = cur.u32()? as usize;
    let weights = cur.f64s(n)?;
    let flat = cur.f64s(n.checked_mul(dim)?)?;
    let points = fc_geom::Points::from_flat(flat, dim).ok()?;
    fc_geom::Dataset::weighted(points, weights).ok()
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f64` (bit pattern preserved).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a run of little-endian `f64`s (no count — the record's own
/// header carries it).
pub fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    out.reserve(xs.len() * 8);
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time table loop [`crc32`] replaced — the reference
    /// the sliced implementation is held to.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        const TABLE: [u32; 256] = crc32_table();
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let at = Envelope::Record.open(&mut out);
        out.extend_from_slice(payload);
        Envelope::Record.seal(&mut out, at);
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    proptest! {
        /// Slice-by-8 equals the byte loop on every length and at every
        /// offset of the 8-byte step (head alignment and tail length).
        #[test]
        fn crc32_equals_the_bytewise_reference(
            bytes in prop::collection::vec(0u8..=255, 0..4105),
        ) {
            for offset in 0..=bytes.len().min(7) {
                let window = &bytes[offset..];
                prop_assert_eq!(crc32(window), crc32_reference(window));
            }
        }
    }

    #[test]
    fn envelopes_differ_only_in_their_header() {
        let mut sealed = Vec::new();
        for envelope in [Envelope::Plain, Envelope::Checked, Envelope::Record] {
            // An envelope opens wherever the buffer ends, not only at 0.
            let at = envelope.open(&mut sealed);
            sealed.extend_from_slice(b"payload");
            envelope.seal(&mut sealed, at);
        }
        let crc = crc32(b"payload").to_le_bytes();
        let mut want = Vec::new();
        want.extend_from_slice(&7u32.to_le_bytes());
        want.extend_from_slice(b"payload");
        want.extend_from_slice(&11u32.to_le_bytes());
        want.extend_from_slice(&crc);
        want.extend_from_slice(b"payload");
        want.extend_from_slice(&7u32.to_le_bytes());
        want.extend_from_slice(&crc);
        want.extend_from_slice(b"payload");
        assert_eq!(sealed, want);
        assert_eq!(verified(&want[15..26]), Some(&b"payload"[..]));
        assert_eq!(verified(&want[15..25]), None, "a cut payload fails its CRC");
        assert_eq!(verified(&crc[..3]), None, "too short to hold a checksum");
    }

    #[test]
    fn records_round_trip_back_to_back() {
        let mut buf = Vec::new();
        let payloads: [&[u8]; 3] = [b"alpha", b"", b"\x00\xff\x10"];
        for p in payloads {
            buf.extend_from_slice(&frame(p));
        }
        let mut pos = 0;
        for expected in payloads {
            match read_framed(&buf, &mut pos) {
                ReadOutcome::Record(got) => assert_eq!(got, expected),
                _ => panic!("expected a record"),
            }
        }
        assert!(matches!(read_framed(&buf, &mut pos), ReadOutcome::Eof));
    }

    #[test]
    fn every_truncation_is_torn_never_misparsed() {
        let mut buf = frame(b"first record payload");
        buf.extend_from_slice(&frame(b"second"));
        let first_len = frame(b"first record payload").len();
        for cut in 0..buf.len() {
            let short = &buf[..cut];
            let mut pos = 0;
            // Records wholly before the cut still parse; the boundary
            // itself is Eof or Torn, never a wrong record.
            if cut >= first_len {
                match read_framed(short, &mut pos) {
                    ReadOutcome::Record(got) => assert_eq!(got, b"first record payload"),
                    _ => panic!("full first record must parse at cut {cut}"),
                }
            }
            match read_framed(short, &mut pos) {
                ReadOutcome::Record(got) => {
                    assert_eq!(got, b"second");
                    assert_eq!(cut, buf.len());
                }
                ReadOutcome::Eof => assert!(pos == short.len()),
                ReadOutcome::Torn => assert!(cut < buf.len()),
            }
        }
    }

    #[test]
    fn corrupt_bytes_are_torn() {
        let good = frame(b"payload");
        // Flip one payload byte: checksum catches it.
        let mut flipped = good.clone();
        *flipped.last_mut().expect("non-empty") ^= 0x01;
        let mut pos = 0;
        assert!(matches!(read_framed(&flipped, &mut pos), ReadOutcome::Torn));
        assert_eq!(pos, 0, "torn reads leave the position at the boundary");
        // An absurd length prefix is torn, not a giant allocation.
        let mut huge = good;
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        pos = 0;
        assert!(matches!(read_framed(&huge, &mut pos), ReadOutcome::Torn));
    }
}
