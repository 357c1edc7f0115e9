//! Incremental wire framing: bytes in, complete frames out.
//!
//! Three frame formats share this module. [`LineCodec`] turns an arbitrary
//! byte stream — frames split or coalesced at any boundary the transport
//! happened to pick — back into `\n`-terminated UTF-8 lines without ever
//! blocking: push whatever bytes arrived, then drain the complete frames.
//! [`BinaryCodec`] does the same for the two binary envelopes of
//! [`fc_persist::record::Envelope`]: `[u32 LE length][payload]` (`bin1`)
//! and `[u32 LE length][u32 LE crc32][payload]` (`bin1c`, the length
//! counting the checksum too, each payload verified before it is handed
//! up). [`WireCodec`] abstracts over all three, so every side of a
//! connection frames through one type; what a connection *does* with its
//! frames — the upgrade handshake, which errors are answered and where —
//! is [`crate::session`].
//!
//! Failure shapes differ in what can happen next:
//!
//! - an invalid-UTF-8 line is *recoverable* — the frame boundary is known,
//!   so the line is discarded and the stream resynchronizes at the next
//!   newline;
//! - an oversized frame (no newline within [`LineCodec::max_frame`]
//!   bytes, or a binary length prefix past the limit) is *fatal* — the
//!   boundary of the runaway frame is unknowable (or the peer is asking
//!   the server to buffer without bound), so the codec poisons itself;
//! - a binary stream that ends mid-frame is *fatal* at EOF — unlike a
//!   line, a truncated length-prefixed record has no implicit terminator;
//! - a checksum mismatch on a `bin1c` frame is *recoverable* — the length
//!   prefix fixed the frame's boundary, so the damaged frame is discarded
//!   and the stream resynchronizes at the next frame.

/// Largest *request* frame the server buffers. A peer that never sends a
/// newline would otherwise grow the buffer until the process OOMs; 64 MiB
/// comfortably fits the largest sane ingest batch. (The client direction
/// reads unbounded — responses are whatever the server legitimately
/// serves.)
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// A framing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The line is not valid UTF-8. Recoverable: the offending frame was
    /// consumed and the stream resynchronizes at the next newline.
    InvalidUtf8,
    /// No newline arrived within the frame limit, or a binary length
    /// prefix promised a payload past it. Fatal: the rest of the frame
    /// cannot be resynchronized (or must not be buffered), so the
    /// connection must close.
    Oversized {
        /// The configured frame limit in bytes.
        limit: usize,
    },
    /// A binary stream ended mid-frame (partial length prefix or partial
    /// payload at EOF). Fatal: the record can never complete.
    Truncated,
    /// A checksummed (`bin1c`) frame's payload failed CRC verification.
    /// Recoverable: the length prefix fixed the frame boundary, so the
    /// damaged frame was consumed and the stream resynchronizes at the
    /// next frame.
    Corrupt,
}

impl FrameError {
    /// Whether the connection can keep framing after this error.
    pub fn is_fatal(&self) -> bool {
        matches!(self, FrameError::Oversized { .. } | FrameError::Truncated)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::InvalidUtf8 => write!(f, "line is not valid UTF-8"),
            FrameError::Oversized { limit } => {
                write!(f, "frame exceeds {limit} bytes")
            }
            FrameError::Truncated => write!(f, "frame truncated at end of stream"),
            FrameError::Corrupt => write!(f, "frame failed checksum verification"),
        }
    }
}

impl std::error::Error for FrameError {}

/// An incremental line framer over a byte buffer.
///
/// ```
/// use fc_service::framing::LineCodec;
///
/// let mut codec = LineCodec::new(1024);
/// codec.push(b"{\"op\":\"stats\"}\n{\"op\":");
/// assert_eq!(codec.next_frame(), Ok(Some("{\"op\":\"stats\"}".to_owned())));
/// assert_eq!(codec.next_frame(), Ok(None)); // second frame still partial
/// codec.push(b"\"stats\"}\n");
/// assert_eq!(codec.next_frame(), Ok(Some("{\"op\":\"stats\"}".to_owned())));
/// ```
#[derive(Debug)]
pub struct LineCodec {
    buf: Vec<u8>,
    /// Bytes before this offset are consumed (compacted away lazily).
    start: usize,
    /// How far past `start` the newline scan has looked, so repeated
    /// `next_frame` calls on a partial frame never rescan bytes.
    scanned: usize,
    max_frame: usize,
    /// Set once an oversized frame was observed; the codec refuses to
    /// resynchronize afterwards (the caller must close the connection).
    poisoned: bool,
}

impl LineCodec {
    /// A codec that rejects frames longer than `max_frame` bytes
    /// (newline excluded).
    pub fn new(max_frame: usize) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            max_frame,
            poisoned: false,
        }
    }

    /// The configured frame limit in bytes.
    pub fn max_frame(&self) -> usize {
        self.max_frame
    }

    /// Appends bytes read from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: consumed frames must not count against
        // the frame limit, and the buffer must not grow without bound
        // across many pipelined frames.
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet framed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete line, if one is buffered. Trailing `\r`
    /// is stripped (the protocol is `\n`-terminated; tolerate CRLF peers).
    ///
    /// `Ok(None)` means "no complete frame yet — read more bytes".
    pub fn next_frame(&mut self) -> Result<Option<String>, FrameError> {
        if self.poisoned {
            return Err(self.oversized());
        }
        let unscanned = &self.buf[self.start + self.scanned..];
        match unscanned.iter().position(|&b| b == b'\n') {
            Some(offset) => {
                let end = self.start + self.scanned + offset;
                self.cut(end, end + 1).map(Some)
            }
            None => {
                self.scanned = self.buf.len() - self.start;
                if self.scanned > self.max_frame {
                    return Err(self.oversized());
                }
                Ok(None)
            }
        }
    }

    /// Consumes whatever is still buffered as one final frame — EOF acts
    /// as an implicit terminator, so a peer that writes its last request
    /// and closes without a trailing newline still gets an answer (the
    /// lenient behaviour `BufRead::read_until` gave the old server).
    /// `Ok(None)` when nothing is buffered; the same limit and UTF-8
    /// rules as [`Self::next_frame`] apply.
    pub fn finish(&mut self) -> Result<Option<String>, FrameError> {
        if self.poisoned {
            return Err(self.oversized());
        }
        if self.buffered() == 0 {
            return Ok(None);
        }
        let end = self.buf.len();
        self.cut(end, end).map(Some)
    }

    /// Takes the line `[start, end)` and resumes framing at `next`.
    fn cut(&mut self, end: usize, next: usize) -> Result<String, FrameError> {
        // The limit binds whether or not the newline has arrived: a
        // complete frame past it is rejected, not returned (one big push
        // must not bypass what chunked pushes enforce).
        if end - self.start > self.max_frame {
            return Err(self.oversized());
        }
        let mut line_end = end;
        if line_end > self.start && self.buf[line_end - 1] == b'\r' {
            line_end -= 1;
        }
        let frame = std::str::from_utf8(&self.buf[self.start..line_end])
            .map(str::to_owned)
            .map_err(|_| FrameError::InvalidUtf8);
        // Consume the frame on both outcomes: an invalid-UTF-8 line has a
        // known boundary, so the stream resynchronizes right behind it.
        self.start = next;
        self.scanned = 0;
        frame
    }

    /// Poisons the codec: it refuses to resynchronize afterwards.
    fn oversized(&mut self) -> FrameError {
        self.poisoned = true;
        FrameError::Oversized {
            limit: self.max_frame,
        }
    }

    /// Whether an oversized frame has poisoned this codec (the connection
    /// must close; no further frames will ever be produced).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Takes every unconsumed byte out of the codec, leaving it empty.
    /// Used when a connection upgrades wire formats mid-stream: bytes the
    /// peer pipelined after its `hello` line belong to the *next* codec.
    pub fn take_remaining(&mut self) -> Vec<u8> {
        let rest = self.buf.split_off(self.start);
        self.buf.clear();
        self.start = 0;
        self.scanned = 0;
        rest
    }
}

/// An incremental length-prefixed binary framer: each frame on the wire
/// is `[u32 little-endian payload length][payload bytes]`. Same contract
/// as [`LineCodec`] — push whatever bytes arrived, drain complete frames
/// — but the payload is opaque bytes, not UTF-8 text.
///
/// ```
/// use fc_service::framing::BinaryCodec;
///
/// let mut codec = BinaryCodec::new(1024);
/// codec.push(&[3, 0, 0, 0, b'a', b'b', b'c', 2, 0]);
/// assert_eq!(codec.next_frame(), Ok(Some(b"abc".to_vec())));
/// assert_eq!(codec.next_frame(), Ok(None)); // second frame still partial
/// ```
#[derive(Debug)]
pub struct BinaryCodec {
    buf: Vec<u8>,
    /// Bytes before this offset are consumed (compacted away lazily).
    start: usize,
    max_frame: usize,
    /// `bin1c` mode: every frame carries a CRC-32 of its payload between
    /// the length prefix and the payload (the length counts both).
    checked: bool,
    /// Set once an oversized prefix was observed; the codec refuses to
    /// continue afterwards (the caller must close the connection).
    poisoned: bool,
}

impl BinaryCodec {
    /// A codec that rejects payloads longer than `max_frame` bytes
    /// (length prefix excluded).
    pub fn new(max_frame: usize) -> Self {
        Self::with_remainder_checked(max_frame, Vec::new(), false)
    }

    /// A checksummed (`bin1c`) codec: frames are
    /// `[len][crc32][payload]` and each payload is verified against its
    /// CRC before being handed up.
    pub fn new_checked(max_frame: usize) -> Self {
        Self::with_remainder_checked(max_frame, Vec::new(), true)
    }

    /// Builds a codec, classic or checksummed, pre-seeded with bytes the
    /// transport already delivered (frames the peer pipelined behind its
    /// upgrade request).
    pub fn with_remainder_checked(max_frame: usize, remainder: Vec<u8>, checked: bool) -> Self {
        Self {
            buf: remainder,
            start: 0,
            max_frame,
            checked,
            poisoned: false,
        }
    }

    /// Whether this codec verifies per-frame CRCs (`bin1c`).
    pub fn is_checked(&self) -> bool {
        self.checked
    }

    /// Appends bytes read from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet framed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete payload, if one is buffered.
    ///
    /// `Ok(None)` means "no complete frame yet — read more bytes". A
    /// length prefix past the limit poisons the codec: honoring it would
    /// let the peer grow the buffer without bound, and skipping it is
    /// indistinguishable from desynchronizing, so the connection must be
    /// answered once and closed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.poisoned {
            return Err(FrameError::Oversized {
                limit: self.max_frame,
            });
        }
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        // In checked mode `len` counts the 4-byte CRC plus the payload, so
        // the limit applies to `len - 4`. A checked frame too short to even
        // hold its checksum is corrupt, not oversized — the boundary is
        // still known, so it is skipped like any other damaged frame.
        if len.saturating_sub(if self.checked { 4 } else { 0 }) > self.max_frame {
            self.poisoned = true;
            return Err(FrameError::Oversized {
                limit: self.max_frame,
            });
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let body = &avail[4..4 + len];
        let payload = if self.checked {
            fc_persist::record::verified(body)
        } else {
            Some(body)
        }
        .map(<[u8]>::to_vec);
        self.start += 4 + len;
        payload.map(Some).ok_or(FrameError::Corrupt)
    }

    /// Signals EOF. Leftover bytes mean the stream died mid-frame: unlike
    /// a line, a length-prefixed record has no implicit terminator, so a
    /// partial frame at EOF is an error, not a lenient final frame.
    pub fn finish(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.poisoned {
            return Err(FrameError::Oversized {
                limit: self.max_frame,
            });
        }
        if self.buffered() == 0 {
            return Ok(None);
        }
        self.poisoned = true;
        Err(FrameError::Truncated)
    }

    /// Whether a fatal framing error has poisoned this codec.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

/// One complete frame off the wire, in whichever format the connection
/// negotiated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFrame {
    /// A JSON-lines frame (the `\n` terminator already stripped).
    Line(String),
    /// A `bin1` binary payload (the length prefix already stripped).
    Binary(Vec<u8>),
    /// A `bin1c` binary payload whose CRC already verified (length prefix
    /// and checksum stripped). Same payload encoding as [`Self::Binary`];
    /// the distinction tells the responder which frame format to answer
    /// in.
    Checked(Vec<u8>),
}

/// A codec over either wire format. Connections start as
/// [`WireCodec::Json`] and may switch to [`WireCodec::Binary`] after a
/// successful `hello` upgrade; [`WireCodec::upgrade_to_binary`] carries
/// any bytes the peer pipelined behind the upgrade into the new framer.
#[derive(Debug)]
pub enum WireCodec {
    /// JSON-lines framing (the compatible default).
    Json(LineCodec),
    /// Length-prefixed `bin1` framing.
    Binary(BinaryCodec),
}

impl WireCodec {
    /// A JSON-lines codec with the given frame limit — the state every
    /// connection starts in.
    pub fn json(max_frame: usize) -> Self {
        WireCodec::Json(LineCodec::new(max_frame))
    }

    /// Whether this codec frames the binary format (either flavour).
    pub fn is_binary(&self) -> bool {
        matches!(self, WireCodec::Binary(_))
    }

    /// Whether this codec frames the checksummed binary format.
    pub fn is_checked(&self) -> bool {
        matches!(self, WireCodec::Binary(c) if c.is_checked())
    }

    /// Appends bytes read from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        match self {
            WireCodec::Json(c) => c.push(bytes),
            WireCodec::Binary(c) => c.push(bytes),
        }
    }

    /// Bytes buffered but not yet framed.
    pub fn buffered(&self) -> usize {
        match self {
            WireCodec::Json(c) => c.buffered(),
            WireCodec::Binary(c) => c.buffered(),
        }
    }

    /// Extracts the next complete frame, if one is buffered.
    pub fn next_frame(&mut self) -> Result<Option<WireFrame>, FrameError> {
        match self {
            WireCodec::Json(c) => Ok(c.next_frame()?.map(WireFrame::Line)),
            WireCodec::Binary(c) if c.is_checked() => Ok(c.next_frame()?.map(WireFrame::Checked)),
            WireCodec::Binary(c) => Ok(c.next_frame()?.map(WireFrame::Binary)),
        }
    }

    /// Signals EOF; may yield one final frame (JSON lines treat EOF as an
    /// implicit terminator; binary streams must end on a frame boundary).
    pub fn finish(&mut self) -> Result<Option<WireFrame>, FrameError> {
        match self {
            WireCodec::Json(c) => Ok(c.finish()?.map(WireFrame::Line)),
            WireCodec::Binary(c) if c.is_checked() => Ok(c.finish()?.map(WireFrame::Checked)),
            WireCodec::Binary(c) => Ok(c.finish()?.map(WireFrame::Binary)),
        }
    }

    /// Whether a fatal framing error has poisoned this codec.
    pub fn is_poisoned(&self) -> bool {
        match self {
            WireCodec::Json(c) => c.is_poisoned(),
            WireCodec::Binary(c) => c.is_poisoned(),
        }
    }

    /// Switches a JSON connection to binary framing (`checked` selects
    /// `bin1c`), carrying every unconsumed byte (frames the peer
    /// pipelined after its `hello`) into the new framer. No-op if already
    /// binary.
    pub fn upgrade_to_binary(&mut self, checked: bool) {
        if let WireCodec::Json(line) = self {
            let max = line.max_frame();
            let rest = line.take_remaining();
            *self = WireCodec::Binary(BinaryCodec::with_remainder_checked(max, rest, checked));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_split_and_coalesced_arbitrarily() {
        let mut codec = LineCodec::new(64);
        codec.push(b"ab");
        assert_eq!(codec.next_frame(), Ok(None));
        codec.push(b"c\nde\nf");
        assert_eq!(codec.next_frame(), Ok(Some("abc".into())));
        assert_eq!(codec.next_frame(), Ok(Some("de".into())));
        assert_eq!(codec.next_frame(), Ok(None));
        codec.push(b"\n");
        assert_eq!(codec.next_frame(), Ok(Some("f".into())));
        assert_eq!(codec.next_frame(), Ok(None));
        assert_eq!(codec.buffered(), 0);
    }

    #[test]
    fn crlf_and_empty_lines() {
        let mut codec = LineCodec::new(64);
        codec.push(b"one\r\n\ntwo\n");
        assert_eq!(codec.next_frame(), Ok(Some("one".into())));
        assert_eq!(codec.next_frame(), Ok(Some("".into())));
        assert_eq!(codec.next_frame(), Ok(Some("two".into())));
    }

    #[test]
    fn invalid_utf8_is_recoverable() {
        let mut codec = LineCodec::new(64);
        codec.push(b"\xff\xfe\nok\n");
        assert_eq!(codec.next_frame(), Err(FrameError::InvalidUtf8));
        assert_eq!(codec.next_frame(), Ok(Some("ok".into())));
    }

    #[test]
    fn oversized_frame_poisons_the_codec() {
        let mut codec = LineCodec::new(8);
        codec.push(b"0123456789");
        let err = codec.next_frame().unwrap_err();
        assert!(err.is_fatal(), "{err:?}");
        assert!(codec.is_poisoned());
        // Even a later newline cannot resynchronize.
        codec.push(b"\nok\n");
        assert!(codec.next_frame().is_err());
    }

    #[test]
    fn finish_yields_the_unterminated_tail() {
        let mut codec = LineCodec::new(64);
        codec.push(b"a\nfinal without newline");
        assert_eq!(codec.next_frame(), Ok(Some("a".into())));
        assert_eq!(codec.next_frame(), Ok(None));
        assert_eq!(codec.finish(), Ok(Some("final without newline".into())));
        assert_eq!(codec.finish(), Ok(None));
        // An empty tail is no frame.
        let mut empty = LineCodec::new(64);
        empty.push(b"done\n");
        assert_eq!(empty.next_frame(), Ok(Some("done".into())));
        assert_eq!(empty.finish(), Ok(None));
    }

    #[test]
    fn complete_over_limit_frames_are_rejected_too() {
        // One big push that already contains the newline must not slip a
        // frame past the limit.
        let mut codec = LineCodec::new(8);
        codec.push(b"0123456789ABCDEF\nok\n");
        assert_eq!(codec.next_frame(), Err(FrameError::Oversized { limit: 8 }));
        assert!(codec.is_poisoned());
    }

    #[test]
    fn consumed_frames_do_not_count_against_the_limit() {
        let mut codec = LineCodec::new(8);
        for _ in 0..100 {
            codec.push(b"12345\n");
            assert_eq!(codec.next_frame(), Ok(Some("12345".into())));
        }
        assert!(!codec.is_poisoned());
    }

    fn bin_frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn binary_frames_split_and_coalesced_arbitrarily() {
        let mut codec = BinaryCodec::new(64);
        let mut wire = bin_frame(b"first");
        wire.extend_from_slice(&bin_frame(b"second"));
        // Push one byte at a time: framing must tolerate any chunking.
        for b in wire {
            codec.push(&[b]);
        }
        assert_eq!(codec.next_frame(), Ok(Some(b"first".to_vec())));
        assert_eq!(codec.next_frame(), Ok(Some(b"second".to_vec())));
        assert_eq!(codec.next_frame(), Ok(None));
        assert_eq!(codec.finish(), Ok(None));
    }

    #[test]
    fn binary_empty_payload_is_a_frame() {
        let mut codec = BinaryCodec::new(64);
        codec.push(&bin_frame(b""));
        assert_eq!(codec.next_frame(), Ok(Some(Vec::new())));
    }

    #[test]
    fn binary_oversized_prefix_poisons_the_codec() {
        let mut codec = BinaryCodec::new(8);
        codec.push(&[0xFF, 0xFF, 0xFF, 0x7F]);
        let err = codec.next_frame().unwrap_err();
        assert!(err.is_fatal(), "{err:?}");
        assert!(codec.is_poisoned());
        // Later bytes cannot resynchronize.
        codec.push(&bin_frame(b"ok"));
        assert!(codec.next_frame().is_err());
    }

    #[test]
    fn binary_truncated_at_eof_is_fatal() {
        let mut codec = BinaryCodec::new(64);
        codec.push(&[5, 0, 0, 0, b'a', b'b']);
        assert_eq!(codec.next_frame(), Ok(None));
        assert_eq!(codec.finish(), Err(FrameError::Truncated));
        assert!(codec.is_poisoned());
        // Even a bare partial prefix is truncation.
        let mut codec = BinaryCodec::new(64);
        codec.push(&[5, 0]);
        assert_eq!(codec.finish(), Err(FrameError::Truncated));
    }

    #[test]
    fn binary_consumed_frames_do_not_count_against_the_limit() {
        let mut codec = BinaryCodec::new(8);
        for _ in 0..100 {
            codec.push(&bin_frame(b"12345"));
            assert_eq!(codec.next_frame(), Ok(Some(b"12345".to_vec())));
        }
        assert!(!codec.is_poisoned());
    }

    #[test]
    fn upgrade_carries_pipelined_bytes_into_the_binary_codec() {
        let mut codec = WireCodec::json(64);
        let mut wire = b"{\"op\":\"hello\",\"proto\":\"bin1\"}\n".to_vec();
        wire.extend_from_slice(&bin_frame(b"pipelined"));
        codec.push(&wire);
        let hello = codec.next_frame().unwrap().unwrap();
        assert!(matches!(hello, WireFrame::Line(ref l) if l.contains("hello")));
        codec.upgrade_to_binary(false);
        assert!(codec.is_binary());
        assert!(!codec.is_checked());
        assert_eq!(
            codec.next_frame(),
            Ok(Some(WireFrame::Binary(b"pipelined".to_vec())))
        );
    }

    fn crc_frame(payload: &[u8]) -> Vec<u8> {
        let mut out = ((payload.len() as u32 + 4).to_le_bytes()).to_vec();
        out.extend_from_slice(&fc_persist::crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn checked_frames_round_trip_and_tolerate_chunking() {
        let mut codec = BinaryCodec::new_checked(64);
        let mut wire = crc_frame(b"first");
        wire.extend_from_slice(&crc_frame(b""));
        wire.extend_from_slice(&crc_frame(b"third"));
        for b in wire {
            codec.push(&[b]);
        }
        assert_eq!(codec.next_frame(), Ok(Some(b"first".to_vec())));
        assert_eq!(codec.next_frame(), Ok(Some(Vec::new())));
        assert_eq!(codec.next_frame(), Ok(Some(b"third".to_vec())));
        assert_eq!(codec.next_frame(), Ok(None));
        assert_eq!(codec.finish(), Ok(None));
    }

    #[test]
    fn corrupt_checked_frame_is_recoverable() {
        let mut codec = BinaryCodec::new_checked(64);
        let mut bad = crc_frame(b"payload");
        *bad.last_mut().unwrap() ^= 0x01; // flip one payload bit
        codec.push(&bad);
        codec.push(&crc_frame(b"good"));
        assert_eq!(codec.next_frame(), Err(FrameError::Corrupt));
        assert!(!FrameError::Corrupt.is_fatal());
        assert!(!codec.is_poisoned());
        // The stream resynchronizes on the very next frame.
        assert_eq!(codec.next_frame(), Ok(Some(b"good".to_vec())));
        // A frame too short to hold its checksum is corrupt too.
        let mut codec = BinaryCodec::new_checked(64);
        codec.push(&[2, 0, 0, 0, 0xAA, 0xBB]);
        codec.push(&crc_frame(b"after"));
        assert_eq!(codec.next_frame(), Err(FrameError::Corrupt));
        assert_eq!(codec.next_frame(), Ok(Some(b"after".to_vec())));
    }

    #[test]
    fn checked_limit_applies_to_the_payload_not_the_checksum() {
        // An 8-byte payload under an 8-byte limit: len on the wire is 12.
        let mut codec = BinaryCodec::new_checked(8);
        codec.push(&crc_frame(b"12345678"));
        assert_eq!(codec.next_frame(), Ok(Some(b"12345678".to_vec())));
        // One byte more is oversized and fatal.
        let mut codec = BinaryCodec::new_checked(8);
        codec.push(&crc_frame(b"123456789"));
        assert_eq!(codec.next_frame(), Err(FrameError::Oversized { limit: 8 }));
        assert!(codec.is_poisoned());
    }

    #[test]
    fn upgrade_to_checked_yields_checked_frames() {
        let mut codec = WireCodec::json(64);
        let mut wire = b"{\"op\":\"hello\",\"proto\":\"bin1c\"}\n".to_vec();
        wire.extend_from_slice(&crc_frame(b"pipelined"));
        codec.push(&wire);
        codec.next_frame().unwrap().unwrap();
        codec.upgrade_to_binary(true);
        assert!(codec.is_binary());
        assert!(codec.is_checked());
        assert_eq!(
            codec.next_frame(),
            Ok(Some(WireFrame::Checked(b"pipelined".to_vec())))
        );
    }
}
