//! Request framing: an incremental, quote-aware, length-capped splitter of
//! a byte stream into logical command lines.
//!
//! The framer is the streaming form of [`crate::command::split_lines`] and
//! steps the same scanner over its bytes: a command ends at the first
//! newline that is **not** inside a `'…'` quoted constant (the sentence
//! lexer admits any character but `'` there, newlines included), so one
//! command may span several physical lines and several pipelined commands
//! may arrive in one TCP segment.  A `#id=<token> ` trace prefix leaves
//! the command's quotes live; any other `#` line is a comment, quote-inert.
//! Bytes are buffered until a complete logical line is available — a read
//! that splits a multi-byte UTF-8 character (or a quoted constant) mid-way
//! is handled by construction, because decoding happens per complete
//! line, never per chunk.
//!
//! Two failure modes are detected instead of buffered forever:
//!
//! * [`FrameError::LineTooLong`] — the buffered, still-unterminated line
//!   exceeded the configured cap.  There is no way to resynchronise (the
//!   overflow may sit inside a quote), so the server answers
//!   `ERR line-too-long` and closes the connection.
//! * [`FrameError::InvalidUtf8`] — a complete line was not valid UTF-8.
//!   Same answer: `ERR invalid-utf8`, close.

use std::collections::VecDeque;

use crate::command::LineScan;

/// Default cap on one logical command line, in bytes (64 KiB).
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A framing failure (the connection is beyond recovery; see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// An unterminated line exceeded the length cap.
    LineTooLong {
        /// The configured cap the line overflowed.
        limit: usize,
    },
    /// A complete line was not valid UTF-8.
    InvalidUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::LineTooLong { limit } => {
                write!(f, "command line exceeds {limit} bytes")
            }
            FrameError::InvalidUtf8 => write!(f, "command line is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// The incremental framer (see module docs).  Push raw bytes in with
/// [`push`](LineFramer::push), take complete logical lines out with
/// [`next_line`](LineFramer::next_line), and flush the unterminated tail at
/// EOF with [`finish`](LineFramer::finish).
#[derive(Debug)]
pub struct LineFramer {
    buf: VecDeque<u8>,
    /// `buf[..scanned]` is known to contain no line-terminating newline.
    scanned: usize,
    /// Scanner state at `scanned`.
    scan: LineScan,
    max_line: usize,
}

impl LineFramer {
    /// A framer capping logical lines at `max_line` bytes.
    pub fn new(max_line: usize) -> Self {
        LineFramer {
            buf: VecDeque::new(),
            scanned: 0,
            scan: LineScan::Start,
            max_line,
        }
    }

    /// Appends raw bytes from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend(bytes);
    }

    /// Bytes buffered but not yet yielded.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// The next complete logical line (terminating newline excluded), or
    /// `Ok(None)` when more bytes are needed.
    pub fn next_line(&mut self) -> Result<Option<String>, FrameError> {
        // scan forward from where the last call stopped ([`LineScan`]
        // explains why byte-wise scanning is UTF-8 safe)
        while self.scanned < self.buf.len() {
            let byte = self.buf[self.scanned];
            if self.scan.step(byte) {
                if self.scanned > self.max_line {
                    return Err(FrameError::LineTooLong {
                        limit: self.max_line,
                    });
                }
                let line = self.take(self.scanned);
                self.buf.pop_front(); // the newline itself
                return line;
            }
            self.scanned += 1;
        }
        if self.buf.len() > self.max_line {
            return Err(FrameError::LineTooLong {
                limit: self.max_line,
            });
        }
        Ok(None)
    }

    /// Flushes the trailing line at EOF (a final command need not be
    /// newline-terminated), leaving the framer empty.
    pub fn finish(&mut self) -> Result<Option<String>, FrameError> {
        if let Some(line) = self.next_line()? {
            return Ok(Some(line));
        }
        if self.buf.is_empty() {
            return Ok(None);
        }
        self.take(self.buf.len())
    }

    /// Drains the first `len` buffered bytes as one line and restarts the
    /// scan after them.
    fn take(&mut self, len: usize) -> Result<Option<String>, FrameError> {
        let line: Vec<u8> = self.buf.drain(..len).collect();
        self.scanned = 0;
        self.scan = LineScan::Start;
        String::from_utf8(line)
            .map(Some)
            .map_err(|_| FrameError::InvalidUtf8)
    }
}

impl Default for LineFramer {
    fn default() -> Self {
        LineFramer::new(MAX_LINE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(framer: &mut LineFramer) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(line) = framer.next_line().unwrap() {
            out.push(line);
        }
        out
    }

    #[test]
    fn pipelined_commands_in_one_segment_all_come_out() {
        let mut f = LineFramer::default();
        f.push(b"STATS\nASSERT edge(1, 2)\nQUERY CERTAIN edge\n");
        assert_eq!(
            drain(&mut f),
            ["STATS", "ASSERT edge(1, 2)", "QUERY CERTAIN edge"]
        );
        assert_eq!(f.buffered(), 0);
    }

    #[test]
    fn partial_reads_split_anywhere_reassemble() {
        // byte-at-a-time delivery, including mid-UTF-8 ('é' is two bytes)
        let text = "ASSERT city('Montréal')\nSTATS\n".as_bytes();
        let mut f = LineFramer::default();
        let mut out = Vec::new();
        for &b in text {
            f.push(&[b]);
            out.extend(drain(&mut f));
        }
        assert_eq!(out, ["ASSERT city('Montréal')", "STATS"]);
    }

    #[test]
    fn oversized_lines_hit_the_cap() {
        let mut f = LineFramer::new(16);
        f.push(&[b'a'; 17]);
        assert_eq!(f.next_line(), Err(FrameError::LineTooLong { limit: 16 }));
        // an open quote must not defeat the cap either
        let mut f = LineFramer::new(16);
        f.push(b"ASSERT r('aaaaaaaaaaaaaaaa");
        assert!(matches!(f.next_line(), Err(FrameError::LineTooLong { .. })));
    }

    #[test]
    fn exactly_at_the_cap_is_still_fine() {
        let mut f = LineFramer::new(16);
        f.push(&[b'a'; 16]);
        assert_eq!(f.next_line(), Ok(None));
        f.push(b"\n");
        assert_eq!(f.next_line().unwrap().unwrap().len(), 16);
    }

    #[test]
    fn invalid_utf8_is_rejected_per_line() {
        let mut f = LineFramer::default();
        f.push(b"STATS\n\xff\xfe\nSTATS\n");
        assert_eq!(f.next_line().unwrap().unwrap(), "STATS");
        assert_eq!(f.next_line(), Err(FrameError::InvalidUtf8));
    }

    #[test]
    fn finish_flushes_the_unterminated_tail() {
        let mut f = LineFramer::default();
        f.push(b"STATS\nQUERY CERTAIN edge");
        assert_eq!(f.next_line().unwrap().unwrap(), "STATS");
        assert_eq!(f.next_line(), Ok(None));
        assert_eq!(f.finish().unwrap().unwrap(), "QUERY CERTAIN edge");
        assert_eq!(f.finish(), Ok(None));
    }
}
