//! The line protocol's framing, written once.
//!
//! Every hop of the serve tier speaks newline-delimited JSON: a request
//! is one line of at most [`MAX_LINE_BYTES`], a reply is one line whose
//! bound the reader chooses ([`MAX_REPLY_BYTES`] for a daemon's answer
//! to the router or `madpipe top`, [`MAX_ACK_BYTES`] for a gossip ack).
//! This module holds those bounds and the two pieces that enforce them:
//!
//! * [`LineBuf`], the inbound framer. Bytes go in, complete lines (or an
//!   [`Oversized`] marker) come out. A line longer than
//!   [`MAX_LINE_BYTES`] is rejected whether it arrived whole or is still
//!   streaming in — the buffer never grows much past the bound — and
//!   the rest of it is thrown away up to the next newline. The daemon
//!   reactor and the router's connection loop both frame through it.
//! * [`LineConn`], the outbound client: dial with connect and I/O
//!   timeouts and `nodelay`, send one line, read one bounded reply line.
//!   The router's backend forwards and rollup probes, the gossip sender
//!   and `madpipe top` all use it; [`pooled_exchange`] adds the
//!   persistent-connection reuse and redial-on-failure they share.

use std::collections::HashMap;
use std::hash::Hash;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use madpipe_json::Value;

use crate::protocol::ServeError;

/// Hard bound on one request line, newline excluded. A hostile client
/// streaming an endless line is rejected as soon as the buffer crosses
/// this, long before an allocation worth worrying about; 1 MiB
/// comfortably fits any real instance (a 64k-layer chain is itself
/// rejected by the planner).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Cap on one daemon reply line read by the router or `madpipe top` (a
/// rendered plan is well under [`MAX_LINE_BYTES`]; a metrics dump can be
/// larger).
pub const MAX_REPLY_BYTES: usize = 4 << 20;

/// Cap on a gossip peer's one-line acknowledgment.
pub(crate) const MAX_ACK_BYTES: usize = 64 * 1024;

/// Read granularity of [`LineBuf::read_from`].
const READ_CHUNK: usize = 16 * 1024;

/// A request line crossed [`MAX_LINE_BYTES`]. Answered with a structured
/// `malformed` error in the line's pipeline position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Oversized;

impl From<Oversized> for ServeError {
    fn from(_: Oversized) -> ServeError {
        ServeError::malformed(format!("request line exceeds {MAX_LINE_BYTES} bytes"))
    }
}

/// Inbound line framer. Lines come out trimmed; blank lines are skipped.
#[derive(Debug, Default)]
pub(crate) struct LineBuf {
    buf: Vec<u8>,
    /// Start of the unconsumed bytes in `buf`.
    head: usize,
    /// Unconsumed bytes already searched for a newline, so a line
    /// streaming in over many reads is scanned once, not once per read.
    scanned: usize,
    /// Throwing away the rest of a line already reported [`Oversized`].
    discarding: bool,
}

impl LineBuf {
    /// Unconsumed bytes held (complete lines plus a partial tail).
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether a complete line is buffered.
    pub fn has_line(&self) -> bool {
        self.buf[self.head..].contains(&b'\n')
    }

    /// Append received bytes, dropping the tail of a rejected line.
    pub fn push(&mut self, mut data: &[u8]) {
        if self.discarding {
            match data.iter().position(|b| *b == b'\n') {
                Some(pos) => {
                    self.discarding = false;
                    data = &data[pos + 1..];
                }
                None => return,
            }
        }
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// One `read` from `src` into the buffer; `Ok(0)` is end of stream.
    pub fn read_from(&mut self, mut src: impl Read) -> std::io::Result<usize> {
        let mut chunk = [0u8; READ_CHUNK];
        let n = src.read(&mut chunk)?;
        self.push(&chunk[..n]);
        Ok(n)
    }

    /// The next complete line, trimmed, or [`Oversized`] for a line over
    /// the bound — complete, or partial with no newline yet (its rest is
    /// then discarded as it arrives). `None` until more bytes arrive.
    pub fn next_line(&mut self) -> Option<Result<String, Oversized>> {
        loop {
            let from = self.head + self.scanned;
            let Some(pos) = self.buf[from..].iter().position(|b| *b == b'\n') else {
                self.scanned = self.len();
                if self.scanned > MAX_LINE_BYTES {
                    *self = LineBuf {
                        discarding: true,
                        ..LineBuf::default()
                    };
                    return Some(Err(Oversized));
                }
                return None;
            };
            let (start, end) = (self.head, from + pos);
            self.head = end + 1;
            self.scanned = 0;
            if end - start > MAX_LINE_BYTES {
                return Some(Err(Oversized));
            }
            let text = String::from_utf8_lossy(&self.buf[start..end]);
            let trimmed = text.trim();
            if !trimmed.is_empty() {
                return Some(Ok(trimmed.to_owned()));
            }
        }
    }
}

/// Outbound line client: one request line out, one bounded reply back.
#[derive(Debug)]
pub struct LineConn {
    reader: BufReader<TcpStream>,
}

impl LineConn {
    /// Dial `addr`, waiting at most `connect` for the handshake and `io`
    /// for each read or write afterwards.
    pub fn dial(addr: &str, connect: Duration, io: Duration) -> std::io::Result<LineConn> {
        let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                ErrorKind::InvalidInput,
                format!("`{addr}` resolves to nothing"),
            )
        })?;
        let stream = TcpStream::connect_timeout(&sockaddr, connect)?;
        stream.set_read_timeout(Some(io))?;
        stream.set_write_timeout(Some(io))?;
        stream.set_nodelay(true)?;
        Ok(LineConn {
            reader: BufReader::new(stream),
        })
    }

    /// Send `line` and read the one reply line, newline stripped. A reply
    /// longer than `max_reply` bytes is an `InvalidData` error, raised
    /// once one byte past the bound has arrived (the reply buffer grows
    /// no further); a peer that hangs up mid-line is `UnexpectedEof`.
    pub fn exchange(&mut self, line: &str, max_reply: usize) -> std::io::Result<String> {
        let mut request = Vec::with_capacity(line.len() + 1);
        request.extend_from_slice(line.as_bytes());
        request.push(b'\n');
        self.reader.get_mut().write_all(&request)?;
        let mut reply = Vec::new();
        let n = (&mut self.reader)
            .take(max_reply as u64 + 1)
            .read_until(b'\n', &mut reply)?;
        if reply.last() != Some(&b'\n') {
            let kind = if n > max_reply {
                ErrorKind::InvalidData
            } else {
                ErrorKind::UnexpectedEof
            };
            return Err(kind.into());
        }
        reply.pop();
        Ok(String::from_utf8_lossy(&reply).into_owned())
    }
}

/// One exchange on the persistent connection kept under `key`, dialing
/// it first if absent. A failed exchange drops the connection, so the
/// next call redials instead of reading a desynchronized stream.
pub(crate) fn pooled_exchange<K: Eq + Hash + Clone>(
    pool: &mut HashMap<K, LineConn>,
    key: &K,
    dial: impl FnOnce() -> std::io::Result<LineConn>,
    line: &str,
    max_reply: usize,
) -> std::io::Result<String> {
    if !pool.contains_key(key) {
        pool.insert(key.clone(), dial()?);
    }
    let reply = pool
        .get_mut(key)
        .expect("dialed above")
        .exchange(line, max_reply);
    if reply.is_err() {
        pool.remove(key);
    }
    reply
}

/// Round-trip one command on a fresh connection and parse the reply as
/// JSON (`health`/`metrics` probes: rare enough that freshness beats
/// pooling).
pub fn probe(addr: &str, line: &str, connect: Duration, io: Duration) -> std::io::Result<Value> {
    let reply = LineConn::dial(addr, connect, io)?.exchange(line, MAX_REPLY_BYTES)?;
    Value::parse(&reply)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, format!("bad response: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn drain(lines: &mut LineBuf) -> Vec<Result<String, Oversized>> {
        std::iter::from_fn(|| lines.next_line()).collect()
    }

    #[test]
    fn lines_are_trimmed_reassembled_and_blank_ones_skipped() {
        let mut lines = LineBuf::default();
        lines.push(b"  one \r\n\n   \ntw");
        assert_eq!(drain(&mut lines), vec![Ok("one".to_string())]);
        assert!(!lines.has_line());
        lines.push(b"o\nthree");
        assert_eq!(drain(&mut lines), vec![Ok("two".to_string())]);
        assert_eq!(lines.len(), 5, "the partial tail stays buffered");
    }

    #[test]
    fn a_whole_line_over_the_bound_is_rejected_and_the_next_served() {
        let mut lines = LineBuf::default();
        let mut data = vec![b'x'; MAX_LINE_BYTES + 10];
        data.extend_from_slice(b"\n{\"cmd\":\"ping\"}\n");
        lines.push(&data);
        assert_eq!(
            drain(&mut lines),
            vec![Err(Oversized), Ok("{\"cmd\":\"ping\"}".to_string())]
        );
        // Exactly at the bound is still a line.
        let mut data = vec![b'y'; MAX_LINE_BYTES];
        data.push(b'\n');
        lines.push(&data);
        assert_eq!(drain(&mut lines), vec![Ok("y".repeat(MAX_LINE_BYTES))]);
    }

    #[test]
    fn a_streaming_line_is_rejected_once_as_it_crosses_the_bound() {
        let mut lines = LineBuf::default();
        let chunk = vec![b'x'; 64 << 10];
        let mut verdicts = Vec::new();
        for _ in 0..40 {
            lines.push(&chunk);
            verdicts.extend(drain(&mut lines));
            assert!(lines.len() <= MAX_LINE_BYTES + chunk.len());
        }
        assert_eq!(verdicts, vec![Err(Oversized)]);
        // The tail is discarded up to its newline; what follows is served.
        lines.push(b"tail\nnext\n");
        assert_eq!(drain(&mut lines), vec![Ok("next".to_string())]);
    }

    /// Run `client` against a one-shot peer that reads the request and
    /// answers `reply`; the peer thread is joined before returning.
    fn against_peer<T>(reply: &[u8], client: impl FnOnce(&str) -> T) -> T {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let (mut stream, _) = listener.accept().unwrap();
                let mut request = [0u8; 64];
                let _ = stream.read(&mut request);
                // The client may hang up first; that is the point of some tests.
                let _ = stream.write_all(reply);
            });
            client(&addr)
        })
    }

    fn dial(addr: &str) -> LineConn {
        let t = Duration::from_secs(5);
        LineConn::dial(addr, t, t).unwrap()
    }

    #[test]
    fn the_client_round_trips_one_line() {
        let reply = against_peer(b"{\"pong\":true}\n", |addr| {
            dial(addr).exchange("{\"cmd\":\"ping\"}", 64)
        });
        assert_eq!(reply.unwrap(), "{\"pong\":true}");
    }

    #[test]
    fn the_client_stops_at_the_reply_bound_instead_of_growing() {
        // A peer streaming far past the bound with no newline: the client
        // gives up one byte past the bound, long before the stream ends.
        let err = against_peer(&vec![b'x'; 8 << 20], |addr| dial(addr).exchange("x", 1024));
        assert_eq!(err.unwrap_err().kind(), ErrorKind::InvalidData);
        // A reply exactly at the bound is accepted.
        let mut reply = vec![b'y'; 1024];
        reply.push(b'\n');
        let ok = against_peer(&reply, |addr| dial(addr).exchange("x", 1024));
        assert_eq!(ok.unwrap().len(), 1024);
    }

    #[test]
    fn a_peer_hanging_up_mid_line_is_an_eof_error() {
        let err = against_peer(b"{\"partial\":", |addr| dial(addr).exchange("x", 1024));
        assert_eq!(err.unwrap_err().kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_pooled_connection_is_reused_and_redialed_after_a_failure() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            // First connection: answer twice, then hang up mid-line.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            for reply in [&b"a\n"[..], b"b\n", b"c"] {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                reader.get_mut().write_all(reply).unwrap();
            }
            drop(reader);
            // Second connection: the redial.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            reader.get_mut().write_all(b"d\n").unwrap();
        });
        let mut pool: HashMap<usize, LineConn> = HashMap::new();
        let dials = std::cell::Cell::new(0);
        let call = |pool: &mut HashMap<usize, LineConn>| {
            let redial = || {
                dials.set(dials.get() + 1);
                Ok(dial(&addr))
            };
            pooled_exchange(pool, &0, redial, "q", 16)
        };
        assert_eq!(call(&mut pool).unwrap(), "a");
        assert_eq!(call(&mut pool).unwrap(), "b");
        assert!(call(&mut pool).is_err());
        assert!(pool.is_empty(), "a failed connection is dropped");
        assert_eq!(call(&mut pool).unwrap(), "d");
        assert_eq!(dials.get(), 2, "reused once, redialed once");
        peer.join().expect("peer thread");
    }
}
