//! A blocking protocol client: send command lines, receive framed
//! responses.
//!
//! [`Client::send`] buffers; [`Client::recv`] flushes and then reads lines
//! until the terminating status line — so `N × send` followed by
//! `N × recv` pipelines N commands into (at best) one TCP segment each
//! way.  [`Client::roundtrip`] is the one-command convenience.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::net::proto::{is_status_line, WireResponse};

/// A connected protocol client (see module docs).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a running `kbt-serve`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Queues one command line (not flushed until [`recv`](Self::recv) or
    /// [`flush`](Self::flush)).  The command may span physical lines when a
    /// quoted constant contains newlines — the server's framer handles the
    /// continuation.
    pub fn send(&mut self, command: &str) -> std::io::Result<()> {
        self.writer.write_all(command.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Flushes queued commands to the socket.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// Reads one full response (data lines up to and including the status
    /// line), flushing queued commands first.
    pub fn recv(&mut self) -> std::io::Result<WireResponse> {
        self.writer.flush()?;
        let mut data = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            if is_status_line(&line) {
                return Ok(WireResponse { data, status: line });
            }
            data.push(line);
        }
    }

    /// Sends one command and reads its response.
    pub fn roundtrip(&mut self, command: &str) -> std::io::Result<WireResponse> {
        self.send(command)?;
        self.recv()
    }
}
