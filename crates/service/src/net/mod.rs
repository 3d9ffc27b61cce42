//! The network front: a std-only TCP server and client for the command
//! language.
//!
//! The command language was line-oriented from the start, so the wire
//! protocol is the thinnest possible layer over it (see the *wire
//! protocol* section of the crate docs for the full grammar):
//!
//! * [`frame`] — [`LineFramer`], the request framing layer: an incremental,
//!   quote-aware, length-capped logical-line splitter over a raw byte
//!   stream.  It steps the scanner [`crate::command::split_lines`] steps
//!   over script text, so the two segment alike; `tests/net_framing.rs`
//!   checks that adversarial chunking does not change that.
//! * [`proto`] — the response encoding, and the only text form of a
//!   [`crate::Response`]: zero or more `= `-prefixed data lines followed
//!   by one `OK key=value…` / `ERR code message` status line, with
//!   control characters escaped so every response line is exactly one
//!   physical line.
//! * [`server`] — [`NetServer`]: an acceptor thread that serves each
//!   admitted connection on one scoped thread of its own, at most
//!   [`NetConfig::max_sessions`] at a time (connections beyond that are
//!   refused with `ERR unavailable`, not queued), idle timeouts, and
//!   cooperative graceful shutdown.
//! * [`client`] — [`Client`]: a blocking client speaking the same
//!   protocol, with split `send`/`recv` so callers can pipeline many
//!   commands per round-trip (`kbt-shell --connect` and
//!   `tests/net_concurrent.rs` both use it).

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;

pub use client::Client;
pub use frame::{FrameError, LineFramer, MAX_LINE_BYTES};
pub use proto::WireResponse;
pub use server::{NetConfig, NetServer};
