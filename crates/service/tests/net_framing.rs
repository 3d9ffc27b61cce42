//! Differential proptest for the wire framing layer: on the same text, the
//! incremental [`LineFramer`] — fed the bytes in adversarial chunks — must
//! yield exactly the logical command lines the batch splitter
//! [`split_lines`] yields.  The framer is what the server trusts to
//! segment a TCP byte stream; the splitter is what scripts and
//! `execute_script` use.  Both step one scanner, so what this checks is
//! the framer's buffering: resuming a scan across chunk boundaries must
//! not change where lines end.
//!
//! The generated streams are deliberately nasty: quoted constants
//! containing newlines, quote characters toggling state mid-stream
//! (including unbalanced quotes running to EOF), `#id=` trace prefixes
//! (whose commands keep their quotes live) next to comments (which do
//! not), multi-byte UTF-8 characters that chunk boundaries split
//! mid-encoding, empty lines, and many pipelined commands in one
//! "segment".  Chunk boundaries are part of the generated input, so every
//! shrinkage of a failure would pinpoint both the text and the read
//! pattern that broke.

use kbt_service::command::split_lines;
use kbt_service::net::LineFramer;
use proptest::prelude::*;

/// One building block of the generated stream text.
#[derive(Clone, Debug)]
enum Piece {
    /// A plausible command fragment (ASCII, no quotes or newlines).
    Word(&'static str),
    /// A quoted constant with adversarial contents (newlines, brackets,
    /// multi-byte UTF-8) — always balanced.
    Quoted(&'static str),
    /// A lone quote character: toggles quote state, may leave it open.
    Quote,
    /// A physical newline: a command boundary iff no quote is open.
    Newline,
    /// Multi-byte UTF-8 outside quotes (chunking must not corrupt it).
    Unicode(&'static str),
    /// A `#`-led fragment: a trace prefix, a bare prefix, or a comment.
    Hash(&'static str),
}

const WORDS: &[&str] = &[
    "ASSERT edge(1, 2)",
    "QUERY CERTAIN edge",
    "STATS",
    "DEFINE t := lub",
    "RETRACT edge(2, 3), edge(3, 4)",
    " ",
    "#comment",
    "",
];

const QUOTED: &[&str] = &[
    "'Toronto'",
    "'two\nlines'",
    "'a(b'",
    "'c]d,'",
    "'Montréal'",
    "'\n\n'",
    "'→ arrow'",
];

const UNICODE: &[&str] = &["é", "→", "königsberg", "…"];

const HASH: &[&str] = &[
    "#id=t9 ",
    "#id=req-42\t",
    "#id=",
    "#id= ",
    "#idea ",
    "#i",
    "  #id=x ",
];

fn decode_piece(code: (u8, u8)) -> Piece {
    let (kind, pick) = code;
    match kind % 9 {
        0 | 1 => Piece::Word(WORDS[pick as usize % WORDS.len()]),
        2 | 3 => Piece::Quoted(QUOTED[pick as usize % QUOTED.len()]),
        4 => Piece::Quote,
        5 | 6 => Piece::Newline,
        7 => Piece::Unicode(UNICODE[pick as usize % UNICODE.len()]),
        _ => Piece::Hash(HASH[pick as usize % HASH.len()]),
    }
}

fn render(pieces: &[Piece]) -> String {
    let mut out = String::new();
    for piece in pieces {
        match piece {
            Piece::Word(w) => out.push_str(w),
            Piece::Quoted(q) => out.push_str(q),
            Piece::Quote => out.push('\''),
            Piece::Newline => out.push('\n'),
            Piece::Unicode(u) | Piece::Hash(u) => out.push_str(u),
        }
    }
    out
}

/// The stream text, as pieces.
fn arb_pieces() -> impl Strategy<Value = Vec<Piece>> {
    proptest::collection::vec((0u8..255u8, 0u8..255u8), 0..60)
        .prop_map(|codes| codes.into_iter().map(decode_piece).collect())
}

/// The chunk-length schedule the framer is fed with (lengths are in
/// *bytes* and may split UTF-8 encodings).
fn arb_schedule() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..17, 1..80)
}

/// Feeds `text` to a fresh framer in the chunk sizes of `schedule`
/// (cycling; remainder in one chunk), collecting every yielded line.
fn frame_in_chunks(text: &str, schedule: &[usize]) -> Vec<String> {
    let bytes = text.as_bytes();
    // cap far above any generated line so the differential never trips it
    let mut framer = LineFramer::new(1 << 20);
    let mut out = Vec::new();
    let mut offset = 0;
    let mut schedule = schedule.iter().cycle();
    while offset < bytes.len() {
        let n = (*schedule.next().expect("cycled")).min(bytes.len() - offset);
        framer.push(&bytes[offset..offset + n]);
        offset += n;
        while let Some(line) = framer.next_line().expect("valid UTF-8 input") {
            out.push(line);
        }
    }
    if let Some(tail) = framer.finish().expect("valid UTF-8 input") {
        out.push(tail);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn framer_agrees_with_the_batch_splitter(pieces in arb_pieces(), schedule in arb_schedule()) {
        let text = render(&pieces);
        let expected: Vec<String> =
            split_lines(&text).into_iter().map(str::to_string).collect();
        let framed = frame_in_chunks(&text, &schedule);
        // (on failure the shim reports both sides; text and chunk schedule
        // are recoverable from the printed vectors)
        prop_assert_eq!(framed, expected);
    }
}

#[test]
fn framer_agrees_on_handwritten_adversarial_streams() {
    for text in [
        "",
        "\n",
        "STATS",
        "STATS\n",
        "ASSERT note('one\ntwo')\nSTATS\n",
        "ASSERT pair('a(b', 1), pair('c]d', 2)\nQUERY CERTAIN pair",
        "unbalanced 'quote runs\nto the end",
        "'\n'\n'\n",
        "é→…\n'é\n→'\n",
        "a\r\nb\r\n", // CR is payload, not a terminator
        "# CI's job drives this\nSTATS\n  # trailing note, isn't it\nSTATS\n",
        "ASSERT note('x\n# still quoted\ny')\nSTATS\n",
        "#id=t9 ASSERT note('one\ntwo')\nSTATS\n",
        "#id=t9\tASSERT note('a\n# b')\n#id= it's\nSTATS\n",
        "#idea's\n#id=it's\nSTATS\n",
    ] {
        let expected: Vec<String> = split_lines(text).into_iter().map(str::to_string).collect();
        for chunk in [1usize, 2, 3, 7] {
            let framed = frame_in_chunks(text, &[chunk]);
            assert_eq!(framed, expected, "text {text:?} at chunk size {chunk}");
        }
    }
}
