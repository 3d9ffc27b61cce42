//! The textual command language — parsing and rendering.
//!
//! One command per line.  Verbs are case-insensitive; everything after the
//! verb is parsed against a [`Vocabulary`] (the caller decides *which*
//! vocabulary: the writer path uses the authoritative one, the query path a
//! snapshot's clone).  Sentences inside `tau[…]` reuse
//! [`kbt_logic::parser`] unchanged, so the wire format for transformations
//! is exactly the parser/pretty-printer pair whose round-trip identity
//! `parse(pretty(φ)) == φ` is enforced by `crates/logic/tests/roundtrip.rs`.
//!
//! ```text
//! command  := LOAD <path>                       -- run a script file
//!           | CHECKPOINT                        -- durable only: snapshot the state now
//!           | WALSTAT                           -- durable only: write-ahead-log state
//!           | ASSERT <fact> ("," <fact>)*       -- commit: add facts to every world
//!           | RETRACT <fact> ("," <fact>)*      -- commit: remove facts from every world
//!           | DEFINE <name> := <texpr>          -- register a named transformation
//!           | APPLY <name>                      -- commit: kb := T(kb)
//!           | QUERY CERTAIN <goal>              -- snapshot read: facts true in every world
//!           | QUERY POSSIBLE <goal>             -- snapshot read: facts true in some world
//!           | QUERY <texpr>                     -- snapshot read: evaluate an expression
//!           | EXPLAIN <query>                   -- render the query's plan, no evaluation
//!           | PROFILE <query>                   -- evaluate + per-rule fixpoint breakdown
//!           | STATS                             -- service counters
//!           | METRICS                           -- metrics text exposition
//!           | "#" …                             -- comment (ignored), as are blank lines
//!
//! texpr    := step (";" step)*
//! step     := "tau[" <sentence> "]"             -- τ_φ, sentence per kbt_logic::parser
//!           | "glb" | "lub" | "id"              -- ⊓, ⊔, identity
//!           | "project[" <relation> ("," <relation>)* "]"   -- π
//!
//! goal     := <relation>                        -- every fact of the relation
//!           | <relation> "(" arg ("," arg)* ")" -- goal-directed point query
//! arg      := <const>                           -- a bound argument position
//!           | IDENT                             -- a free argument position
//!
//! fact     := <relation> "(" <const> ("," <const>)* ")" | <relation> "()"
//! const    := NUMBER | "'" chars "'"
//! ```
//!
//! The bound goal form (`QUERY CERTAIN reach('a', x)`) names an existing
//! relation with its exact arity; constants bind argument positions,
//! identifiers leave them free.  The relation must already be known
//! (`unknown-relation`) with the supplied argument count
//! (`arity-mismatch`) — a bound query never interns new names, so a typo
//! is an error rather than a silently empty answer.  Repeating a variable
//! (`reach(x, x)`) constrains the named positions to be equal.

use kbt_core::Transform;
use kbt_data::{Const, RelId, Tuple, Vocabulary};
use kbt_logic::parser::{parse_formula, parse_sentence};
use kbt_logic::{pretty, Formula, Term};

use crate::error::{Result, ServiceError};

/// The verb of a command line (the payload stays unparsed until the caller
/// supplies a vocabulary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// Blank line or comment.
    Nop,
    Load,
    Assert,
    Retract,
    Define,
    Apply,
    Query,
    /// `EXPLAIN <query>` — render the query's evaluation plan without
    /// evaluating anything (see the crate-level *Observability* section).
    Explain,
    /// `PROFILE <query>` — evaluate the query and report a per-rule
    /// fixpoint breakdown alongside the result summary.
    Profile,
    Stats,
    /// `METRICS` — the Prometheus-style text exposition of every metric
    /// (see the crate-level *Observability* section).
    Metrics,
    /// `CHECKPOINT` — write an epoch snapshot to the data directory now
    /// (durable services only; see the crate-level *Durability* section).
    Checkpoint,
    /// `WALSTAT` — report write-ahead-log state: record/byte/fsync totals,
    /// the durable epoch and the newest checkpoint epoch.
    Walstat,
}

/// A parsed `QUERY` payload.
#[derive(Clone, Debug)]
pub enum QueryCmd {
    /// Facts holding in **every** world of the knowledgebase.
    Certain(QueryGoal),
    /// Facts holding in **at least one** world.
    Possible(QueryGoal),
    /// A transformation expression, evaluated read-only on the snapshot.
    Transform(Transform),
}

/// The goal of a `CERTAIN`/`POSSIBLE` query: a bare relation (all facts) or
/// a bound argument pattern (`reach('a', x)`) for the goal-directed path.
#[derive(Clone, Debug)]
pub struct QueryGoal {
    /// The queried relation.
    pub rel: RelId,
    /// `None` for the bare form; `Some(args)` carries one term per argument
    /// position — constants are bound, variables free.
    pub terms: Option<Vec<Term>>,
}

impl QueryGoal {
    /// A bare (all-facts) goal.
    pub fn bare(rel: RelId) -> Self {
        QueryGoal { rel, terms: None }
    }

    /// Whether any argument position is bound to a constant.
    pub fn is_bound(&self) -> bool {
        self.terms
            .as_ref()
            .is_some_and(|ts| ts.iter().any(|t| matches!(t, Term::Const(_))))
    }
}

fn parse_err(message: impl Into<String>) -> ServiceError {
    ServiceError::Parse {
        message: message.into(),
    }
}

/// Every verb with its name, lowercase: [`split_command`] matches command
/// words against it case-insensitively, and the net front labels each
/// verb's latency series with it (`kbt_net_command_ns{verb="…"}`).  `nop`
/// names blank and comment lines, which no command word spells.
pub(crate) const VERBS: [(Verb, &str); 13] = [
    (Verb::Nop, "nop"),
    (Verb::Load, "load"),
    (Verb::Assert, "assert"),
    (Verb::Retract, "retract"),
    (Verb::Define, "define"),
    (Verb::Apply, "apply"),
    (Verb::Query, "query"),
    (Verb::Stats, "stats"),
    (Verb::Metrics, "metrics"),
    (Verb::Explain, "explain"),
    (Verb::Profile, "profile"),
    (Verb::Checkpoint, "checkpoint"),
    (Verb::Walstat, "walstat"),
];

/// The lead of a client-supplied trace ID: `#id=<token> <command>`.
const TRACE_PREFIX: &str = "#id=";

/// Scanner state for logical-line splitting, one byte at a time (shared
/// by [`split_lines`], [`quote_open`] and [`crate::net::LineFramer`]).
/// Scanning bytes is UTF-8 safe: every transition is on an ASCII byte,
/// and the bytes of a multi-byte character are all >= 0x80.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LineScan {
    /// At the start of a logical line (only ASCII whitespace seen so far).
    Start,
    /// A `#` line whose first `n` bytes match the start of `#id=`.
    Prefix(usize),
    /// Inside the token of a `#id=<token>` trace prefix.
    Token,
    /// Inside a `#` comment line: runs to the newline, quotes inert.
    Comment,
    /// Inside a command; `true` = a `'…'` constant is open.
    Command { in_quote: bool },
}

impl LineScan {
    /// Advances over one byte; `true` means the logical line ends at this
    /// byte (a newline outside quotes) and the state has reset.
    pub(crate) fn step(&mut self, byte: u8) -> bool {
        use LineScan::*;
        *self = match (*self, byte) {
            (Command { in_quote: true }, b'\'') => Command { in_quote: false },
            (Command { in_quote: true }, _) => return false,
            (_, b'\n') => {
                *self = Start;
                return true;
            }
            (Start, b' ' | b'\t' | b'\r') => Start,
            (Start, b'#') => Prefix(1),
            (Start, byte) => Command {
                in_quote: byte == b'\'',
            },
            (Prefix(n), byte) if n < TRACE_PREFIX.len() => {
                if byte == TRACE_PREFIX.as_bytes()[n] {
                    Prefix(n + 1)
                } else {
                    Comment
                }
            }
            // a bare `#id=` with no token stays a comment
            (Prefix(_), byte) if byte.is_ascii_whitespace() => Comment,
            (Prefix(_), _) => Token,
            // the line goes on as if it started after the prefix
            (Token, byte) if byte.is_ascii_whitespace() => Start,
            (Token, _) => Token,
            (Comment, _) => Comment,
            (Command { .. }, byte) => Command {
                in_quote: byte == b'\'',
            },
        };
        false
    }
}

/// Splits script text into its **logical command lines**: one command per
/// unquoted newline.  A `'…'` quoted constant may legally contain `\n` (the
/// sentence lexer admits any character but `'` in there), so a command like
/// `ASSERT note('line one\nline two')` spans two physical lines but is one
/// logical command.  Comment lines — optional ASCII whitespace then `#` —
/// are line-scoped and quote-**inert**: an apostrophe in prose (`CI's`)
/// must not swallow the commands below it.  A `#id=<token> ` trace prefix
/// (see the crate-level *wire protocol* section) is not a comment: the
/// command after it keeps its quotes.  The network framer
/// ([`crate::net::LineFramer`]) steps the same scanner over its byte
/// stream, and `tests/net_framing.rs` checks that chunked feeding yields
/// the lines this function does.
///
/// Lines are returned as written (no trimming, terminating newline
/// excluded); an unterminated quote runs to the end of the text.
pub fn split_lines(text: &str) -> Vec<&str> {
    let mut lines = Vec::new();
    let mut scan = LineScan::Start;
    let mut start = 0;
    for (i, byte) in text.bytes().enumerate() {
        if scan.step(byte) {
            lines.push(&text[start..i]);
            start = i + 1;
        }
    }
    if start < text.len() {
        lines.push(&text[start..]);
    }
    lines
}

/// Whether `text` ends inside an open `'…'` quote — i.e. a physical line
/// that still needs continuation before it forms a complete command (the
/// REPLs keep reading input until this turns false).  Quotes inside
/// comment lines do not count (see [`split_lines`]).
pub fn quote_open(text: &str) -> bool {
    let mut scan = LineScan::Start;
    for byte in text.bytes() {
        scan.step(byte);
    }
    scan == LineScan::Command { in_quote: true }
}

/// Splits an optional `#id=<token> ` trace prefix off a command line,
/// returning `(token, command)`.  The token runs to the first ASCII
/// whitespace, as [`LineScan`] reads it.  The `#` lead keeps traced lines
/// inert for parsers that do not know the prefix (they read a comment); a
/// bare `#id=` with no token stays an ordinary comment.
pub(crate) fn split_trace(line: &str) -> Option<(&str, &str)> {
    let rest = line.trim_start().strip_prefix(TRACE_PREFIX)?;
    let end = rest
        .find(|c: char| c.is_ascii_whitespace())
        .unwrap_or(rest.len());
    let (id, cmd) = rest.split_at(end);
    (!id.is_empty()).then_some((id, cmd.trim_start()))
}

/// Splits a command line into its verb and payload.
pub fn split_command(line: &str) -> Result<(Verb, &str)> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok((Verb::Nop, ""));
    }
    let (word, rest) = match line.find(char::is_whitespace) {
        Some(i) => (&line[..i], line[i..].trim_start()),
        None => (line, ""),
    };
    let verb = VERBS
        .iter()
        .find(|&&(verb, name)| verb != Verb::Nop && word.eq_ignore_ascii_case(name))
        .ok_or_else(|| parse_err(format!("unknown command {:?}", word.to_ascii_uppercase())))?;
    Ok((verb.0, rest))
}

/// Splits `text` on `sep` at bracket/paren nesting depth 0, ignoring
/// everything inside `'…'` quoted constants — the sentence lexer allows
/// any character but `'` in there, so `pair('a(b', 1)` is a legal fact
/// whose parenthesis must not desync the depth count.
fn split_top_level(text: &str, sep: char) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut in_quote = false;
    let mut start = 0;
    for (i, c) in text.char_indices() {
        match c {
            '\'' => in_quote = !in_quote,
            _ if in_quote => {}
            '(' | '[' => depth += 1,
            ')' | ']' => depth = depth.saturating_sub(1),
            c if c == sep && depth == 0 => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    parts
}

/// Parses a comma-separated list of ground facts, interning relation names
/// (with the observed arities) into `vocab`.
pub fn parse_fact_list(text: &str, vocab: &mut Vocabulary) -> Result<Vec<(RelId, Tuple)>> {
    if text.trim().is_empty() {
        return Err(parse_err("expected at least one fact"));
    }
    split_top_level(text, ',')
        .into_iter()
        .map(|part| parse_fact(part.trim(), vocab))
        .collect()
}

/// Parses one ground fact `relation(constants…)` by reusing the formula
/// parser and insisting on a ground atom.
fn parse_fact(text: &str, vocab: &mut Vocabulary) -> Result<(RelId, Tuple)> {
    let formula = parse_formula(text, vocab)?;
    let Formula::Atom(rel, args) = formula else {
        return Err(parse_err(format!(
            "expected a fact like edge(1, 2), found {text:?}"
        )));
    };
    let consts = args
        .iter()
        .map(|t| match t {
            Term::Const(c) => Ok(*c),
            Term::Var(_) => Err(parse_err(format!(
                "facts must be ground (no variables): {text:?}"
            ))),
        })
        .collect::<Result<Vec<_>>>()?;
    Ok((rel, Tuple::new(consts)))
}

/// Parses a `DEFINE` payload `name := texpr`.
pub fn parse_define(text: &str, vocab: &mut Vocabulary) -> Result<(String, Transform)> {
    let Some((name, expr)) = text.split_once(":=") else {
        return Err(parse_err("expected DEFINE <name> := <transformation>"));
    };
    let name = name.trim();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(parse_err(format!("invalid transformation name {name:?}")));
    }
    let transform = parse_transform(expr, vocab)?;
    Ok((name.to_string(), transform))
}

/// Parses a transformation expression (see the grammar in the module docs).
///
/// Two passes: `tau[…]` sentences first (interning every relation they
/// mention), then the remaining steps — so a `project[reach]` may name a
/// relation that only a *later* `tau` of the same expression introduces,
/// as in the refresh idiom `project[edge]; tau[…reach…]`.
///
/// The result is composed with [`Transform::then`], so degenerate forms
/// canonicalize (`id` steps drop out, a single remaining step is itself) —
/// rendering and re-parsing is then structurally idempotent.
pub fn parse_transform(text: &str, vocab: &mut Vocabulary) -> Result<Transform> {
    let parts = split_top_level(text, ';');
    let mut steps: Vec<Option<Transform>> = vec![None; parts.len()];
    for (slot, part) in steps.iter_mut().zip(&parts) {
        if let Some(inner) = bracket_payload(part.trim(), "tau") {
            *slot = Some(Transform::Insert(parse_sentence(inner, vocab)?));
        }
    }
    for (slot, part) in steps.iter_mut().zip(&parts) {
        if slot.is_none() {
            *slot = Some(parse_plain_step(part.trim(), vocab)?);
        }
    }
    Ok(steps
        .into_iter()
        .map(|s| s.expect("both passes fill every slot"))
        .fold(Transform::Identity, Transform::then))
}

/// Parses a non-`tau` step (`glb`, `lub`, `id`, `project[…]`).
fn parse_plain_step(step: &str, vocab: &mut Vocabulary) -> Result<Transform> {
    match step.to_ascii_lowercase().as_str() {
        "glb" => return Ok(Transform::Glb),
        "lub" => return Ok(Transform::Lub),
        "id" => return Ok(Transform::Identity),
        _ => {}
    }
    if let Some(inner) = bracket_payload(step, "project") {
        let rels = inner
            .split(',')
            .map(|name| {
                let name = name.trim();
                vocab
                    .lookup_relation(name)
                    .map(|(rel, _)| rel)
                    .ok_or_else(|| ServiceError::UnknownRelation(name.to_string()))
            })
            .collect::<Result<Vec<_>>>()?;
        return Ok(Transform::Project(rels));
    }
    Err(parse_err(format!(
        "expected tau[…], glb, lub, id or project[…], found {step:?}"
    )))
}

/// For `keyword[payload]` returns the payload; `None` if the shape differs.
fn bracket_payload<'a>(step: &'a str, keyword: &str) -> Option<&'a str> {
    step.strip_prefix(keyword)
        .map(str::trim_start)
        .and_then(|rest| rest.strip_prefix('['))
        .and_then(|rest| rest.strip_suffix(']'))
}

/// Parses a `QUERY` payload.
pub fn parse_query(text: &str, vocab: &mut Vocabulary) -> Result<QueryCmd> {
    let first = text.split_whitespace().next().unwrap_or("");
    let kind = first.to_ascii_uppercase();
    if kind == "CERTAIN" || kind == "POSSIBLE" {
        let rest = text.trim_start()[first.len()..].trim();
        let goal = parse_goal(rest, &kind, vocab)?;
        return Ok(match kind.as_str() {
            "CERTAIN" => QueryCmd::Certain(goal),
            _ => QueryCmd::Possible(goal),
        });
    }
    Ok(QueryCmd::Transform(parse_transform(text, vocab)?))
}

/// Parses the goal of a `CERTAIN`/`POSSIBLE` query: a bare relation name,
/// or the bound form `rel(arg, …)`.  The bound form resolves against the
/// vocabulary *before* the formula parser runs, so an unknown relation or
/// a wrong argument count is a typed error — never a silent intern that
/// would make a typo look like an empty answer.
fn parse_goal(rest: &str, kind: &str, vocab: &mut Vocabulary) -> Result<QueryGoal> {
    if rest.is_empty() {
        return Err(parse_err(format!("expected QUERY {kind} <relation>")));
    }
    let Some(paren) = rest.find('(') else {
        // Bare form: exactly one relation name.
        let mut words = rest.split_whitespace();
        let name = words.next().expect("rest is non-empty");
        if words.next().is_some() {
            return Err(parse_err(format!(
                "unexpected input after QUERY {kind} {name}"
            )));
        }
        let (rel, _) = vocab
            .lookup_relation(name)
            .ok_or_else(|| ServiceError::UnknownRelation(name.to_string()))?;
        return Ok(QueryGoal::bare(rel));
    };
    let name = rest[..paren].trim();
    let (rel, arity) = vocab
        .lookup_relation(name)
        .ok_or_else(|| ServiceError::UnknownRelation(name.to_string()))?;
    let inner = rest[paren..]
        .strip_prefix('(')
        .and_then(|s| s.trim_end().strip_suffix(')'))
        .ok_or_else(|| parse_err(format!("expected QUERY {kind} {name}(…)")))?;
    let found = if inner.trim().is_empty() {
        0
    } else {
        split_top_level(inner, ',').len()
    };
    if found != arity {
        return Err(ServiceError::ArityMismatch {
            relation: name.to_string(),
            expected: arity,
            found,
        });
    }
    let formula = parse_formula(rest, vocab)?;
    let Formula::Atom(parsed_rel, args) = formula else {
        return Err(parse_err(format!(
            "expected a goal like reach('a', x), found {rest:?}"
        )));
    };
    debug_assert_eq!(parsed_rel, rel, "goal pre-check resolved the same relation");
    Ok(QueryGoal {
        rel,
        terms: Some(args),
    })
}

/// Renders a transformation in the exact surface syntax [`parse_transform`]
/// accepts — the wire format for `DEFINE`d expressions.  Re-parsing the
/// result against the same vocabulary reproduces the transformation
/// structurally (`Seq` canonicalization included).
pub fn render_transform(t: &Transform, vocab: &Vocabulary) -> String {
    let steps = t.steps();
    if steps.is_empty() {
        return "id".to_string();
    }
    steps
        .iter()
        .map(|s| match s {
            Transform::Insert(phi) => {
                format!("tau[{}]", pretty::render(phi.formula(), Some(vocab)))
            }
            Transform::Glb => "glb".to_string(),
            Transform::Lub => "lub".to_string(),
            Transform::Project(rels) => {
                let names: Vec<String> = rels.iter().map(|r| render_relation(*r, vocab)).collect();
                format!("project[{}]", names.join(", "))
            }
            // steps() flattens Seq and drops Identity
            Transform::Identity | Transform::Seq(_) => unreachable!("flattened by steps()"),
        })
        .collect::<Vec<_>>()
        .join("; ")
}

/// A relation's surface name: the vocabulary name, or the `R<i>` fallback
/// the sentence parser would re-intern.
pub fn render_relation(rel: RelId, vocab: &Vocabulary) -> String {
    let mut out = String::new();
    render_relation_into(&mut out, rel, vocab);
    out
}

fn render_relation_into(out: &mut String, rel: RelId, vocab: &Vocabulary) {
    use std::fmt::Write;
    match vocab.relation_name(rel) {
        Some(name) => out.push_str(name),
        None => write!(out, "R{}", rel.index()).expect("writing to a String cannot fail"),
    }
}

/// Renders one fact in re-`ASSERT`able syntax — `edge(1, 2)`,
/// `city('Toronto')` — straight into `out`: no intermediate strings.  This
/// is the one place a `(relation, row)` pair becomes text; the reply path,
/// the WAL record of a fact commit and [`render_fact`] all go through it.
/// Takes the fact as a raw row slice so callers can feed relation rows
/// without materialising tuples.
pub fn render_fact_into(out: &mut String, rel: RelId, row: &[Const], vocab: &Vocabulary) {
    render_relation_into(out, rel, vocab);
    render_args_into(out, row, vocab);
}

/// The argument list of a fact, parentheses included: named constants
/// quoted, the rest as numerals.  The one copy of the quoting rule (`EXPLAIN`
/// seed rows put it behind a magic predicate's name, which no vocabulary
/// holds).
pub(crate) fn render_args_into(out: &mut String, row: &[Const], vocab: &Vocabulary) {
    use std::fmt::Write;
    out.push('(');
    for (i, c) in row.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match vocab.constant_name(*c) {
            Some(name) => {
                out.push('\'');
                out.push_str(name);
                out.push('\'');
            }
            None => write!(out, "{}", c.index()).expect("writing to a String cannot fail"),
        }
    }
    out.push(')');
}

/// [`render_fact_into`] a fresh `String` — one allocation, sized exactly.
pub fn render_fact(rel: RelId, row: &[Const], vocab: &Vocabulary) -> String {
    let digits = |n: u32| n.checked_ilog10().map_or(1, |d| d as usize + 1);
    let name = vocab
        .relation_name(rel)
        .map_or_else(|| 1 + digits(rel.index()), str::len);
    let args: usize = row
        .iter()
        .map(|c| match vocab.constant_name(*c) {
            Some(name) => name.len() + 2,
            None => digits(c.index()),
        })
        .sum();
    let separators = 2 * row.len().saturating_sub(1);
    let len = name + 2 + args + separators;
    let mut out = String::with_capacity(len);
    render_fact_into(&mut out, rel, row, vocab);
    debug_assert_eq!(out.len(), len, "sized exactly: {out}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_lines_is_quote_aware() {
        assert_eq!(split_lines("a\nb\nc"), vec!["a", "b", "c"]);
        assert_eq!(split_lines("a\nb\n"), vec!["a", "b"]);
        assert_eq!(split_lines(""), Vec::<&str>::new());
        // a newline inside a quoted constant does not end the command
        assert_eq!(
            split_lines("ASSERT note('one\ntwo')\nSTATS"),
            vec!["ASSERT note('one\ntwo')", "STATS"]
        );
        // an unterminated quote runs to the end of the text
        assert_eq!(
            split_lines("ASSERT r('open\nrest"),
            vec!["ASSERT r('open\nrest"]
        );
        assert!(quote_open("ASSERT r('open"));
        assert!(!quote_open("ASSERT r('closed')"));
        // comments are line-scoped and quote-inert: an apostrophe in prose
        // must not swallow the commands below it
        assert_eq!(
            split_lines("# CI's job\nASSERT edge(1, 2)\n  # isn't one either\nSTATS"),
            vec![
                "# CI's job",
                "ASSERT edge(1, 2)",
                "  # isn't one either",
                "STATS"
            ]
        );
        assert!(!quote_open("# don't continue"));
        // …but '#' inside an open quote is payload, not a comment
        assert_eq!(
            split_lines("ASSERT note('x\n# quoted\ny')\nSTATS"),
            vec!["ASSERT note('x\n# quoted\ny')", "STATS"]
        );
        // a trace prefix starts a command, whose quotes stay live…
        assert_eq!(
            split_lines("#id=t9 ASSERT note('one\ntwo')\nSTATS\n"),
            vec!["#id=t9 ASSERT note('one\ntwo')", "STATS"]
        );
        assert!(quote_open("  #id=q ASSERT r('open"));
        // …while the token itself, a bare `#id=` and other `#` lines are
        // quote-inert
        assert!(!quote_open("#id=it's"));
        assert_eq!(
            split_lines("#id= it's\n#idea's\n#i'd\nSTATS"),
            vec!["#id= it's", "#idea's", "#i'd", "STATS"]
        );
    }

    #[test]
    fn trace_prefixes_split_off_their_token() {
        assert_eq!(
            split_trace("#id=req-42 ASSERT edge(1, 2)"),
            Some(("req-42", "ASSERT edge(1, 2)"))
        );
        assert_eq!(split_trace("  #id=x\t STATS"), Some(("x", "STATS")));
        assert_eq!(split_trace("#id=x"), Some(("x", "")));
        assert_eq!(split_trace("#id= STATS"), None);
        assert_eq!(split_trace("# id=x STATS"), None);
        assert_eq!(split_trace("STATS"), None);
    }

    #[test]
    fn verbs_are_case_insensitive_and_comments_are_nops() {
        for (verb, name) in VERBS.into_iter().filter(|&(v, _)| v != Verb::Nop) {
            assert_eq!(split_command(name).unwrap().0, verb);
            assert_eq!(split_command(&name.to_ascii_uppercase()).unwrap().0, verb);
        }
        assert!(split_command("NOP").is_err());
        assert_eq!(split_command("  stats ").unwrap().0, Verb::Stats);
        assert_eq!(split_command("Assert edge(1, 2)").unwrap().0, Verb::Assert);
        assert_eq!(split_command("explain lub").unwrap().0, Verb::Explain);
        assert_eq!(
            split_command("Profile CERTAIN edge").unwrap().0,
            Verb::Profile
        );
        assert_eq!(split_command("# hello").unwrap().0, Verb::Nop);
        assert_eq!(split_command("").unwrap().0, Verb::Nop);
        assert!(split_command("FROBNICATE x").is_err());
    }

    #[test]
    fn facts_parse_and_render_round_trip() {
        let mut v = Vocabulary::new();
        let facts = parse_fact_list("edge(1, 2), city('Toronto'), flag()", &mut v).unwrap();
        assert_eq!(facts.len(), 3);
        let rendered: Vec<String> = facts
            .iter()
            .map(|(r, t)| render_fact(*r, t.components(), &v))
            .collect();
        assert_eq!(rendered, ["edge(1, 2)", "city('Toronto')", "flag()"]);
        // the wrapper is the streaming renderer plus one exact allocation,
        // index fallbacks included
        let mut line = String::from("ASSERT ");
        render_fact_into(&mut line, facts[1].0, facts[1].1.components(), &v);
        assert_eq!(line, "ASSERT city('Toronto')");
        let unnamed = [Const::new(0), Const::new(4_000_000_000)];
        assert_eq!(
            render_fact(RelId::new(12), &unnamed, &v),
            "R12('Toronto', 4000000000)"
        );
        // and the rendering re-parses to the same typed facts
        let again = parse_fact_list(&rendered.join(", "), &mut v.clone()).unwrap();
        assert_eq!(again, facts);
    }

    #[test]
    fn quoted_constants_with_brackets_do_not_desync_splitting() {
        // the sentence lexer allows any character but ' inside quotes, so
        // the top-level splitters must not count bracketing in there
        let mut v = Vocabulary::new();
        let facts = parse_fact_list("pair('a(b', 1), pair('c]d', 2)", &mut v).unwrap();
        assert_eq!(facts.len(), 2);
        let rendered: Vec<String> = facts
            .iter()
            .map(|(r, t)| render_fact(*r, t.components(), &v))
            .collect();
        assert_eq!(
            parse_fact_list(&rendered.join(", "), &mut v.clone()).unwrap(),
            facts
        );
        let t = parse_transform("tau[R('x]y') | R('(')]; lub", &mut v).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn non_ground_or_non_atomic_facts_are_rejected() {
        let mut v = Vocabulary::new();
        assert!(parse_fact_list("edge(x, 2)", &mut v).is_err());
        assert!(parse_fact_list("edge(1, 2) & edge(2, 3)", &mut v).is_err());
        assert!(parse_fact_list("", &mut v).is_err());
    }

    #[test]
    fn transform_expressions_round_trip_through_the_wire_format() {
        let mut v = Vocabulary::new();
        let (name, t) = parse_define(
            "tc := tau[forall x0 x1. edge(x0, x1) -> path(x0, x1)]; \
             tau[forall x0 x1 x2. path(x0, x1) & edge(x1, x2) -> path(x0, x2)]; \
             project[path]",
            &mut v,
        )
        .unwrap();
        assert_eq!(name, "tc");
        assert_eq!(t.len(), 3);
        let text = render_transform(&t, &v);
        let again = parse_transform(&text, &mut v.clone()).unwrap();
        assert_eq!(again, t, "wire format must round-trip: {text:?}");
    }

    #[test]
    fn degenerate_expressions_canonicalize() {
        let mut v = Vocabulary::new();
        assert_eq!(parse_transform("id", &mut v).unwrap(), Transform::Identity);
        assert_eq!(
            parse_transform("id; id", &mut v).unwrap(),
            Transform::Identity
        );
        assert_eq!(render_transform(&Transform::Identity, &v), "id");
        assert_eq!(
            parse_transform("glb; id", &mut v).unwrap(),
            Transform::Glb,
            "singleton sequences collapse"
        );
    }

    #[test]
    fn project_may_reference_relations_a_later_tau_introduces() {
        // the refresh idiom: drop the derived relation, then re-derive it
        let mut v = Vocabulary::new();
        let t = parse_transform(
            "project[edge]; tau[forall x0 x1. edge(x0, x1) -> reach(x0, x1)]",
            &mut v,
        )
        .unwrap();
        assert_eq!(t.len(), 2);
        let text = render_transform(&t, &v);
        assert_eq!(parse_transform(&text, &mut v.clone()).unwrap(), t);
    }

    #[test]
    fn project_requires_known_relations() {
        let mut v = Vocabulary::new();
        assert!(matches!(
            parse_transform("project[nowhere]", &mut v),
            Err(ServiceError::UnknownRelation(_))
        ));
        v.relation("edge", 2).unwrap();
        assert_eq!(
            parse_transform("project[edge]", &mut v).unwrap(),
            Transform::Project(vec![RelId::new(0)])
        );
    }

    #[test]
    fn queries_parse_into_the_three_shapes() {
        let mut v = Vocabulary::new();
        v.relation("edge", 2).unwrap();
        assert!(matches!(
            parse_query("CERTAIN edge", &mut v).unwrap(),
            QueryCmd::Certain(_)
        ));
        assert!(matches!(
            parse_query("possible edge", &mut v).unwrap(),
            QueryCmd::Possible(_)
        ));
        assert!(matches!(
            parse_query("lub; project[edge]", &mut v).unwrap(),
            QueryCmd::Transform(_)
        ));
        assert!(parse_query("CERTAIN nowhere", &mut v).is_err());
        assert!(parse_query("CERTAIN", &mut v).is_err());
    }

    #[test]
    fn bound_goals_parse_with_constants_and_free_variables() {
        let mut v = Vocabulary::new();
        v.relation("reach", 2).unwrap();
        let QueryCmd::Certain(goal) = parse_query("CERTAIN reach('a', x)", &mut v).unwrap() else {
            panic!("expected a certain goal");
        };
        assert!(goal.is_bound());
        let terms = goal.terms.as_ref().unwrap();
        assert_eq!(terms.len(), 2);
        assert!(matches!(terms[0], Term::Const(_)));
        assert!(matches!(terms[1], Term::Var(_)));

        // All-free and fully-bound patterns are both legal goals.
        let QueryCmd::Possible(goal) = parse_query("POSSIBLE reach(x, y)", &mut v).unwrap() else {
            panic!("expected a possible goal");
        };
        assert!(!goal.is_bound());
        assert!(goal.terms.is_some());
        let QueryCmd::Certain(goal) = parse_query("CERTAIN reach('a', 'b')", &mut v).unwrap()
        else {
            panic!("expected a certain goal");
        };
        assert!(goal.is_bound());

        // The bare form still parses as before.
        let QueryCmd::Certain(goal) = parse_query("CERTAIN reach", &mut v).unwrap() else {
            panic!("expected a certain goal");
        };
        assert!(goal.terms.is_none());
    }

    #[test]
    fn bound_goals_reject_unknown_relations_and_wrong_arity() {
        let mut v = Vocabulary::new();
        v.relation("reach", 2).unwrap();
        assert!(matches!(
            parse_query("CERTAIN nowhere('a', x)", &mut v),
            Err(ServiceError::UnknownRelation(_))
        ));
        assert!(matches!(
            parse_query("CERTAIN reach('a')", &mut v),
            Err(ServiceError::ArityMismatch {
                expected: 2,
                found: 1,
                ..
            })
        ));
        assert!(matches!(
            parse_query("POSSIBLE reach('a', x, y)", &mut v),
            Err(ServiceError::ArityMismatch {
                expected: 2,
                found: 3,
                ..
            })
        ));
        // The pre-checks never intern: the vocabulary is unchanged after
        // a rejected goal.
        assert_eq!(v.relation_count(), 1);
    }
}
