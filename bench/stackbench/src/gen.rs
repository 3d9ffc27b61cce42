//! Workload generators and their oracles.
//!
//! Each workload is a pure function of its seed: the command stream the
//! harness sends and, for every command, what a correct server must answer.
//! The oracles compute the expected rows from the generator's own model of
//! the data (adjacency lists, class tables, brute-force cover enumeration) —
//! nothing here calls into a `kbt-*` crate, so a bug in the system cannot
//! hide by also being in the oracle.
//!
//! Expected rows are compared order-independently: the response's data
//! lines are normalised (`= ` and `world <i>: ` prefixes stripped) and
//! folded into a count plus a wrapping sum of per-line FNV-1a hashes, which
//! costs the load generator no allocation per reply.

use std::collections::{BTreeMap, BTreeSet};

/// SplitMix64: the benchmark owns its generator so that no change to
/// `vendor/rand` can alter a workload.
#[derive(Clone)]
pub struct Rng(u64);

/// SplitMix64's output function: a bijective scrambler of 64 bits.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct values of `0..n`, in draw order.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        self.shuffle(&mut all);
        all.truncate(k);
        all
    }

    /// Zipf(s = 1) over `0..n`: rank `r` drawn with weight `1 / (r + 1)`.
    pub fn zipf(&mut self, n: usize) -> usize {
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut x = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        for r in 0..n {
            x -= 1.0 / (r + 1) as f64;
            if x < 0.0 {
                return r;
            }
        }
        n - 1
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Strips the `= ` data prefix and a `world <i>: ` label, so a world is
/// identified by its facts and not by its position in the reply.
pub fn normalise_line(line: &str) -> &str {
    let line = line.strip_prefix("= ").unwrap_or(line);
    if let Some(rest) = line.strip_prefix("world ") {
        if let Some((index, facts)) = rest.split_once(": ") {
            if index.bytes().all(|b| b.is_ascii_digit()) {
                return facts;
            }
        }
    }
    line
}

/// An order-independent digest of a reply's data lines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Rows {
    pub count: u64,
    pub hash: u64,
}

impl Rows {
    pub fn add(&mut self, line: &str) {
        self.count += 1;
        self.hash = self
            .hash
            .wrapping_add(fnv1a(normalise_line(line).as_bytes()));
    }

    pub fn of<S: AsRef<str>>(lines: impl IntoIterator<Item = S>) -> Rows {
        let mut rows = Rows::default();
        for line in lines {
            rows.add(line.as_ref());
        }
        rows
    }
}

/// What the command does to the server, which decides how it is timed and
/// whether it moves the epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `ASSERT` / `RETRACT` / `DEFINE` / `APPLY`: publishes one epoch and
    /// appends one WAL record.
    Commit,
    /// `QUERY …`: a snapshot read.
    Query,
}

/// What a correct reply looks like.  The epoch is not listed: the runner
/// tracks it (every commit adds one) and checks it on every reply.
#[derive(Clone, Debug, Default)]
pub struct Expect {
    /// `key=value` fields the `OK` status line must carry.
    pub fields: Vec<(&'static str, String)>,
    /// Digest of the data lines; `None` when the payload is not modelled
    /// (the echoed text of a `DEFINE`).
    pub rows: Option<Rows>,
}

#[derive(Clone, Debug)]
pub struct Op {
    pub cmd: String,
    pub kind: Kind,
    pub expect: Expect,
}

fn commit(cmd: String, fields: Vec<(&'static str, String)>) -> Op {
    let mut all = vec![("durable", "true".to_string())];
    all.extend(fields);
    Op {
        cmd,
        kind: Kind::Commit,
        expect: Expect {
            fields: all,
            rows: Some(Rows::default()),
        },
    }
}

fn define(name: &str, text: &str) -> Op {
    Op {
        cmd: format!("DEFINE {name} := {text}"),
        kind: Kind::Commit,
        expect: Expect {
            fields: vec![
                ("durable", "true".to_string()),
                ("defined", name.to_string()),
            ],
            rows: None,
        },
    }
}

fn query(cmd: String, fields: Vec<(&'static str, String)>, lines: &[String]) -> Op {
    Op {
        cmd,
        kind: Kind::Query,
        expect: Expect {
            fields,
            rows: Some(Rows::of(lines)),
        },
    }
}

/// A goal query (`QUERY CERTAIN|POSSIBLE …`): one fact per data line.
fn goal(cmd: String, kind: &str, relation: &str, strategy: Option<&str>, lines: &[String]) -> Op {
    let mut fields = Vec::new();
    if let Some(s) = strategy {
        fields.push(("strategy", s.to_string()));
    }
    fields.push(("kind", kind.to_string()));
    fields.push(("relation", relation.to_string()));
    fields.push(("count", lines.len().to_string()));
    query(cmd, fields, lines)
}

/// A hypothetical query (`QUERY <texpr>`): one world per data line.
fn worlds(cmd: String, lines: &[String]) -> Op {
    query(cmd, vec![("worlds", lines.len().to_string())], lines)
}

/// `{f(1), f(2)}` — one world of a reply, facts already in canonical order.
fn world_line(facts: &[String]) -> String {
    format!("{{{}}}", facts.join(", "))
}

/// Facts asserted in batches of `batch` per command; `total` tracks the
/// fact count the `facts=` field must report.
fn assert_batches(facts: &[String], batch: usize, total: &mut usize, out: &mut Vec<Op>) {
    for chunk in facts.chunks(batch) {
        *total += chunk.len();
        out.push(commit(
            format!("ASSERT {}", chunk.join(", ")),
            vec![("worlds", "1".to_string()), ("facts", total.to_string())],
        ));
    }
}

/// One generated workload: the three command sequences the runner plays
/// and the server flags that belong to it.  `setup` runs once on an empty
/// server.  `warmup` is valid on a freshly started server holding the
/// set-up state and leaves that state as it found it: it runs before the
/// measured phase and again after the last recovery, as the check that the
/// recovered server still answers correctly.  `window` runs once per
/// measured window and also returns the server to the set-up state.
pub struct Workload {
    pub name: &'static str,
    /// `--checkpoint-every` for the server (`0` = no automatic checkpoints,
    /// so recovery replays the whole log).
    pub checkpoint_every: u32,
    pub setup: Vec<Op>,
    pub warmup: Vec<Op>,
    pub window: Vec<Op>,
    /// About how long `window` takes on the reference machine, in seconds:
    /// `--seconds` divided by this is the number of windows.
    pub window_s: f64,
    /// For a workload that checkpoints: the commands that follow the manual
    /// `CHECKPOINT` before the recovery cycles, so that recovery loads a
    /// checkpoint and replays a log tail of known length.  Leaves the
    /// set-up state as it found it.
    pub recovery_tail: Vec<Op>,
    /// A Horn rulebase of the workload, as `tau[…]` text: the traced run
    /// evaluates it at width 1 and 2 for `engine.eval_width2_ratio`.
    pub probe_rules: String,
}

pub const WORKLOADS: [&str; 4] = ["abox_read", "commit_stream", "update_sat", "closure_scan"];

pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "abox_read" => Some(abox_read(seed)),
        "commit_stream" => Some(commit_stream(seed)),
        "update_sat" => Some(update_sat(seed)),
        "closure_scan" => Some(closure_scan(seed)),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// abox_read
// ---------------------------------------------------------------------

pub const ABOX_INDIVIDUALS: usize = 20_000;
const ABOX_LEAVES: usize = 80;
const ABOX_MIDS: usize = 16;
const ABOX_RELS: usize = 24_900;
const ABOX_VIEWS: usize = 24;
const ABOX_HOT_ISA: usize = 8;
const ABOX_HOT_REL: usize = 4;
const ABOX_WINDOW_OPS: usize = 60;
const LOAD_BATCH: usize = 500;

/// The ontology-style ABox: named individuals typed into an 80/16/4 class
/// tree, a random `rel/2` graph over them, and the Horn `inherit` rulebase
/// that closes `isa/2` under `sub/2` and defines one view per chosen leaf
/// class.  Leaf sizes are the fixed ramp 100..=400 (which leaf gets which
/// size is seeded), so every seed carries the same amount of data.
fn abox_read(seed: u64) -> Workload {
    let mut rng = Rng::new(seed ^ 0xAB0C_0001);
    let ind = |k: usize| format!("'ind{k}'");
    let leaf = |j: usize| format!("'l{j}'");
    let mid_of = |j: usize| j / 5;
    let top_of = |m: usize| m / 4;

    let mut sizes: Vec<usize> = (0..ABOX_LEAVES).map(|j| 100 + j * 300 / 79).collect();
    rng.shuffle(&mut sizes);
    let mut order: Vec<usize> = (0..ABOX_INDIVIDUALS).collect();
    rng.shuffle(&mut order);
    // members[j]: the individuals typed into leaf j (the tail of `order`
    // beyond the ramp's total stays untyped and only occurs in rel/2)
    let mut members: Vec<Vec<usize>> = Vec::with_capacity(ABOX_LEAVES);
    let mut leaf_of: BTreeMap<usize, usize> = BTreeMap::new();
    let mut next = 0;
    for (j, &size) in sizes.iter().enumerate() {
        let mut m: Vec<usize> = order[next..next + size].to_vec();
        next += size;
        m.sort_unstable();
        for &k in &m {
            leaf_of.insert(k, j);
        }
        members.push(m);
    }
    let typed = next;

    let mut rel_set: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut rels: Vec<(usize, usize)> = Vec::with_capacity(ABOX_RELS);
    while rels.len() < ABOX_RELS {
        let pair = (rng.below(ABOX_INDIVIDUALS), rng.below(ABOX_INDIVIDUALS));
        if rel_set.insert(pair) {
            rels.push(pair);
        }
    }

    let mut setup = Vec::new();
    let mut total = 0usize;
    let mut sub_facts = Vec::new();
    for m in 0..ABOX_MIDS {
        sub_facts.push(format!("sub('m{m}', 't{}')", top_of(m)));
    }
    for j in 0..ABOX_LEAVES {
        sub_facts.push(format!("sub({}, 'm{}')", leaf(j), mid_of(j)));
    }
    assert_batches(&sub_facts, LOAD_BATCH, &mut total, &mut setup);
    let type_facts: Vec<String> = order[..typed]
        .iter()
        .map(|&k| format!("type({}, {})", ind(k), leaf(leaf_of[&k])))
        .collect();
    assert_batches(&type_facts, LOAD_BATCH, &mut total, &mut setup);
    let rel_facts: Vec<String> = rels
        .iter()
        .map(|&(a, b)| format!("rel({}, {})", ind(a), ind(b)))
        .collect();
    assert_batches(&rel_facts, LOAD_BATCH, &mut total, &mut setup);

    let views = rng.sample(ABOX_LEAVES, ABOX_VIEWS);
    let mut rules = vec![
        "(forall x0 x1. type(x0, x1) -> isa(x0, x1))".to_string(),
        "(forall x0 x1 x2. isa(x0, x1) & sub(x1, x2) -> isa(x0, x2))".to_string(),
    ];
    for &j in &views {
        rules.push(format!("(forall x0. isa(x0, {}) -> cls{j}(x0))", leaf(j)));
    }
    let probe_rules = format!("tau[{}]", rules.join(" & "));
    setup.push(define("inherit", &probe_rules));
    // isa/2 holds leaf, mid and top for every typed individual
    total += 3 * typed + views.iter().map(|&j| members[j].len()).sum::<usize>();
    setup.push(commit(
        "APPLY inherit".to_string(),
        vec![
            ("applied", "inherit".to_string()),
            ("worlds", "1".to_string()),
            ("facts", total.to_string()),
            ("reused", "0".to_string()),
        ],
    ));

    let view_op = |j: usize| {
        let lines: Vec<String> = members[j]
            .iter()
            .map(|&k| format!("cls{j}({})", ind(k)))
            .collect();
        goal(
            format!("QUERY CERTAIN cls{j}"),
            "certain",
            &format!("cls{j}"),
            None,
            &lines,
        )
    };
    let isa_op = |k: usize, strategy: &str| {
        let j = leaf_of[&k];
        let lines = vec![
            format!("isa({}, {})", ind(k), leaf(j)),
            format!("isa({}, 'm{}')", ind(k), mid_of(j)),
            format!("isa({}, 't{}')", ind(k), top_of(mid_of(j))),
        ];
        goal(
            format!("QUERY CERTAIN isa({}, x)", ind(k)),
            "certain",
            "isa",
            Some(strategy),
            &lines,
        )
    };
    let rel_op = |k: usize, strategy: &str| {
        let lines: Vec<String> = rel_set
            .range((k, 0)..(k + 1, 0))
            .map(|&(a, b)| format!("rel({}, {})", ind(a), ind(b)))
            .collect();
        goal(
            format!("QUERY POSSIBLE rel({}, x)", ind(k)),
            "possible",
            "rel",
            Some(strategy),
            &lines,
        )
    };

    // hot names: typed individuals with at least one outgoing rel edge
    let mut hot: Vec<usize> = order[..typed]
        .iter()
        .copied()
        .filter(|&k| rel_set.range((k, 0)..(k + 1, 0)).next().is_some())
        .collect();
    hot.truncate(ABOX_HOT_ISA);
    let hot_rel = &hot[..ABOX_HOT_REL];

    // warm-up: each hot goal once (the magic derivation fills the answer
    // table), each view once, then one tabled read per goal
    let mut warmup = Vec::new();
    for &k in &hot {
        warmup.push(isa_op(k, "magic"));
    }
    for &k in hot_rel {
        warmup.push(rel_op(k, "magic"));
    }
    for &j in &views {
        warmup.push(view_op(j));
    }
    for &k in &hot {
        warmup.push(isa_op(k, "tabled"));
    }

    // the window: 50 % views, 40 % bound isa (Zipf over the hot names),
    // 10 % possible rel — the same shuffled sequence every window
    let mut window = Vec::with_capacity(ABOX_WINDOW_OPS);
    for i in 0..ABOX_WINDOW_OPS / 2 {
        window.push(view_op(views[i % ABOX_VIEWS]));
    }
    for _ in 0..ABOX_WINDOW_OPS * 4 / 10 {
        window.push(isa_op(hot[rng.zipf(ABOX_HOT_ISA)], "tabled"));
    }
    for i in 0..ABOX_WINDOW_OPS / 10 {
        window.push(rel_op(hot_rel[i % ABOX_HOT_REL], "tabled"));
    }
    rng.shuffle(&mut window);

    Workload {
        name: "abox_read",
        checkpoint_every: 0,
        setup,
        warmup,
        window,
        window_s: 0.2,
        recovery_tail: Vec::new(),
        probe_rules,
    }
}

// ---------------------------------------------------------------------
// commit_stream
// ---------------------------------------------------------------------

const CHAINS: usize = 2_000;
const CHAIN_EDGES: usize = 10;
const CHAIN_STRIDE: usize = 32;
const EXTENSION: usize = 8;
const GROUP_UNITS: usize = 4;
const STREAM_WARMUP_GROUPS: usize = 2;
const STREAM_WINDOW_GROUPS: usize = 3;
/// Checkpoint interval of the `commit_stream` server, in commits: a window
/// makes 30 commits and the warm-up of a restarted server 20, so every
/// window triggers one background checkpoint at its tenth commit, which is
/// written well before the window ends — windows are alike, and the best
/// quartile pays for a checkpoint as every other window does.  (A checkpoint
/// still in flight when the next is due is skipped by the server; with a
/// shorter window some windows carried one and some did not.)
const STREAM_CHECKPOINT_EVERY: u32 = 30;

const REFRESH: &str = "tau[(forall x0 x1. edge(x0, x1) -> reach(x0, x1)) & \
     (forall x0 x1 x2. reach(x0, x1) & edge(x1, x2) -> reach(x0, x2))]";

/// `n` nodes in a path carry `n(n-1)/2` reach facts.
fn path_reach(nodes: usize) -> usize {
    nodes * (nodes - 1) / 2
}

/// The write path: a braid of disjoint chains with its closure kept
/// current by the registered `refresh` chain.  A unit grows one chain by
/// eight edges, re-applies the closure incrementally, and reads the chain
/// twice (magic, then tabled); every fourth unit retracts the group's 32
/// edges and re-applies (DRed), which returns the graph to its base state —
/// so every window starts from, and measures, the same state.
fn commit_stream(seed: u64) -> Workload {
    let mut rng = Rng::new(seed ^ 0xC0_5712EA);
    let node = |c: usize, i: usize| c * CHAIN_STRIDE + i;

    let mut setup = Vec::new();
    let mut edges = 0usize;
    let base_edges: Vec<String> = (0..CHAINS)
        .flat_map(|c| {
            (0..CHAIN_EDGES).map(move |i| format!("edge({}, {})", node(c, i), node(c, i + 1)))
        })
        .collect();
    assert_batches(&base_edges, LOAD_BATCH, &mut edges, &mut setup);
    setup.push(define("refresh", &format!("project[edge]; {REFRESH}")));
    let base_reach = CHAINS * path_reach(CHAIN_EDGES + 1);
    setup.push(commit(
        "APPLY refresh".to_string(),
        vec![
            ("applied", "refresh".to_string()),
            ("worlds", "1".to_string()),
            ("facts", (edges + base_reach).to_string()),
            ("reused", "0".to_string()),
        ],
    ));

    let grown = path_reach(CHAIN_EDGES + 1 + EXTENSION) - path_reach(CHAIN_EDGES + 1);
    let mut group = |out: &mut Vec<Op>| {
        let chains = rng.sample(CHAINS, GROUP_UNITS);
        let mut added: Vec<String> = Vec::new();
        // what the server holds right now: edges are current, reach is as
        // of the last APPLY
        let mut live_edges = edges;
        let mut reach = base_reach;
        for &c in &chains {
            let ext: Vec<String> = (CHAIN_EDGES..CHAIN_EDGES + EXTENSION)
                .map(|i| format!("edge({}, {})", node(c, i), node(c, i + 1)))
                .collect();
            live_edges += EXTENSION;
            out.push(commit(
                format!("ASSERT {}", ext.join(", ")),
                vec![
                    ("worlds", "1".to_string()),
                    ("facts", (live_edges + reach).to_string()),
                ],
            ));
            added.extend(ext);
            reach += grown;
            out.push(commit(
                "APPLY refresh".to_string(),
                vec![
                    ("applied", "refresh".to_string()),
                    ("worlds", "1".to_string()),
                    ("facts", (live_edges + reach).to_string()),
                ],
            ));
            let p = rng.below(CHAIN_EDGES);
            let from = node(c, p);
            let lines: Vec<String> = (p + 1..=CHAIN_EDGES + EXTENSION)
                .map(|i| format!("reach({from}, {})", node(c, i)))
                .collect();
            for strategy in ["magic", "tabled"] {
                out.push(goal(
                    format!("QUERY CERTAIN reach({from}, x)"),
                    "certain",
                    "reach",
                    Some(strategy),
                    &lines,
                ));
            }
        }
        out.push(commit(
            format!("RETRACT {}", added.join(", ")),
            vec![
                ("worlds", "1".to_string()),
                ("facts", (edges + reach).to_string()),
            ],
        ));
        out.push(commit(
            "APPLY refresh".to_string(),
            vec![
                ("applied", "refresh".to_string()),
                ("worlds", "1".to_string()),
                ("facts", (edges + base_reach).to_string()),
            ],
        ));
    };
    let mut warmup = Vec::new();
    for _ in 0..STREAM_WARMUP_GROUPS {
        group(&mut warmup);
    }
    let mut window = Vec::new();
    for _ in 0..STREAM_WINDOW_GROUPS {
        group(&mut window);
    }
    let mut recovery_tail = Vec::new();
    group(&mut recovery_tail);

    Workload {
        name: "commit_stream",
        checkpoint_every: STREAM_CHECKPOINT_EVERY,
        setup,
        warmup,
        window,
        window_s: 1.0,
        recovery_tail,
        probe_rules: REFRESH.to_string(),
    }
}

// ---------------------------------------------------------------------
// update_sat
// ---------------------------------------------------------------------

const SAT_GRAPHS: usize = 12;
const SAT_NODES: usize = 9;
const SAT_PROBE_ROUNDS: usize = 8;
const SAT_WARMUP_ROTATIONS: usize = 2;
const SAT_WINDOW_ROTATIONS: usize = 1;

/// One small cover graph: a 9-cycle over a seeded node order plus 0–3
/// seeded chords (9–12 edges), and a node relation that leaves two nodes
/// out so the existential update has worlds to repair.
struct CoverGraph {
    edges: Vec<(usize, usize)>,
    nodes: Vec<usize>,
}

fn cover_graph(rng: &mut Rng, chords: usize) -> CoverGraph {
    let mut order: Vec<usize> = (1..=SAT_NODES).collect();
    rng.shuffle(&mut order);
    let mut edges: Vec<(usize, usize)> = (0..SAT_NODES)
        .map(|i| (order[i], order[(i + 1) % SAT_NODES]))
        .collect();
    while edges.len() < SAT_NODES + chords {
        let (a, b) = (order[rng.below(SAT_NODES)], order[rng.below(SAT_NODES)]);
        let taken = edges
            .iter()
            .any(|&(x, y)| (x, y) == (a, b) || (x, y) == (b, a));
        if a != b && !taken {
            edges.push((a, b));
        }
    }
    edges.sort_unstable();
    let mut nodes = order;
    nodes.truncate(SAT_NODES - 2);
    nodes.sort_unstable();
    CoverGraph { edges, nodes }
}

/// The inclusion-minimal vertex covers of `edges`, by enumeration of all
/// `2^9` node sets (bit `v - 1` = node `v`).
pub fn minimal_covers(edges: &[(usize, usize)]) -> Vec<u32> {
    let covers: Vec<u32> = (0u32..1 << SAT_NODES)
        .filter(|s| {
            edges
                .iter()
                .all(|&(a, b)| s & (1 << (a - 1)) != 0 || s & (1 << (b - 1)) != 0)
        })
        .collect();
    covers
        .iter()
        .copied()
        .filter(|&s| !covers.iter().any(|&t| t != s && t & s == t))
        .collect()
}

fn set_facts(rel: &str, set: u32) -> Vec<String> {
    (1..=SAT_NODES)
        .filter(|v| set & (1 << (v - 1)) != 0)
        .map(|v| format!("{rel}({v})"))
        .collect()
}

/// The paper's own semantics on small instances: a knowledgebase of four
/// worlds (one disjunctive `APPLY`) over twelve cover graphs, queried with
/// hypothetical non-Horn, existential, ground and Horn insertions and with
/// certain/possible folds.  Every graph shares the nodes `1..=9`, so the
/// grounding domain stays at nine constants whatever the graph count.
///
/// Two of every three reads are the non-Horn cover update (several
/// milliseconds in the solver); the third rotates over the four cheap
/// kinds.  The median read is then a solver command: with an even mix it
/// was a 0.3 ms one, a quarter of which is the wake-up latency of the two
/// processes, which this machine changes by itself from minute to minute.
///
/// The oracle follows the two-stage Winslett order: stored relations change
/// minimally first, relations new to the world are minimised second.
fn update_sat(seed: u64) -> Workload {
    let mut rng = Rng::new(seed ^ 0x5A7_0BAD);
    let graphs: Vec<CoverGraph> = (0..SAT_GRAPHS)
        .map(|g| cover_graph(&mut rng, g % 4))
        .collect();
    let marks = rng.sample(SAT_NODES, 4);
    let (a, b) = ([marks[0] + 1, marks[1] + 1], [marks[2] + 1, marks[3] + 1]);
    // the four stored worlds, as marked-node bit sets
    let stored: Vec<u32> = a
        .iter()
        .flat_map(|&x| b.iter().map(move |&y| (1u32 << (x - 1)) | (1 << (y - 1))))
        .collect();
    let all_nodes: u32 = (1 << SAT_NODES) - 1;

    let mut setup = Vec::new();
    let mut total = 0usize;
    for (g, graph) in graphs.iter().enumerate() {
        let mut facts: Vec<String> = graph
            .edges
            .iter()
            .map(|&(x, y)| format!("e{g}({x}, {y})"))
            .collect();
        facts.extend(graph.nodes.iter().map(|v| format!("n{g}({v})")));
        assert_batches(&facts, facts.len(), &mut total, &mut setup);
    }
    setup.push(define(
        "split",
        &format!(
            "tau[(marked({}) | marked({})) & (marked({}) | marked({}))]",
            a[0], a[1], b[0], b[1]
        ),
    ));
    let four_worlds = vec![
        ("worlds", "4".to_string()),
        ("facts", (4 * (total + 2)).to_string()),
    ];
    let mut applied = vec![("applied", "split".to_string())];
    applied.extend(four_worlds.clone());
    setup.push(commit("APPLY split".to_string(), applied));
    // committed non-Horn updates: each probe inserts a cover sentence and
    // projects the cover relation away again, so the four worlds survive
    // while the log gains records that recovery must replay through the
    // solver (this is what gives set-up and recovery a measurable length)
    let stored_rels: Vec<String> = (0..SAT_GRAPHS)
        .flat_map(|g| [format!("e{g}"), format!("n{g}")])
        .chain(["marked".to_string()])
        .collect();
    for g in 0..SAT_GRAPHS {
        setup.push(define(
            &format!("probe{g}"),
            &format!(
                "tau[forall x y. e{g}(x, y) -> (pc{g}(x) | pc{g}(y))]; project[{}]",
                stored_rels.join(", ")
            ),
        ));
    }
    for _ in 0..SAT_PROBE_ROUNDS {
        for g in 0..SAT_GRAPHS {
            let mut fields = vec![("applied", format!("probe{g}"))];
            fields.extend(four_worlds.clone());
            setup.push(commit(format!("APPLY probe{g}"), fields));
        }
    }

    let mut rotation = Vec::new();
    for (g, graph) in graphs.iter().enumerate() {
        // non-Horn: the cover relation is new, so stored facts stay and the
        // worlds are the minimal covers — the same in all four stored worlds
        let covers: Vec<String> = minimal_covers(&graph.edges)
            .into_iter()
            .map(|s| world_line(&set_facts(&format!("c{g}"), s)))
            .collect();
        let cover = worlds(
            format!("QUERY tau[forall x y. e{g}(x, y) -> (c{g}(x) | c{g}(y))]; project[c{g}]"),
            &covers,
        );
        // existential over stored relations: a world with a marked node in
        // n_g is kept; otherwise one flip (mark a node of n_g, or admit a
        // marked node to n_g) or one paired flip (any other node joins both)
        // repairs it — projected on marked/1 that is M and M + {u} for
        // every unmarked u
        let node_set: u32 = graph.nodes.iter().map(|v| 1u32 << (v - 1)).sum();
        let mut repaired: BTreeSet<u32> = BTreeSet::new();
        for &m in &stored {
            repaired.insert(m);
            if m & node_set == 0 {
                for v in 0..SAT_NODES {
                    if (all_nodes & !m) & (1 << v) != 0 {
                        repaired.insert(m | (1 << v));
                    }
                }
            }
        }
        let lines: Vec<String> = repaired
            .iter()
            .map(|&m| world_line(&set_facts("marked", m)))
            .collect();
        let existential = worlds(
            format!("QUERY tau[exists x. n{g}(x) & marked(x)]; project[marked]"),
            &lines,
        );
        // ground disjunction: satisfied worlds stay, the others split in two
        let pick = rng.sample(SAT_NODES, 2);
        let (u, v) = (pick[0] + 1, pick[1] + 1);
        let either = (1u32 << (u - 1)) | (1 << (v - 1));
        let mut split: BTreeSet<u32> = BTreeSet::new();
        for &m in &stored {
            if m & either != 0 {
                split.insert(m);
            } else {
                split.insert(m | (1 << (u - 1)));
                split.insert(m | (1 << (v - 1)));
            }
        }
        let lines: Vec<String> = split
            .iter()
            .map(|&m| world_line(&set_facts("marked", m)))
            .collect();
        let ground = worlds(
            format!("QUERY tau[marked({u}) | marked({v})]; project[marked]"),
            &lines,
        );
        // Horn: the reversed edges, identical in every stored world
        let mut reversed: Vec<(usize, usize)> = graph.edges.iter().map(|&(x, y)| (y, x)).collect();
        reversed.sort_unstable();
        let facts: Vec<String> = reversed
            .iter()
            .map(|&(x, y)| format!("adj{g}({x}, {y})"))
            .collect();
        let horn = worlds(
            format!("QUERY tau[forall x y. e{g}(x, y) -> adj{g}(y, x)]; project[adj{g}]"),
            &[world_line(&facts)],
        );
        // folds over the four stored worlds: nothing is marked in all of
        // them, the four candidates are marked in some
        let fold = if g % 8 < 4 {
            goal(
                "QUERY CERTAIN marked".to_string(),
                "certain",
                "marked",
                None,
                &[],
            )
        } else {
            let union = stored.iter().fold(0, |acc, &m| acc | m);
            goal(
                "QUERY POSSIBLE marked".to_string(),
                "possible",
                "marked",
                None,
                &set_facts("marked", union),
            )
        };
        let cheap = [existential, ground, horn, fold];
        rotation.extend([cover.clone(), cheap[g % 4].clone(), cover]);
    }
    let repeat = |n: usize| -> Vec<Op> { (0..n).flat_map(|_| rotation.iter().cloned()).collect() };

    Workload {
        name: "update_sat",
        checkpoint_every: 0,
        setup,
        warmup: repeat(SAT_WARMUP_ROTATIONS),
        window: repeat(SAT_WINDOW_ROTATIONS),
        window_s: 0.25,
        recovery_tail: Vec::new(),
        probe_rules: "tau[forall x y. e0(x, y) -> adj0(y, x)]".to_string(),
    }
}

// ---------------------------------------------------------------------
// closure_scan
// ---------------------------------------------------------------------

const SCAN_UNITS: usize = 4_000;
const SCAN_STRIDE: usize = 16;
const SCAN_STRAND: usize = 5;
const SCAN_CYCLES: usize = 5;
const SCAN_WARMUP_ROTATIONS: usize = 2;
const SCAN_WINDOW_ROTATIONS: usize = 1;
const SCAN_BATCH: usize = 125;

const LINEAR_TC: &str = "(forall x0 x1. edge(x0, x1) -> reach(x0, x1)) & \
     (forall x0 x1 x2. reach(x0, x1) & edge(x1, x2) -> reach(x0, x2))";
const NONLINEAR_TC: &str = "(forall x0 x1. edge(x0, x1) -> reach(x0, x1)) & \
     (forall x0 x1 x2. reach(x0, x1) & reach(x1, x2) -> reach(x0, x2))";
const SAME_GENERATION: &str = "(forall x0 x1 x2. edge(x0, x1) & edge(x0, x2) -> sg(x1, x2)) & \
     (forall x0 x1 x2 x3. edge(x0, x1) & sg(x0, x2) & edge(x2, x3) -> sg(x1, x3))";

/// Full evaluation: a stored braid of 4 000 two-strand units (a root with
/// two five-edge strands), five of them closed into a cycle, and
/// hypothetical queries that materialise a closure from scratch and return
/// a handful of rows.  Units are disjoint, so the oracle works on the one
/// unit a query's constant lives in.
fn closure_scan(seed: u64) -> Workload {
    let mut rng = Rng::new(seed ^ 0xC105_0000);
    let root = |u: usize| u * SCAN_STRIDE;
    let mut cyclic = rng.sample(SCAN_UNITS, SCAN_CYCLES);
    cyclic.sort_unstable();
    let unit_edges = |u: usize| {
        let r = root(u);
        let mut edges = vec![(r, r + 1), (r, r + 1 + SCAN_STRAND)];
        for i in 1..SCAN_STRAND {
            edges.push((r + i, r + i + 1));
            edges.push((r + SCAN_STRAND + i, r + SCAN_STRAND + i + 1));
        }
        if cyclic.binary_search(&u).is_ok() {
            edges.push((r + SCAN_STRAND, r));
        }
        edges
    };

    // reach within one unit, by repeated relaxation over its ≤ 11 edges
    let unit_reach = |u: usize| -> BTreeSet<(usize, usize)> {
        let edges = unit_edges(u);
        let mut reach: BTreeSet<(usize, usize)> = edges.iter().copied().collect();
        loop {
            let more: Vec<(usize, usize)> = reach
                .iter()
                .flat_map(|&(x, y)| {
                    edges
                        .iter()
                        .filter(move |&&(a, _)| a == y)
                        .map(move |&(_, b)| (x, b))
                })
                .filter(|p| !reach.contains(p))
                .collect();
            if more.is_empty() {
                return reach;
            }
            reach.extend(more);
        }
    };
    // same-generation within one unit, by naive iteration to the fixpoint
    let unit_sg = |u: usize| -> BTreeSet<(usize, usize)> {
        let edges = unit_edges(u);
        let mut sg: BTreeSet<(usize, usize)> = BTreeSet::new();
        for &(p, x) in &edges {
            for &(q, y) in &edges {
                if p == q {
                    sg.insert((x, y));
                }
            }
        }
        loop {
            let mut more = Vec::new();
            for &(a, b) in &sg {
                for &(p, x) in &edges {
                    for &(q, y) in &edges {
                        if p == a && q == b && !sg.contains(&(x, y)) {
                            more.push((x, y));
                        }
                    }
                }
            }
            if more.is_empty() {
                return sg;
            }
            sg.extend(more);
        }
    };
    let mut setup = Vec::new();
    let mut total = 0usize;
    let facts: Vec<String> = (0..SCAN_UNITS)
        .flat_map(unit_edges)
        .map(|(a, b)| format!("edge({a}, {b})"))
        .collect();
    assert_batches(&facts, SCAN_BATCH, &mut total, &mut setup);
    // three committed closures over the same edges (linear and non-linear
    // reach, then same-generation): from-scratch evaluations that recovery
    // has to replay, which is what gives the restart a measurable length
    let stored_reach: usize = (0..SCAN_UNITS).map(|u| unit_reach(u).len()).sum();
    let stored_sg: usize = (0..SCAN_UNITS).map(|u| unit_sg(u).len()).sum();
    for (name, text, facts) in [
        (
            "lin",
            format!("project[edge]; tau[{LINEAR_TC}]"),
            total + stored_reach,
        ),
        (
            "nonlin",
            format!("project[edge]; tau[{NONLINEAR_TC}]"),
            total + stored_reach,
        ),
        (
            "samegen",
            format!("tau[{SAME_GENERATION}]"),
            total + stored_reach + stored_sg,
        ),
    ] {
        setup.push(define(name, &text));
        setup.push(commit(
            format!("APPLY {name}"),
            vec![
                ("applied", name.to_string()),
                ("worlds", "1".to_string()),
                ("facts", facts.to_string()),
            ],
        ));
    }

    let numbered = |rel: &str, nodes: &BTreeSet<usize>| -> Vec<String> {
        vec![world_line(
            &nodes
                .iter()
                .map(|v| format!("{rel}({v})"))
                .collect::<Vec<_>>(),
        )]
    };
    let on_cycle: BTreeSet<usize> = cyclic
        .iter()
        .flat_map(|&u| unit_reach(u))
        .filter(|&(x, y)| x == y)
        .map(|(x, _)| x)
        .collect();

    let rotation = |rng: &mut Rng| -> Vec<Op> {
        // linear closure, then the nodes that reach themselves
        let lin = worlds(
            format!(
                "QUERY project[edge]; tau[{LINEAR_TC} & (forall x0. reach(x0, x0) -> oncycle(x0))]; \
                 project[oncycle]"
            ),
            &numbered("oncycle", &on_cycle),
        );
        // non-linear closure, then everything that reaches one node of a
        // cyclic unit's open strand
        let u = cyclic[rng.below(SCAN_CYCLES)];
        let k = root(u) + SCAN_STRAND + 1 + rng.below(SCAN_STRAND);
        let hits: BTreeSet<usize> = unit_reach(u)
            .into_iter()
            .filter(|&(_, y)| y == k)
            .map(|(x, _)| x)
            .collect();
        let nonlin = worlds(
            format!(
                "QUERY project[edge]; tau[{NONLINEAR_TC} & \
                 (forall x0. reach(x0, {k}) -> hits(x0))]; project[hits]"
            ),
            &numbered("hits", &hits),
        );
        // same generation, then the generation of one strand node
        let u = rng.below(SCAN_UNITS);
        let k = root(u) + 1 + rng.below(2 * SCAN_STRAND);
        let sg = unit_sg(u);
        let twins: BTreeSet<usize> = sg
            .iter()
            .filter(|&&(x, _)| x == k)
            .map(|&(_, y)| y)
            .collect();
        let same_gen = worlds(
            format!(
                "QUERY project[edge]; tau[{SAME_GENERATION} & \
                 (forall x0. sg({k}, x0) -> twin(x0))]; project[twin]"
            ),
            &numbered("twin", &twins),
        );
        vec![lin, nonlin, same_gen]
    };
    let warmup: Vec<Op> = (0..SCAN_WARMUP_ROTATIONS)
        .flat_map(|_| rotation(&mut rng))
        .collect();
    let window: Vec<Op> = (0..SCAN_WINDOW_ROTATIONS)
        .flat_map(|_| rotation(&mut rng))
        .collect();

    Workload {
        name: "closure_scan",
        checkpoint_every: 0,
        setup,
        warmup,
        window,
        window_s: 0.25,
        recovery_tail: Vec::new(),
        probe_rules: format!("tau[{LINEAR_TC}]"),
    }
}

/// Generator and oracle checks that need no server; `Err` names the first
/// failure.
pub fn selftest() -> Result<(), String> {
    let check = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };

    // the generator: known SplitMix64 output, shuffles are permutations
    let mut rng = Rng::new(0);
    check(
        rng.next_u64() == 0xE220_A839_7B1D_CDAF,
        "splitmix64 first output",
    )?;
    let mut perm: Vec<usize> = (0..100).collect();
    rng.shuffle(&mut perm);
    perm.sort_unstable();
    check(
        perm == (0..100).collect::<Vec<_>>(),
        "shuffle keeps the elements",
    )?;
    check((0..1000).all(|_| rng.zipf(8) < 8), "zipf stays in range")?;

    // digests ignore order and world labels, and see content
    let a = Rows::of(["= world 0: {c(1)}", "= world 1: {c(2)}"]);
    let b = Rows::of(["= world 0: {c(2)}", "= world 1: {c(1)}"]);
    check(a == b, "row digest is order-independent")?;
    check(
        a != Rows::of(["= world 0: {c(1)}", "= world 1: {c(3)}"]),
        "row digest sees content",
    )?;
    check(
        normalise_line("= edge(1, 2)") == "edge(1, 2)",
        "data prefix is stripped",
    )?;

    // cover oracle on graphs with known answers: a triangle has the three
    // two-node covers, a star has the centre or all the leaves
    let mut triangle = minimal_covers(&[(1, 2), (2, 3), (1, 3)]);
    triangle.sort_unstable();
    check(
        triangle == vec![0b011, 0b101, 0b110],
        "minimal covers of a triangle",
    )?;
    let mut star = minimal_covers(&[(1, 2), (1, 3), (1, 4)]);
    star.sort_unstable();
    check(star == vec![0b0001, 0b1110], "minimal covers of a star")?;

    for name in WORKLOADS {
        let w = generate(name, 1).ok_or("workload list and generator disagree")?;
        let again = generate(name, 1).ok_or("workload list and generator disagree")?;
        let other = generate(name, 7).ok_or("workload list and generator disagree")?;
        let text = |w: &Workload| -> Vec<String> {
            w.setup
                .iter()
                .chain(&w.warmup)
                .chain(&w.window)
                .map(|op| format!("{} {:?} {:?}", op.cmd, op.expect.fields, op.expect.rows))
                .collect()
        };
        check(w.name == name, "workload carries its name")?;
        check(text(&w) == text(&again), "same seed, same workload")?;
        check(text(&w) != text(&other), "another seed, another workload")?;
        check(
            w.window.len() == other.window.len() && w.setup.len() == other.setup.len(),
            "every seed has the same op counts",
        )?;
        check(
            w.setup.iter().all(|op| op.kind == Kind::Commit),
            "set-up only commits",
        )?;
        check(
            w.setup
                .iter()
                .chain(&w.window)
                .all(|op| op.cmd.len() < 60_000),
            "commands fit the server's line cap",
        )?;
    }

    // workload-specific shapes
    let abox = abox_read(1);
    let views = abox
        .window
        .iter()
        .filter(|op| op.cmd.starts_with("QUERY CERTAIN cls"))
        .collect::<Vec<_>>();
    check(
        views.len() == ABOX_WINDOW_OPS / 2,
        "half the abox reads are views",
    )?;
    check(
        views
            .iter()
            .all(|op| (100..=400).contains(&op.expect.rows.unwrap_or_default().count)),
        "views return 100-400 rows",
    )?;
    let stream = commit_stream(1);
    check(
        stream.window.len() == STREAM_WINDOW_GROUPS * (4 * GROUP_UNITS + 2),
        "commit_stream window shape",
    )?;
    let scan = closure_scan(1);
    check(
        scan.window
            .iter()
            .all(|op| op.expect.fields == vec![("worlds", "1".to_string())]),
        "closure_scan returns one world",
    )?;
    Ok(())
}
