//! The traced run: a short wire pass, then an in-process replay of the
//! *same command stream* with spans recorded from outside the layers.
//!
//! The replay serves each command the way a session worker does —
//! `LineFramer` → `Service::execute_traced` → `proto::encode_response` →
//! write — and checks that the bytes equal what the wire pass received.
//! Around that real pipeline it records spans, and beside it a *shadow*:
//! the same command decomposed into calls on each layer's public functions
//! (snapshot, vocabulary clone, parse, typed read, ground, minimal models,
//! fixpoint, render, WAL append and sync), timed one by one.  Shadow spans
//! are filed as children of the real `service.execute` span, so a layer's
//! self time is its span minus its children, and what `service.execute`
//! keeps for itself is the part of a command no public call explains:
//! `service.unattributed_share`.  Commits cannot run twice, so their phases
//! come from the service's own span histograms instead (read in-process
//! around each command).
//!
//! Spans stay in memory and are written to the span file at exit.  Counts
//! come from the wire server's `METRICS` / `WALSTAT` over its measured
//! windows; allocation counts from `kbt_bench::alloc_counter` here.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use kbt_bench::alloc_counter;
use kbt_core::update::universe::UpdateContext;
use kbt_core::{EvalOptions, Transform, Transformer};
use kbt_data::{Const, Database, Tuple};
use kbt_datalog::{
    magic_rewrite, program_from_sentence, semi_naive_eval_threads, stratify, Program,
};
use kbt_engine::table::filter_rows;
use kbt_engine::SubsumptiveTable;
use kbt_logic::{ground_sentence, GroundFormula, Sentence, Term};
use kbt_obs::{Histogram, Registry};
use kbt_service::command::{
    parse_fact_list, parse_query, parse_transform, render_fact, split_command, QueryCmd, Verb,
};
use kbt_service::net::{proto, LineFramer, MAX_LINE_BYTES};
use kbt_service::wal::{Wal, WalMetrics};
use kbt_service::{checkpoint, recover, CommittedState, FsyncPolicy, Service, ServiceConfig};
use kbt_solver::{enumerate_minimal_models, tseitin, Bool, BoolVar, Cnf, Lit, Solver};

use crate::calib::Kernel;
use crate::gen::{Kind, Op, Workload};
use crate::metrics::Values;
use crate::proc::TmpDir;
use crate::run::{self, median, quantile, Tally, WireRun};
use crate::wire::status_field;
use crate::Args;

type Result<T> = std::result::Result<T, String>;

/// Windows of the traced run's wire pass.
const WIRE_WINDOWS: usize = 12;
/// Windows of the replay, alternately without and with spans.
const REPLAY_WINDOWS: usize = 12;
/// Paired evaluations per width for `engine.eval_width2_ratio`.
const WIDTH_PAIRS: usize = 5;

/// One recorded call: `parent` and `op` tie it to the span that caused it
/// and to the command it belongs to (`0` = none).
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A timed shadow call and the calls made on its behalf.
struct Shadow {
    name: &'static str,
    ns: u64,
    kids: Vec<Shadow>,
}

impl Shadow {
    fn leaf(name: &'static str, ns: u64) -> Shadow {
        Shadow {
            name,
            ns,
            kids: Vec::new(),
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    // black_box: a shadow call's result is often unused, its work must stay
    let value = std::hint::black_box(f());
    (value, start.elapsed().as_nanos() as u64)
}

/// Times `f` as a shadow call named `name`, appended to `into`.
fn shadow<T>(into: &mut Vec<Shadow>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let (value, ns) = timed(f);
    into.push(Shadow::leaf(name, ns));
    value
}

/// Span storage: in memory until the run ends.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Files a shadow tree under `parent`, laid out back to back from
    /// `start_ns` (the calls ran after the real command, so only their
    /// durations are real; the layout keeps children inside parents).
    fn file(&mut self, shadows: &[Shadow], parent: u32, op: u32, start_ns: u64) {
        let mut cursor = start_ns;
        for s in shadows {
            let id = self.push(s.name, parent, op, cursor, cursor + s.ns);
            self.file(&s.kids, id, op, cursor);
            cursor += s.ns;
        }
    }
}

/// The layer of a span name: the part before the first `.`.
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per span: its duration minus its children's, floored at zero.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != 0 {
            let p = s.parent as usize - 1;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Sums read from the in-process service's own span histograms and
/// counters, so a commit's phases can be taken as differences around it.
#[derive(Clone, Copy, Default)]
struct Books {
    commit_parse: u64,
    commit_apply: u64,
    commit_publish: u64,
    engine_eval: u64,
    engine_delta: u64,
}

fn sum(h: &Histogram) -> u64 {
    h.snapshot().sum
}

impl Books {
    fn read(service: &Service) -> Books {
        let m = service.metrics();
        let e = kbt_engine::metrics();
        Books {
            commit_parse: sum(&m.commit_parse_ns),
            commit_apply: sum(&m.commit_apply_ns),
            commit_publish: sum(&m.commit_publish_ns),
            engine_eval: sum(&e.eval_ns),
            engine_delta: sum(&e.delta_ns),
        }
    }
}

/// Counts gathered by the shadow calls over the traced windows.
#[derive(Default)]
struct Counts {
    ops: u64,
    reads: u64,
    commits: u64,
    /// `service.execute` time of the reads and of the commits.
    read_execute_ns: u64,
    commit_execute_ns: u64,
    rows: u64,
    ground_atoms: u64,
    cnf_clauses: u64,
    models_found: u64,
    worlds_in: u64,
    worlds_out: u64,
    strategy_grounding: u64,
    strategy_quantifier_free: u64,
    strategy_datalog: u64,
    reused_facts: u64,
    rederived_facts: u64,
    vocab_lookups: u64,
}

/// The in-process twin of a session worker plus the shadow machinery.
struct Replay {
    service: Service,
    framer: LineFramer,
    rec: Recorder,
    next_op: u32,
    next_trace: u64,
    /// A second log in a scratch directory: the WAL calls are timed on it,
    /// with the service's own policy.
    shadow_wal: Wal,
    shadow_epoch: u64,
    /// The answer table's twin: decides whether a bound goal would have
    /// been a table hit, and times the lookup.
    shadow_table: SubsumptiveTable,
    shadow_table_epoch: u64,
    /// The Horn rulebase of the registered transformations, as the
    /// service assembles it for bound goals.
    rulebase: Option<Program>,
    threads: usize,
    options: EvalOptions,
    counts: Counts,
    /// Per-command `(kind, execute + encode µs)` of the untraced windows.
    plain_us: Vec<(Kind, f64)>,
}

fn tau_payloads(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("tau[") {
        let body = &rest[at + 4..];
        let mut depth = 1usize;
        let mut end = body.len();
        for (i, c) in body.char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i;
                        break;
                    }
                }
                _ => {}
            }
        }
        out.push(&body[..end]);
        rest = &body[end..];
    }
    out
}

/// `ground(φ)` as a circuit over the candidate atoms — what
/// `kbt_core::update::grounding` builds before it calls the solver.
fn to_circuit(g: &GroundFormula, ctx: &UpdateContext) -> Bool {
    match g {
        GroundFormula::True => Bool::True,
        GroundFormula::False => Bool::False,
        GroundFormula::Atom(a) => Bool::Var(BoolVar::new(ctx.atom_index[a] as u32)),
        GroundFormula::Not(inner) => to_circuit(inner, ctx).negate(),
        GroundFormula::And(parts) => Bool::and(parts.iter().map(|p| to_circuit(p, ctx)).collect()),
        GroundFormula::Or(parts) => Bool::or(parts.iter().map(|p| to_circuit(p, ctx)).collect()),
    }
}

/// The solver's share of a grounding update, through the solver's public
/// API: clause generation, then the two minimal-model enumerations of the
/// Winslett order (flip sets of stored facts, then new-relation contents).
/// Returns `(clauses, models)`.
fn solve_minimal(ground: &GroundFormula, ctx: &UpdateContext) -> (u64, u64) {
    let n = ctx.atom_count();
    let mut cnf = Cnf::new(n as u32);
    tseitin::assert_circuit(&to_circuit(ground, ctx), &mut cnf);
    let mut solver = Solver::from_cnf(&cnf);
    while solver.num_vars() < n {
        solver.new_var();
    }
    let old: Vec<usize> = (0..n).filter(|&i| ctx.is_old_atom(i)).collect();
    let new_vars: Vec<BoolVar> = (0..n)
        .filter(|&i| !ctx.is_old_atom(i))
        .map(|i| BoolVar::new(i as u32))
        .collect();
    let mut flips = Vec::with_capacity(old.len());
    for &i in &old {
        let flip = solver.new_var();
        let fact = BoolVar::new(i as u32);
        let stored = ctx.holds_in_input(i);
        solver.add_clause(&[flip.positive(), Lit::new(fact, stored)]);
        solver.add_clause(&[flip.negative(), Lit::new(fact, !stored)]);
        flips.push(flip);
    }
    let clauses = solver.num_clauses() as u64;
    let mut models = 0u64;
    for set in enumerate_minimal_models(&solver, &flips, &[], None) {
        let assumptions: Vec<Lit> = old
            .iter()
            .zip(&flips)
            .map(|(&i, f)| {
                Lit::new(
                    BoolVar::new(i as u32),
                    ctx.holds_in_input(i) ^ set.contains(f),
                )
            })
            .collect();
        models += enumerate_minimal_models(&solver, &new_vars, &assumptions, None).len() as u64;
    }
    (clauses, models)
}

impl Replay {
    fn open(dir: &Path, shadow_dir: &Path, workload: &Workload) -> Result<Replay> {
        let config = ServiceConfig::builder()
            .durable(dir)
            .fsync_policy(FsyncPolicy::group_commit())
            .checkpoint_every_n_commits(u64::from(workload.checkpoint_every))
            .build();
        let threads = config.threads;
        let options = config.eval_options();
        let service = Service::open(config).map_err(|e| format!("in-process open: {e}"))?;
        let registry = Registry::new();
        let shadow_wal = Wal::open(
            shadow_dir.join("shadow.kbtl"),
            FsyncPolicy::group_commit(),
            0,
            0,
            WalMetrics {
                records_total: registry.counter("records"),
                bytes_total: registry.counter("bytes"),
                fsyncs_total: registry.counter("fsyncs"),
                batch: registry.histogram("batch"),
            },
        )
        .map_err(|e| format!("shadow log: {e}"))?;
        Ok(Replay {
            service,
            framer: LineFramer::new(MAX_LINE_BYTES),
            rec: Recorder {
                origin: Instant::now(),
                spans: Vec::new(),
            },
            next_op: 0,
            next_trace: 0,
            shadow_wal,
            shadow_epoch: 0,
            shadow_table: SubsumptiveTable::new(),
            shadow_table_epoch: 0,
            rulebase: None,
            threads,
            options,
            counts: Counts::default(),
            plain_us: Vec::new(),
        })
    }

    /// Serves one command as a session worker would and returns the bytes
    /// it would have written.  With `traced`, records the pipeline's spans
    /// and the command's shadow.
    fn serve(&mut self, op: &Op, trace_id: Option<&str>, traced: bool) -> Result<Vec<u8>> {
        self.next_op += 1;
        self.next_trace += 1;
        let op_id = self.next_op;
        let own_id;
        let trace = match trace_id {
            Some(id) => id,
            None => {
                own_id = format!("t{}", self.next_trace);
                &own_id
            }
        };
        let before = (op.kind == Kind::Commit && traced).then(|| Books::read(&self.service));
        let pre = if traced && op.kind == Kind::Commit {
            self.shadow_before_commit(&op.cmd)
        } else {
            Vec::new()
        };

        let t0 = self.rec.now();
        self.framer.push(op.cmd.as_bytes());
        self.framer.push(b"\n");
        let line = self
            .framer
            .next_line()
            .map_err(|e| format!("framer: {e}"))?
            .ok_or("framer kept the line")?;
        let t1 = self.rec.now();
        let result = self.service.execute_traced(&line, Some(trace));
        let t2 = self.rec.now();
        let encoded = match &result {
            Ok(response) => proto::encode_response(response, Some(trace)),
            Err(e) => (
                Vec::new(),
                format!("{} id={trace}", proto::encode_service_error(e)),
            ),
        };
        let t3 = self.rec.now();
        let mut out = Vec::new();
        for data in &encoded.0 {
            writeln!(out, "{data}").expect("writing to a Vec cannot fail");
        }
        writeln!(out, "{}", encoded.1).expect("writing to a Vec cannot fail");
        let t4 = self.rec.now();

        if !traced {
            self.plain_us.push((op.kind, (t3 - t1) as f64 / 1e3));
            return Ok(out);
        }
        self.counts.ops += 1;
        self.counts.rows += encoded.0.len() as u64;
        let root = self.rec.push("op", 0, op_id, t0, t4);
        self.rec.push("net.frame", root, op_id, t0, t1);
        let exec = self.rec.push("service.execute", root, op_id, t1, t2);
        self.rec.push("net.encode", root, op_id, t2, t3);
        self.rec.push("net.write", root, op_id, t3, t4);
        let shadows = match op.kind {
            Kind::Query => {
                self.counts.reads += 1;
                self.counts.read_execute_ns += t2 - t1;
                self.shadow_query(&op.cmd)?
            }
            Kind::Commit => {
                self.counts.commits += 1;
                self.counts.commit_execute_ns += t2 - t1;
                let mut all = pre;
                all.extend(self.shadow_after_commit(&op.cmd, before.expect("read above")));
                all
            }
        };
        self.rec.file(&shadows, exec, op_id, t1);
        Ok(out)
    }

    /// What can only be measured before a commit runs: parsing its facts
    /// against the vocabulary it will see, and merging them into a copy of
    /// the relation it will change.
    fn shadow_before_commit(&mut self, cmd: &str) -> Vec<Shadow> {
        let mut out = Vec::new();
        let Ok((verb, rest)) = split_command(cmd) else {
            return out;
        };
        if !matches!(verb, Verb::Assert | Verb::Retract) {
            return out;
        }
        let snap = shadow(&mut out, "service.snapshot", || self.service.snapshot());
        let mut vocab = shadow(&mut out, "data.vocab_clone", || snap.vocab().clone());
        let Ok(facts) = parse_fact_list(rest, &mut vocab) else {
            return out;
        };
        shadow(&mut out, "data.relation_merge", || {
            let mut merged = 0usize;
            for db in snap.kb().iter() {
                let mut db = db.clone();
                for (rel, t) in &facts {
                    if verb == Verb::Assert {
                        let _ = db.insert_fact(*rel, t.clone());
                    } else {
                        db.remove_fact(*rel, t);
                    }
                }
                merged += db.fact_count();
            }
            merged
        });
        out
    }

    /// A commit's phases from the service's own books, plus the WAL calls
    /// on the shadow log.
    fn shadow_after_commit(&mut self, cmd: &str, before: Books) -> Vec<Shadow> {
        let after = Books::read(&self.service);
        let mut out = vec![Shadow::leaf(
            "command.parse_commit",
            after.commit_parse - before.commit_parse,
        )];
        let engine = (
            after.engine_eval - before.engine_eval,
            after.engine_delta - before.engine_delta,
        );
        let mut apply = Shadow::leaf(
            "service.commit_apply",
            after.commit_apply - before.commit_apply,
        );
        if engine.0 > 0 {
            apply.kids.push(Shadow::leaf("engine.eval", engine.0));
        }
        if engine.1 > 0 {
            apply.kids.push(Shadow::leaf("engine.delta", engine.1));
        }
        out.push(apply);
        out.push(Shadow::leaf(
            "service.commit_publish",
            after.commit_publish - before.commit_publish,
        ));
        self.shadow_epoch += 1;
        let epoch = self.shadow_epoch;
        shadow(&mut out, "wal.append", || {
            let _ = self.shadow_wal.append(epoch, cmd);
        });
        shadow(&mut out, "wal.sync", || {
            let _ = self.shadow_wal.sync(epoch);
        });
        // a DEFINE changes the rulebase bound goals are answered from
        if cmd.starts_with("DEFINE ") {
            self.rulebase = None;
        }
        let stats = self.service.snapshot();
        let eval = stats.stats().eval;
        self.counts.reused_facts = eval.reused_facts as u64;
        self.counts.rederived_facts = eval.rederived_facts as u64;
        out
    }

    /// The registered Horn rules, assembled the way the service does it.
    fn rulebase(&mut self) -> Option<Program> {
        if self.rulebase.is_none() {
            let snap = self.service.snapshot();
            let mut vocab = snap.vocab().clone();
            let mut rules = Vec::new();
            for info in snap.transforms().values() {
                let Ok(t) = parse_transform(&info.text, &mut vocab) else {
                    continue;
                };
                for step in t.steps() {
                    if let Transform::Insert(sentence) = step {
                        if let Ok(p) = program_from_sentence(sentence) {
                            rules.extend(p.rules().iter().cloned());
                        }
                    }
                }
            }
            self.rulebase = Program::new(rules).ok();
        }
        self.rulebase.clone()
    }

    /// A read, decomposed into public calls.
    fn shadow_query(&mut self, cmd: &str) -> Result<Vec<Shadow>> {
        let mut out = Vec::new();
        let (_, rest) = split_command(cmd).map_err(|e| e.to_string())?;
        let snap = shadow(&mut out, "service.snapshot", || self.service.snapshot());
        let mut vocab = shadow(&mut out, "data.vocab_clone", || snap.vocab().clone());
        // the names a command mentions, looked up one by one
        let names: Vec<&str> = rest.split('\'').skip(1).step_by(2).collect();
        if !names.is_empty() {
            self.counts.vocab_lookups += names.len() as u64;
            shadow(&mut out, "data.vocab_lookup", || {
                names
                    .iter()
                    .filter(|n| vocab.lookup_constant(n).is_some())
                    .count()
            });
        }
        let (parsed, parse_ns) = timed(|| parse_query(rest, &mut vocab));
        let mut parse = Shadow::leaf("command.parse", parse_ns);
        for payload in tau_payloads(rest) {
            let mut scratch = vocab.clone();
            shadow(&mut parse.kids, "logic.parse_sentence", || {
                kbt_logic::parser::parse_sentence(payload, &mut scratch).is_ok()
            });
        }
        out.push(parse);
        let (goal, certain) = match parsed.map_err(|e| e.to_string())? {
            QueryCmd::Certain(goal) => (goal, true),
            QueryCmd::Possible(goal) => (goal, false),
            QueryCmd::Transform(t) => {
                let (result, ns) = timed(|| self.service.query_on(&snap, &t));
                let result = result.map_err(|e| e.to_string())?;
                let mut node = Shadow::leaf("core.transform", ns);
                self.shadow_steps(&t, snap.kb(), &mut node.kids)?;
                out.push(node);
                self.counts.worlds_in += snap.kb().len() as u64;
                self.counts.worlds_out += result.kb.len() as u64;
                shadow(&mut out, "command.render", || {
                    result
                        .kb
                        .iter()
                        .flat_map(|db| db.facts())
                        .map(|(rel, t)| render_fact(rel, t.components(), &vocab).len())
                        .sum::<usize>()
                });
                shadow(&mut out, "data.vocab_drop", move || drop(vocab));
                return Ok(out);
            }
        };
        let facts = match goal.terms.as_deref() {
            None => shadow(&mut out, "service.read_typed", || {
                if certain {
                    self.service.certain(&snap, goal.rel)
                } else {
                    self.service.possible(&snap, goal.rel)
                }
            }),
            Some(terms) => self.shadow_goal(&snap, goal.rel, terms, certain, &vocab, &mut out)?,
        };
        shadow(&mut out, "command.render", || {
            facts
                .iter()
                .map(|row| render_fact(goal.rel, row, &vocab).len())
                .sum::<usize>()
        });
        // the per-command copy is also freed inside the command
        shadow(&mut out, "data.vocab_drop", move || drop(vocab));
        Ok(out)
    }

    /// A bound goal: table lookup on the twin table, and on a miss the
    /// magic rewrite and its fixpoint.
    fn shadow_goal(
        &mut self,
        snap: &kbt_service::Snapshot,
        rel: kbt_data::RelId,
        terms: &[Term],
        certain: bool,
        vocab: &kbt_data::Vocabulary,
        out: &mut Vec<Shadow>,
    ) -> Result<kbt_data::Relation> {
        let bound: Vec<(usize, Const)> = terms
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_const().map(|c| (i, c)))
            .collect();
        let tag = u8::from(!certain);
        if self.shadow_table_epoch != snap.epoch().get() {
            self.shadow_table.evict();
            self.shadow_table_epoch = snap.epoch().get();
        }
        let hit = shadow(out, "engine.table_lookup", || {
            self.shadow_table.lookup(tag, rel.index(), &bound)
        });
        if let Some(answer) = hit {
            return Ok(answer);
        }
        let arity = terms.len();
        let answer = match self.rulebase() {
            Some(program) => {
                let plan = shadow(out, "datalog.magic_rewrite", || {
                    magic_rewrite(&program, rel, terms, vocab.relation_count() as u32)
                })
                .map_err(|e| e.to_string())?;
                let threads = self.threads;
                shadow(out, "engine.eval", || -> Result<kbt_data::Relation> {
                    let mut acc: Option<kbt_data::Relation> = None;
                    for db in snap.kb().iter() {
                        let mut edb = db.clone();
                        for (seed_rel, consts) in &plan.seeds {
                            edb.insert_fact(*seed_rel, Tuple::new(consts.clone()))
                                .map_err(|e| e.to_string())?;
                        }
                        let (fix, _) = semi_naive_eval_threads(&plan.program, &edb, threads)
                            .map_err(|e| e.to_string())?;
                        let rows = fix
                            .relation(plan.answer)
                            .map(|r| filter_rows(r, &bound))
                            .unwrap_or_else(|| kbt_data::Relation::empty(arity));
                        acc = Some(match acc {
                            None => rows,
                            Some(prev) if certain => {
                                prev.intersection(&rows).map_err(|e| e.to_string())?
                            }
                            Some(prev) => prev.union(&rows).map_err(|e| e.to_string())?,
                        });
                    }
                    Ok(acc.unwrap_or_else(|| kbt_data::Relation::empty(arity)))
                })?
            }
            None => kbt_data::Relation::empty(arity),
        };
        self.shadow_table
            .insert(tag, rel.index(), &bound, answer.clone());
        Ok(answer)
    }

    /// The insertions of a hypothetical expression, step by step on the
    /// worlds each step sees: Horn steps as rule extraction,
    /// stratification and fixpoint; the others as grounding and
    /// minimal-model enumeration.
    fn shadow_steps(
        &mut self,
        t: &Transform,
        kb: &kbt_data::Knowledgebase,
        out: &mut Vec<Shadow>,
    ) -> Result<()> {
        let transformer = Transformer::with_options(self.options);
        let mut kb = kb.clone();
        for step in t.steps() {
            if let Transform::Insert(phi) = step {
                for db in kb.iter() {
                    self.shadow_insert(phi, db, out)?;
                }
            }
            kb = transformer.apply(step, &kb).map_err(|e| e.to_string())?.kb;
        }
        Ok(())
    }

    fn shadow_insert(
        &mut self,
        phi: &Sentence,
        db: &Database,
        out: &mut Vec<Shadow>,
    ) -> Result<()> {
        if kbt_core::update::datalog::applicable(phi, db) {
            self.counts.strategy_datalog += 1;
            let program = shadow(out, "datalog.from_logic", || program_from_sentence(phi))
                .map_err(|e| e.to_string())?;
            shadow(out, "datalog.stratify", || {
                stratify(&program).map(|s| s.len())
            })
            .map_err(|e| e.to_string())?;
            let schema = db
                .schema()
                .union(&phi.schema())
                .map_err(|e| e.to_string())?;
            let lifted = db.extend_schema(&schema).map_err(|e| e.to_string())?;
            let threads = self.threads;
            shadow(out, "engine.eval", || {
                semi_naive_eval_threads(&program, &lifted, threads).map(|(_, stats)| stats)
            })
            .map_err(|e| e.to_string())?;
        } else if kbt_logic::is_ground(phi.formula()) {
            // Theorem 4.7's polynomial path has no separable sub-calls: it
            // stays inside core.transform's own time
            self.counts.strategy_quantifier_free += 1;
        } else {
            self.counts.strategy_grounding += 1;
            let mut domain = db.constants();
            domain.extend(phi.constants());
            shadow(out, "logic.ground", || ground_sentence(phi, &domain).size());
            let (ctx, ground) =
                UpdateContext::grounded(phi, db, &self.options).map_err(|e| e.to_string())?;
            self.counts.ground_atoms += ctx.atom_count() as u64;
            let (clauses, models) = shadow(out, "solver.minimal_models", || {
                solve_minimal(&ground, &ctx)
            });
            self.counts.cnf_clauses += clauses;
            self.counts.models_found += models;
        }
        Ok(())
    }
}

/// What the traced run hands back for the report.
pub struct Traced {
    pub wire: WireRun,
    /// Commands replayed in-process and compared with the wire's bytes.
    pub replayed: u64,
    /// … of which differed.
    pub mismatched: u64,
    /// Attributed self time per layer over the traced windows, ns.
    pub layer_self_ns: BTreeMap<String, u64>,
    pub span_file: PathBuf,
    pub spans: usize,
}

fn mean_of(spans: &[Span], name: &str) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    if durations.is_empty() {
        0.0
    } else {
        durations.iter().sum::<f64>() / durations.len() as f64
    }
}

fn total_of(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum()
}

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// The traced run (see the module docs).  Fills every per-layer metric
/// except the ones `main` derives from the wire windows.
pub fn traced_run(
    kernel: &Kernel,
    bin: &Path,
    workload: &Workload,
    args: &Args,
    values: &mut Values,
) -> Result<Traced> {
    // ---- wire pass: one set-up, a few windows, one recovery -------------
    let mut tally = Tally::default();
    let dir = TmpDir::new(bin, workload.name)?;
    let (mut session, setup_timed) = run::setup(kernel, bin, dir.path(), workload, &mut tally)?;
    let scrape0 = session.scrape()?;
    let (_, walstat0) = session.admin("WALSTAT")?;
    let mut captured: Vec<Vec<u8>> = Vec::new();
    let ctx0 = crate::proc::involuntary_switches(session.server.pid());
    let windows = run::measure(
        kernel,
        &mut session,
        workload,
        WIRE_WINDOWS,
        &mut tally,
        Some(&mut captured),
    )?;
    let ctx_involuntary =
        crate::proc::involuntary_switches(session.server.pid()).saturating_sub(ctx0);
    let scrape1 = session.scrape()?;
    let (_, walstat1) = session.admin("WALSTAT")?;
    let rss_peak_mib = crate::proc::rss_peak_mib(session.server.pid())?;
    let user_bytes = session.user_bytes;
    let (mut session, recovered) = run::recover(kernel, bin, dir.path(), workload, session)?;
    let scrape2 = session.scrape()?;
    drop(session);
    drop(dir);
    let wire = WireRun {
        setups: vec![setup_timed],
        windows,
        recoveries: vec![recovered],
        slowdown: kernel.slowdown(),
        rss_peak_mib,
        wal_bytes: status_field(&walstat1, "bytes")
            .and_then(|n| n.parse().ok())
            .unwrap_or(0),
        user_bytes,
        ctx_involuntary,
        tally,
    };
    let delta = |name: &str| scrape1.get(name).unwrap_or(&0.0) - scrape0.get(name).unwrap_or(&0.0);
    let walstat = |key: &str| -> f64 {
        let read = |s: &str| {
            status_field(s, key)
                .and_then(|n| n.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        read(&walstat1) - read(&walstat0)
    };
    let wire_ops = (WIRE_WINDOWS * workload.window.len()) as f64;
    let wire_commits = delta("kbt_service_commits_total");

    // ---- in-process replay of the same stream ---------------------------
    let replay_dir = TmpDir::new(bin, "replay")?;
    let shadow_dir = TmpDir::new(bin, "shadow")?;
    let mut replay = Replay::open(replay_dir.path(), shadow_dir.path(), workload)?;
    for op in &workload.setup {
        replay.serve(op, None, false)?;
    }
    for op in &workload.warmup {
        replay.serve(op, None, false)?;
        // the warm-up fills the server's answer table; fill its twin too
        if op.kind == Kind::Query {
            replay.shadow_query(&op.cmd)?;
        }
    }
    replay.plain_us.clear();
    replay.counts = Counts::default();
    let mut mismatched = 0u64;
    let mut plain_ns = 0u64;
    let mut traced_ns = 0u64;
    for w in 0..REPLAY_WINDOWS {
        let traced = w % 2 == 1;
        let start = Instant::now();
        let mut shadow_ns = 0u64;
        for (i, op) in workload.window.iter().enumerate() {
            // window 0 is held to the wire's bytes, under the wire's ids
            let wire_bytes = (w == 0).then(|| captured[i].as_slice());
            let id = wire_bytes.and_then(|raw| {
                let text = std::str::from_utf8(raw).ok()?;
                status_field(text.lines().last()?, "id").map(str::to_string)
            });
            let spans_before = replay.rec.spans.len();
            let call = Instant::now();
            let out = replay.serve(op, id.as_deref(), traced)?;
            if traced {
                // the shadow calls ran inside serve(): take them out of the
                // traced/untraced comparison
                let root = &replay.rec.spans[spans_before];
                shadow_ns +=
                    (call.elapsed().as_nanos() as u64).saturating_sub(root.end_ns - root.start_ns);
            }
            if wire_bytes.is_some_and(|raw| raw != out.as_slice()) {
                mismatched += 1;
                if mismatched <= 3 {
                    eprintln!(
                        "stackbench: replay differs from the wire on {:?}",
                        op.cmd.chars().take(60).collect::<String>()
                    );
                }
            }
        }
        let elapsed = start.elapsed().as_nanos() as u64;
        if traced {
            traced_ns += elapsed - shadow_ns.min(elapsed);
        } else {
            plain_ns += elapsed;
        }
    }
    let replayed = workload.window.len() as u64;
    // one more window with the allocation counter on: counting costs two
    // atomic adds per allocation, so it stays out of every timed window
    let (mut read_allocs, mut read_alloc_bytes) = (0u64, 0u64);
    for op in &workload.window {
        crate::ALLOC.count(op.kind == Kind::Query);
        alloc_counter::reset();
        replay.serve(op, None, false)?;
        let (allocs, bytes) = alloc_counter::snapshot();
        crate::ALLOC.count(false);
        read_allocs += allocs;
        read_alloc_bytes += bytes;
    }
    let window_reads = workload
        .window
        .iter()
        .filter(|op| op.kind == Kind::Query)
        .count() as u64;

    // ---- engine width probe, checkpoint and recovery calls --------------
    let snap = replay.service.snapshot();
    let width_ratio = {
        let mut vocab = snap.vocab().clone();
        let t = parse_transform(&workload.probe_rules, &mut vocab).map_err(|e| e.to_string())?;
        let Transform::Insert(phi) = &t else {
            return Err("probe_rules is not a single tau".to_string());
        };
        let program = program_from_sentence(phi).map_err(|e| e.to_string())?;
        let heads: Vec<_> = program.rules().iter().map(|r| r.head.rel).collect();
        let world = snap.kb().iter().next().ok_or("no world to probe")?;
        let body: Vec<_> = world
            .iter()
            .map(|(rel, _)| rel)
            .filter(|rel| !heads.contains(rel))
            .collect();
        let schema = world
            .project(&body)
            .schema()
            .union(&phi.schema())
            .map_err(|e| e.to_string())?;
        let edb = world
            .project(&body)
            .extend_schema(&schema)
            .map_err(|e| e.to_string())?;
        let (mut one, mut two) = (Vec::new(), Vec::new());
        for _ in 0..WIDTH_PAIRS {
            for (threads, into) in [(1, &mut one), (2, &mut two)] {
                let (r, ns) = timed(|| semi_naive_eval_threads(&program, &edb, threads));
                r.map_err(|e| e.to_string())?;
                into.push(ns as f64);
            }
        }
        median(&two) / median(&one) * 100.0
    };
    let state = CommittedState {
        kb: snap.kb().clone(),
        vocab: std::sync::Arc::new(snap.vocab().clone()),
        transforms: std::sync::Arc::new(snap.transforms().clone()),
        stats: *snap.stats(),
    };
    let (text, render_ns) = timed(|| checkpoint::render(snap.epoch().get(), &state));
    let (parsed, parse_ns) = timed(|| checkpoint::parse("shadow", &text));
    parsed.map_err(|e| format!("checkpoint does not re-parse: {e}"))?;
    let vocab_entries = snap.vocab().constant_count() + snap.vocab().relation_count();
    drop(snap);
    let Replay {
        service,
        rec,
        counts,
        plain_us,
        ..
    } = replay;
    drop(service);
    let (plan, plan_ns) = timed(|| recover::plan(replay_dir.path()));
    plan.map_err(|e| format!("recovery plan: {e}"))?;
    let config = ServiceConfig::builder().durable(replay_dir.path()).build();
    let (reopened, open_ns) = timed(|| Service::open(config));
    drop(reopened.map_err(|e| format!("in-process recovery: {e}"))?);

    // ---- spans to disk, roll-up, metrics --------------------------------
    let spans = rec.spans;
    let span_file = match &args.trace_file {
        Some(path) => PathBuf::from(path),
        None => bin
            .parent()
            .and_then(Path::parent)
            .ok_or("server binary has no target directory")?
            .join(format!(
                "stackbench-trace-{}-{}.json",
                workload.name, args.seed
            )),
    };
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(&span_file).map_err(|e| format!("{}: {e}", span_file.display()))?,
    );
    for s in &spans {
        writeln!(
            file,
            "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )
        .map_err(|e| e.to_string())?;
    }
    file.flush().map_err(|e| e.to_string())?;

    let own = self_times(&spans);
    let mut layer_self_ns: BTreeMap<String, u64> = BTreeMap::new();
    let mut unattributed = 0u64;
    for (s, own) in spans.iter().zip(&own) {
        match s.name {
            "op" => {}
            "service.execute" => unattributed += own,
            name => *layer_self_ns.entry(layer(name).to_string()).or_default() += own,
        }
    }
    let execute_total = total_of(&spans, "service.execute");
    values.set(
        "net.frame_ns_per_op",
        per(total_of(&spans, "net.frame"), counts.ops),
    );
    values.set(
        "net.encode_ns_per_op",
        per(total_of(&spans, "net.encode"), counts.ops),
    );
    values.set(
        "net.bytes_out_per_op",
        wire.windows.iter().map(|w| w.bytes_in as f64).sum::<f64>() / wire_ops,
    );
    let wire_reads: Vec<f64> = wire
        .windows
        .iter()
        .flat_map(|w| w.query_us.iter().copied())
        .collect();
    let plain_reads: Vec<f64> = plain_us
        .iter()
        .filter(|(k, _)| *k == Kind::Query)
        .map(|(_, us)| *us)
        .collect();
    values.set(
        "net.wire_overhead_us",
        median(&wire_reads) - median(&plain_reads),
    );
    values.set("net.framing_errors", delta("kbt_net_framing_errors_total"));
    values.set(
        "net.sessions_rejected",
        delta("kbt_net_sessions_rejected_total"),
    );

    values.set(
        "command.parse_ns_per_op",
        per(
            total_of(&spans, "command.parse") + total_of(&spans, "command.parse_commit"),
            counts.ops,
        ),
    );
    values.set(
        "command.render_ns_per_row",
        per(total_of(&spans, "command.render"), counts.rows),
    );
    values.set("command.rows_per_op", per(counts.rows as f64, counts.ops));

    values.set("data.vocab_entries", vocab_entries as f64);
    values.set(
        "data.vocab_clone_ns",
        mean_of(&spans, "data.vocab_clone") + mean_of(&spans, "data.vocab_drop"),
    );
    values.set(
        "data.vocab_lookup_ns",
        per(total_of(&spans, "data.vocab_lookup"), counts.vocab_lookups),
    );
    values.set(
        "data.relation_merge_ns",
        mean_of(&spans, "data.relation_merge"),
    );

    values.set("service.snapshot_ns", mean_of(&spans, "service.snapshot"));
    values.set(
        "service.execute_read_ns",
        per(counts.read_execute_ns as f64, counts.reads),
    );
    values.set(
        "service.execute_commit_ns",
        per(counts.commit_execute_ns as f64, counts.commits),
    );
    let typed = total_of(&spans, "service.read_typed") + total_of(&spans, "core.transform");
    let typed_n = spans
        .iter()
        .filter(|s| s.name == "service.read_typed" || s.name == "core.transform")
        .count() as u64;
    values.set("service.read_typed_ns", per(typed, typed_n));
    values.set(
        "service.allocs_per_read",
        per(read_allocs as f64, window_reads),
    );
    values.set(
        "service.alloc_bytes_per_read",
        per(read_alloc_bytes as f64, window_reads),
    );
    values.set(
        "service.unattributed_share",
        if execute_total > 0.0 {
            unattributed as f64 / execute_total * 100.0
        } else {
            0.0
        },
    );
    values.set(
        "service.queries_tabled",
        delta("kbt_service_queries_tabled_total"),
    );
    values.set(
        "service.queries_magic",
        delta("kbt_service_queries_magic_total"),
    );
    values.set(
        "service.queries_materialize",
        delta("kbt_service_queries_materialize_total"),
    );
    let (hits, misses) = (
        delta("kbt_engine_table_hits"),
        delta("kbt_engine_table_misses"),
    );
    values.set(
        "service.table_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses) * 100.0
        } else {
            0.0
        },
    );
    values.set(
        "service.table_evictions",
        delta("kbt_engine_table_evictions"),
    );
    values.set(
        "service.commit_parse_ns",
        mean_of(&spans, "command.parse_commit"),
    );
    values.set(
        "service.commit_apply_ns",
        mean_of(&spans, "service.commit_apply"),
    );
    values.set(
        "service.commit_publish_ns",
        mean_of(&spans, "service.commit_publish"),
    );
    let wire_commit_us: Vec<f64> = wire
        .windows
        .iter()
        .flat_map(|w| w.commit_us.iter().copied())
        .collect();
    values.set("service.commit_p50_us", median(&wire_commit_us));
    values.set("service.commit_p99_us", quantile(&wire_commit_us, 0.99));
    values.set("service.read_p99_us", quantile(&wire_reads, 0.99));
    values.set(
        "service.held_epochs_max",
        [&scrape0, &scrape1, &scrape2]
            .iter()
            .filter_map(|s| s.get("kbt_service_held_epochs"))
            .fold(0.0, |a, &b| a.max(b)),
    );

    values.set("wal.append_ns", mean_of(&spans, "wal.append"));
    values.set("wal.sync_ns", mean_of(&spans, "wal.sync"));
    values.set(
        "wal.bytes_per_commit",
        per(walstat("bytes"), wire_commits as u64),
    );
    values.set(
        "wal.fsyncs_per_commit",
        per(walstat("fsyncs"), wire_commits as u64),
    );
    let batches = delta("kbt_service_group_commit_batch_count");
    values.set(
        "wal.group_batch_mean",
        if batches > 0.0 {
            delta("kbt_service_group_commit_batch_sum") / batches
        } else {
            0.0
        },
    );

    values.set("checkpoint.render_ns", render_ns as f64);
    values.set("checkpoint.parse_ns", parse_ns as f64);
    values.set("checkpoint.bytes", text.len() as f64);
    values.set("checkpoint.count", delta("kbt_service_checkpoints_total"));
    values.set("recover.plan_ns", plan_ns as f64);
    values.set("recover.open_ns", open_ns as f64);
    values.set(
        "recover.replayed_records",
        *scrape2
            .get("kbt_service_recovery_replayed_total")
            .unwrap_or(&0.0),
    );

    values.set(
        "logic.parse_sentence_ns",
        mean_of(&spans, "logic.parse_sentence"),
    );
    values.set("logic.ground_ns", mean_of(&spans, "logic.ground"));
    values.set("logic.ground_atoms", counts.ground_atoms as f64);
    values.set("solver.cnf_clauses", counts.cnf_clauses as f64);
    values.set(
        "solver.minimal_models_ns",
        mean_of(&spans, "solver.minimal_models"),
    );
    values.set("solver.models_found", counts.models_found as f64);
    values.set("core.transform_ns", mean_of(&spans, "core.transform"));
    values.set("core.worlds_in", counts.worlds_in as f64);
    values.set("core.worlds_out", counts.worlds_out as f64);
    values.set("core.strategy_grounding", counts.strategy_grounding as f64);
    values.set(
        "core.strategy_quantifier_free",
        counts.strategy_quantifier_free as f64,
    );
    values.set("core.strategy_datalog", counts.strategy_datalog as f64);

    values.set(
        "datalog.from_logic_ns",
        mean_of(&spans, "datalog.from_logic"),
    );
    values.set("datalog.stratify_ns", mean_of(&spans, "datalog.stratify"));
    values.set(
        "datalog.magic_rewrite_ns",
        mean_of(&spans, "datalog.magic_rewrite"),
    );
    values.set("engine.eval_ns", mean_of(&spans, "engine.eval"));
    values.set("engine.rounds", delta("kbt_engine_rounds_total"));
    values.set(
        "engine.derived_facts",
        delta("kbt_engine_derived_facts_total"),
    );
    values.set(
        "engine.index_probes",
        delta("kbt_engine_index_probes_total"),
    );
    values.set(
        "engine.tuples_scanned",
        delta("kbt_engine_tuples_scanned_total"),
    );
    values.set(
        "engine.probes_per_derived",
        per(
            delta("kbt_engine_index_probes_total"),
            delta("kbt_engine_derived_facts_total") as u64,
        ),
    );
    values.set("engine.eval_width2_ratio", width_ratio);
    values.set("engine.delta_ns", mean_of(&spans, "engine.delta"));
    values.set("engine.reused_facts", counts.reused_facts as f64);
    values.set("engine.rederived_facts", counts.rederived_facts as f64);
    values.set(
        "engine.table_lookup_ns",
        mean_of(&spans, "engine.table_lookup"),
    );
    values.set(
        "par.scopes_per_op",
        delta("kbt_par_scopes_total") / wire_ops,
    );
    values.set(
        "par.contended_scopes",
        delta("kbt_par_contended_scopes_total"),
    );
    values.set(
        "obs.trace_overhead_share",
        if plain_ns > 0 {
            (traced_ns as f64 - plain_ns as f64) / plain_ns as f64 * 100.0
        } else {
            0.0
        },
    );

    Ok(Traced {
        wire,
        replayed,
        mismatched,
        layer_self_ns,
        span_file,
        spans: spans.len(),
    })
}

/// The layers each workload is built to stress.
fn claimed_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "abox_read" => &["net", "command", "data"],
        "commit_stream" => &["service", "wal", "checkpoint", "engine", "data"],
        "update_sat" => &["logic", "solver", "core"],
        _ => &["datalog", "engine", "par"],
    }
}

pub fn print_layer_shares(traced: &Traced, workload: &str) {
    let total: u64 = traced.layer_self_ns.values().sum();
    println!(
        "spans: {} written to {}; attributed self time by layer:",
        traced.spans,
        traced.span_file.display()
    );
    for (layer, ns) in &traced.layer_self_ns {
        println!(
            "  {layer:<10} {:>6.1} %",
            *ns as f64 / total.max(1) as f64 * 100.0
        );
    }
    let claimed: u64 = claimed_layers(workload)
        .iter()
        .filter_map(|l| traced.layer_self_ns.get(*l))
        .sum();
    println!(
        "  claimed layers {:?}: {:.1} % of attributed self time",
        claimed_layers(workload),
        claimed as f64 / total.max(1) as f64 * 100.0
    );
    println!(
        "replay vs wire: {} responses compared, {} differ",
        traced.replayed, traced.mismatched
    );
}

pub fn selftest() -> Result<()> {
    let check = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
    // quotes are not tracked: the generated commands never put a bracket
    // inside a quoted constant, which is all this needs
    check(
        tau_payloads("project[e]; tau[a(x) -> b(x)]; tau[c(1) | d(2)]; project[b]")
            == vec!["a(x) -> b(x)", "c(1) | d(2)"],
        "tau payloads end at the matching bracket",
    )?;
    check(
        layer("engine.eval") == "engine" && layer("op") == "op",
        "layer of a span name",
    )?;
    // self time: a parent keeps what its children do not cover
    let span = |id, parent, start_ns, end_ns| Span {
        id,
        parent,
        op: 1,
        name: "x",
        start_ns,
        end_ns,
    };
    let own = self_times(&[
        span(1, 0, 0, 100),
        span(2, 1, 0, 30),
        span(3, 1, 30, 50),
        span(4, 2, 0, 40),
    ]);
    check(
        own == vec![50, 0, 20, 40],
        "self time is span minus children, floored at zero",
    )?;
    Ok(())
}
