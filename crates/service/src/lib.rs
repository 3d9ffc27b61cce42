//! # kbt-service — a concurrent MVCC knowledgebase service
//!
//! The paper's transformations `τ_φ`, `⊓`, `⊔`, `π` are functions
//! `KB → KB`; this crate serves them to many concurrent sessions over one
//! shared knowledgebase.  Everything below `kbt-service` was built for
//! this: `kbt-data`'s relations are copy-on-write (`O(1)` clones),
//! `kbt-engine`'s `IncrementalSession` keeps a fixpoint alive across fact
//! deltas, and `kbt-core`'s `Transformer` can carry a persistent
//! [`kbt_core::ChainSession`] between applications.
//!
//! ## The epoch / commit / snapshot contract
//!
//! The committed state — knowledgebase, vocabulary, transform registry,
//! statistics — is published in a [`kbt_data::EpochCell`] under a
//! monotonically increasing [`kbt_data::EpochId`], together with the read
//! state that depends on that epoch alone (the goal-directed rulebase and
//! the epoch's answer table, below).
//!
//! * **Readers never block on writers.**  [`Service::snapshot`] is an
//!   `O(1)` `Arc` clone of the committed cell.  Query evaluation —
//!   arbitrarily expensive transformation expressions included — runs
//!   entirely against that immutable snapshot; the copy-on-write relations
//!   underneath guarantee a later commit can never mutate what a snapshot
//!   observes.  Every read names the epoch it evaluated against.
//! * **Writers serialize; publication is atomic.**  All mutating commands
//!   (`ASSERT`, `RETRACT`, `DEFINE`, `APPLY`) funnel through one writer
//!   mutex: they parse against the authoritative vocabulary, compute the
//!   next knowledgebase, and publish it with a single atomic swap.  A
//!   reader sees epoch `n` in full or epoch `n+1` in full — never a torn
//!   mix, never an aborted commit's partial effects.
//! * **Registered chains are incremental across commits.**  `DEFINE`
//!   registers a transformation once; each `APPLY` advances a persistent
//!   chain session, so the engine re-derives only what the delta since the
//!   previous application demands (`reused_facts` in the responses makes
//!   the saving observable).  Results are byte-identical to from-scratch
//!   evaluation — `tests/service_concurrent.rs` enforces this against a
//!   sequential oracle under concurrent readers at widths 1 and 4.
//! * **The evaluation width is explicit.**  [`ServiceConfig::threads`] is
//!   resolved once at configuration time (fresh `KBT_THREADS` read or an
//!   explicit value) and passed down as a concrete number — the serving
//!   path never depends on `kbt_par::default_threads`, which freezes its
//!   first environment read for the process lifetime.
//!
//! ## The command language
//!
//! One command per line; `#` starts a comment.  Sentences reuse
//! [`kbt_logic::parser`] verbatim, and transformations are stored and
//! re-transmitted in the rendering of [`command::render_transform`] — the
//! `parse(pretty(φ)) == φ` round-trip identity (enforced in
//! `crates/logic/tests/roundtrip.rs`) is what makes that wire format safe.
//!
//! ```text
//! LOAD <path>                   run a script file
//! ASSERT <fact>, <fact>, …      commit: add ground facts to every world
//! RETRACT <fact>, …             commit: remove ground facts from every world
//! DEFINE <name> := <texpr>      register a named transformation
//! APPLY <name>                  commit: kb := T(kb), incrementally
//! QUERY CERTAIN <goal>          snapshot read: facts true in every world
//! QUERY POSSIBLE <goal>         snapshot read: facts true in some world
//! QUERY <texpr>                 snapshot read: evaluate an expression
//! EXPLAIN <query>               render the query's plan, evaluating nothing
//! PROFILE <query>               evaluate + per-rule fixpoint breakdown
//! STATS                         epoch, worlds, counters, registry
//! METRICS                       metrics text exposition (see Observability)
//! CHECKPOINT                    durable mode: write a checkpoint now
//! WALSTAT                       durable mode: log/checkpoint positions
//!
//! query := CERTAIN <goal> | POSSIBLE <goal> | <texpr>
//! goal  := <relation> | <relation> "(" arg ("," arg)* ")"
//! arg   := <const> | IDENT                 (IDENT names a free variable)
//! texpr := step (";" step)*
//! step  := tau[<sentence>] | glb | lub | id | project[<relation>, …]
//! fact  := <relation>(<const>, …)        const := NUMBER | 'name'
//! ```
//!
//! ## The read path: one evaluation, three views
//!
//! `QUERY`, `EXPLAIN` and `PROFILE` enter through one function (the
//! private `read` module): it opens the slow-query span, takes the
//! snapshot and parses the query **once**, then evaluates through a single
//! path whose only parameter is the view threaded down to the engine
//! ([`kbt_core::View`]) — none for `QUERY`; a plan-only view for `EXPLAIN`
//! (the same planner calls, the fixpoint rounds skipped — it is not a
//! served query and opens no span); a profiling view for `PROFILE` (the
//! same evaluation with a round-level observer recording each rule's
//! share).  What `EXPLAIN` shows is therefore what `QUERY` runs and what
//! `PROFILE` measures by construction, not by three implementations
//! agreeing.  A transformation expression goes through
//! `Transformer::apply_viewed`; a goal is resolved once into a goal plan
//! (stored / magic / materialize) and run through one per-world fold.
//!
//! The query is parsed against a clone of the snapshot's
//! [`kbt_data::Vocabulary`], which is a handle on shared, immutable names:
//! the clone is a reference-count bump, and a query that *interns* a name
//! (a fresh relation in a `tau[…]`, an unknown individual in a goal)
//! copies only the open pieces it appends to, never the whole dictionary
//! (`kbt_data::vocabulary`'s module docs).  That a
//! read's names never reach the committed vocabulary — and a rejected
//! write's neither — is the type's contract, not a defensive copy; a read
//! that interns nothing costs nothing for it.  The reply holds the answer
//! itself — the answer relation ([`service::FactRows`]) or the result
//! knowledgebase ([`service::WorldRows`]) with that vocabulary handle —
//! and the one encoder, [`net::proto::write_response`], renders each fact
//! ([`command::render_fact_into`]) into one reused line as it streams the
//! reply to the socket: no `String` per row, and rendering counts in the
//! net write, not in the read.
//!
//! A hypothetical read `QUERY project[edge]; tau[φ]; project[hits]` goes
//! through [`kbt_core::Transformer`]'s projection push-down (see its module
//! docs): on a one-world snapshot the Horn insertion derives only what the
//! last projection keeps — φ rewritten with magic sets around its kept
//! heads, every other relation left unmaterialised — so a read that asks
//! `reach(x, k) -> hits(x)` derives one slice of `reach` instead of its
//! closure (`closure_scan`'s non-linear read: ≈ 36 ms to ≈ 1 ms in
//! process).  `EXPLAIN` and `PROFILE` show the same rewritten plan, with
//! the invented predicates named `reach_fb` / `m_reach_fb` and one
//! `seed …` row per seed fact.  A read keeps no chain session, so a
//! sentence it inserts twice is pushed down each time, under every verb.
//!
//! The bare form `QUERY CERTAIN path` reads the **stored** facts of a
//! relation.  The bound form `QUERY CERTAIN path('a', x)` instead asks a
//! *goal*: the service re-derives the fixpoint of every registered `τ`
//! rulebase over each world — the same fixpoint `APPLY` would commit —
//! restricted to tuples matching the goal's constants (repeated variables
//! impose equality), and folds the worlds certain/possible as usual.  The
//! rulebase is assembled from the registry at each `DEFINE` (and when the
//! service opens) and published with every epoch until the next `DEFINE`:
//! fact commits and `APPLY`s publish the same one.  A bound goal must name
//! an existing relation with its exact arity (`unknown-relation` /
//! `arity-mismatch` otherwise) and never interns new symbols: an unknown
//! constant is a legal empty answer, not an error.
//!
//! Three strategies serve a bound goal, reported as `strategy=` in the
//! wire status line and counted per strategy in the metrics catalogue:
//!
//! * **`magic`** — the rulebase is adorned around the goal's bound/free
//!   pattern and rewritten with magic (demand) predicates
//!   (`kbt_datalog::magic_rewrite`), so the fixpoint only derives facts
//!   the goal can reach.  On a 10k-edge transitive closure a point query
//!   scans 21 tuples where materialization scans 110 000
//!   (`tests/magic_differential.rs` pins the gap by counts).
//! * **`tabled`** — answered from the epoch's subsumptive table
//!   (`kbt_engine::table::SubsumptiveTable`): a memoized call whose bound
//!   positions are a subset of the goal's (agreeing where shared) already
//!   contains every answer; the extra bound columns are filtered
//!   residually.  The table is keyed by packed call patterns and shared by
//!   the whole reader pool, but **each epoch owns its own**: it is
//!   published with the epoch and dropped with it, once the epoch is
//!   superseded and no reader holds it.  A memoized answer can never be
//!   read against another epoch, and a reader holding an older snapshot
//!   consults and fills that epoch's table, leaving the current one alone.
//!   Only `QUERY` consults and fills it: a memo hit would explain and
//!   profile nothing.
//! * **`materialize`** — no rulebase is registered: the stored facts,
//!   filtered.  The rulebase holds Horn rules, whose bodies are lists of
//!   atoms, so every goal over it has a magic rewrite.  Magic answers are
//!   byte-identical to the full fixpoint filtered the same way
//!   (`tests/magic_differential.rs` pins this at widths 1 and 4).
//!
//! `EXPLAIN` on a bound goal renders the adorned magic plan — the seed
//! facts and every guarded/magic rule with `p_bf` / `m_p_bf`-style
//! adorned names — and `PROFILE` evaluates it with the per-rule fixpoint
//! breakdown.
//!
//! ## The wire protocol
//!
//! [`net`] serves the same command language over TCP (`kbt-serve` /
//! `kbt-shell --connect`), one session per connection, all sessions
//! multiplexed onto one shared [`Service`] — so remote readers get the
//! same `O(1)` epoch snapshots and remote writers the same serialized
//! commit pipeline as in-process callers.  The protocol is plain UTF-8
//! lines, std-only on both ends.
//!
//! **Requests.**  One command per *logical* line: a command ends at the
//! first newline outside a `'…'` quoted constant (quoted constants may
//! contain newlines — the framer treats the next physical line as a
//! continuation), and comment lines (`#` after optional ASCII whitespace)
//! are line-scoped with quotes inert.  A `#id=<token> ` trace prefix (see
//! *Trace IDs* below) is not a comment: the command after it keeps its
//! quotes live, so `#id=q ASSERT note('a` + newline + `b')` is one
//! command.  [`command::split_lines`] and the framer step one scanner, so
//! a script means the same thing locally and over the wire.  Commands may
//! be pipelined:
//! responses come back in order, one per command.  A logical line is
//! capped at [`net::MAX_LINE_BYTES`] (configurable); an overflowing or
//! non-UTF-8 line is unrecoverable mid-stream, so the server answers
//! `ERR line-too-long` / `ERR invalid-utf8` and closes the connection.
//!
//! **Responses.**  Zero or more data lines, each prefixed `= `, then
//! exactly one status line.  This is the only text form of a
//! [`Response`]: [`net::proto::write_response`] writes it, and
//! `kbt-shell` prints it in local mode too.
//!
//! ```text
//! response := ("= " data "\n")* status "\n"
//! status   := "OK" (" id=" trace)? (" epoch=" N)? (" strategy=" name)?
//!             (" durable=" bool)? (" " key "=" value)*
//!           | "ERR " code " " message (" id=" trace)?
//! ```
//!
//! **Status key order.**  `OK` status keys appear in one fixed order —
//! the trace `id` first, then `epoch`, then `strategy` (bound goals),
//! then `durable` (durable commits), then the command-specific keys —
//! and every status line is produced by the one response builder in
//! [`net::proto`], so clients may parse positionally or by key.  Over
//! the wire the trace `id` is always present; `ERR` lines carry it
//! trailing, after the human-readable message.
//!
//! **Trace IDs.**  Every wire command carries a trace identifier, echoed
//! as the final `id=<trace>` field of its status line.  A client may
//! supply one by prefixing the command with `#id=<token> `, the token
//! running to the first ASCII whitespace (the `#` lead keeps traced lines
//! inert for parsers that do not know the prefix — and a bare `#id=` with
//! no token stays an ordinary comment); otherwise the server assigns
//! `t1`, `t2`, … from a deterministic per-session sequence.  The same ID is attached to the command's log records — one
//! `event=command` record per wire command (with the verb), plus the `id`
//! field on any `slow_query` record the command produces — so wire
//! traffic, logs and latency histograms correlate per request.
//!
//! Every payload line is escaped (`\` → `\\`, newline → `\n`, CR → `\r`)
//! so one response line is always one physical line.  Snapshot reads and
//! commits name the epoch they speak for in `epoch=N`.  Error codes are
//! stable: the service-level ones come from [`ServiceError::code`]
//! (`parse`, `unknown-transform`, `unknown-relation`, `unknown-constant`,
//! `arity-mismatch`, `script-depth`, `durability-disabled`,
//! `writer-poisoned`, `wal-corrupt`, `checkpoint-corrupt`,
//! `epoch-mismatch`, `data`, `logic`, `eval`, `io` — the consolidated
//! table with descriptions is [`error::CODE_TABLE`], exhaustiveness-tested
//! against the enum), and
//! the net layer adds
//! `line-too-long`, `invalid-utf8`, `idle-timeout` (session sat idle past
//! the server's timeout), `unavailable` (a connection that arrives while
//! [`net::NetConfig::max_sessions`] sessions are active is refused, not
//! queued) and `shutting-down` (graceful stop: `kbt-serve`
//! converts SIGINT/SIGTERM into a drain-and-join).  An `ERR` response
//! never ends the session except for those five net-level conditions.
//!
//! CI's `e2e-net` job replays `examples/net_client_session.kbt` through a
//! live server and diffs the transcript against
//! `tests/golden/net_session.golden`; `tests/net_concurrent.rs` checks
//! concurrent TCP readers against a sequential oracle byte-for-byte.
//!
//! ## Durability
//!
//! An in-memory service loses everything at process exit.  Configuring a
//! [`DurabilityConfig`] (builder: `.durable(dir)`; `kbt-serve
//! --data-dir DIR`) makes commits survive crashes, built from three
//! pieces that all live off the evaluation path:
//!
//! * **Write-ahead log.**  Every committed command appends one record to
//!   an append-only log (`wal.kbtl`) *before* the commit publishes:
//!   `len:u32le crc:u32le epoch:u64le command-utf8`, where the CRC-32
//!   covers the body and the command text is the canonical wire form the
//!   parser itself accepts — the log replays through the ordinary command
//!   pipeline, no second interpreter.  Appends happen under the writer
//!   mutex, so record order **is** epoch order by construction.
//! * **Fsync policy** ([`FsyncPolicy`]).  `Never` appends without
//!   flushing (the OS decides); `GroupCommit`, the default, batches
//!   concurrent committers under one fsync: one leader flushes the whole
//!   appended tail — at once when no other commit is in flight, else once
//!   those have appended — and every commit at or below the flushed epoch
//!   returns together.  `N` writers pay ~1 fsync, not `N`
//!   (`wal.rs::group_commit_wakes_every_follower` and
//!   `service.rs::concurrent_commits_share_fsyncs` assert fewer fsyncs
//!   than commits under 4 writers; `stackbench`'s `commit_stream` reports
//!   `wal.group_batch_mean`).  Commit responses report the outcome as `durable=true`
//!   (flushed before the reply) or `durable=false` (appended, not yet
//!   flushed); the key is absent on an in-memory service.
//! * **Epoch checkpoints.**  Every `checkpoint_every_n_commits` commits
//!   (or on the `CHECKPOINT` command) the service captures the committed
//!   MVCC snapshot — `O(1)`, copy-on-write, no writer stall — and a
//!   background thread serializes it to `checkpoint-<epoch>.kbtc`
//!   (written tmp + fsync + rename, newest two kept).  The file is binary
//!   (format version 2, [`checkpoint`]): the vocabulary in id order, the
//!   registry, and each world's relations as the sorted runs of `u32`
//!   cells they are in memory, under one IEEE CRC-32.  Loading checks the
//!   CRC and adopts each run after one order check — no sort, no per-row
//!   tuple — and indexes rebuild lazily on first probe.
//!   Checkpoints only bound replay length; the WAL alone is already
//!   complete.  So a checkpoint of another format version (the text
//!   format v1 of earlier builds) is refused at start-up with
//!   `checkpoint-corrupt` "unsupported checkpoint version", never skipped,
//!   and an operator may delete it: the restart then replays the whole
//!   log.
//!
//! **Recovery** ([`Service::open`]) loads the newest valid checkpoint,
//! scans the WAL, and replays the records after the checkpoint epoch
//! through the normal pipeline, verifying each replayed commit produces
//! exactly the epoch its record claims.  A *torn final* record — a crash
//! mid-append: partial bytes or a bad checksum ending exactly at EOF —
//! is truncated away and recovery proceeds; a corrupt *interior* record,
//! or a checkpoint/WAL epoch gap, is damage and refuses to open with the
//! typed `wal-corrupt` / `checkpoint-corrupt` / `epoch-mismatch` errors
//! rather than serve a silently wrong state.  `WALSTAT` reports the log
//! and checkpoint positions (records, bytes, fsyncs, durable epoch).
//!
//! **A restart resumes the closure it checkpointed.**  The log is never
//! truncated below its torn end, so next to the tail it still holds the
//! record of the checkpoint's own epoch `c`.  When that record is
//! `APPLY <name>`, `<name>`'s steps end in `project[R]; τ_φ`, `φ` takes
//! the Datalog fast path under the configured strategy, no head of `φ` is
//! in `R`, and the checkpointed knowledgebase `K` is one world, then
//! Theorem 4.8 puts `<name>`'s chain session in `K` already: its input is
//! `project[R](K)` and its fixpoint `K`'s head relations.  The open
//! installs that session ([`kbt_core::Transformer::resume_chain`]) before
//! it replays the tail, so the tail's first `APPLY <name>` advances it by
//! its delta instead of re-deriving the closure — over `stackbench`'s
//! `commit_stream` state, 0 full evaluations and 464 derived facts where
//! a rebuild runs 1 and derives 110 464 (`tests/resumed_recovery.rs`).
//! Any other state replays as it always did, and its first `APPLY`
//! evaluates in full; `kbt_service_recovery_chains_seeded_total` says
//! which happened ([`recover`]'s module docs have the details).
//! `tests/durability_differential.rs` pins recovery against an in-memory
//! oracle — randomized command streams, crashes at commit boundaries,
//! torn-tail truncation injection, interior corruption, a damaged newest
//! checkpoint — at widths 1 and 4, and CI's `e2e-net` job SIGKILLs a
//! durable server mid-session and asserts the restarted one serves the
//! same answers.  `tests/checkpoint_codec.rs` holds the checkpoint codec
//! to a round trip over random layered knowledgebases and to typed
//! refusals of truncated and byte-flipped files.
//!
//! ## Observability
//!
//! Every serving layer records into `kbt-obs` ([`kbt_obs::Registry`]):
//! each [`Service`] owns a **per-instance** registry (two services never
//! share a counter — essential for tests and embedded use), while the
//! library crates underneath (`kbt-data`, `kbt-core`, `kbt-engine`,
//! `kbt-datalog`, `kbt-par`, `kbt-solver`) record into the process-global
//! one.  The `METRICS` command merges both
//! and returns a Prometheus-style text exposition, one `= `-prefixed data
//! line per sample over the wire:
//!
//! ```text
//! exposition := family*
//! family     := help? "# TYPE " base-name " " ("counter"|"gauge"|"histogram") "\n" sample*
//! help       := "# HELP " base-name " " description "\n"
//! sample     := series-name " " integer "\n"
//! ```
//!
//! Every series in the catalogue below carries a `# HELP` description
//! (CI's doc-drift gate asserts this against a live scrape).
//!
//! Histograms are 64-bucket log-scale cells; they expand into cumulative
//! `<base>_bucket{le="2^i - 1"}` samples (nanoseconds for `_ns` series), a
//! `+Inf` bucket and `_sum` / `_count` samples.  Counters and byte-size
//! style histograms record **always** (they are deterministic inputs and
//! the truth `STATS` reports); only *timing spans* are gated by the
//! registry's enabled flag — one relaxed load when disabled — and
//! `tests/metrics_differential.rs` proves fixpoints and `EngineStats` stay
//! byte-identical at widths 1 and 4 whether metrics are on or off.
//!
//! The catalogue (CI scrapes a live server and asserts every name below
//! appears — keep this list in sync with [`metrics`]):
//!
//! * `kbt_service_commits_total` (counter): committed epochs.
//! * `kbt_service_applies_total` (counter): `APPLY` commits.
//! * `kbt_service_defines_total` (counter): `DEFINE` commands.
//! * `kbt_service_queries_total` (counter): snapshot reads served.
//! * `kbt_service_queries_magic_total` (counter): bound goals answered
//!   through the magic-set rewrite.
//! * `kbt_service_queries_tabled_total` (counter): bound goals answered
//!   from the subsumptive table.
//! * `kbt_service_queries_materialize_total` (counter): bound goals
//!   answered by full materialization plus a filter.
//! * `kbt_service_snapshots_total` (counter): MVCC snapshots taken.
//! * `kbt_service_epoch` (gauge): the committed epoch.
//! * `kbt_service_held_epochs` (gauge): past epochs still pinned by readers.
//! * `kbt_service_held_epoch_lag` (gauge): age of the oldest pinned epoch.
//! * `kbt_service_commit_parse_ns` (histogram): commit phase — parse.
//! * `kbt_service_commit_apply_ns` (histogram): commit phase — apply/evaluate.
//! * `kbt_service_commit_publish_ns` (histogram): commit phase — publish.
//! * `kbt_service_commit_batch_facts` (histogram): facts per fact commit.
//! * `kbt_service_query_ns` (histogram): textual `QUERY`/`PROFILE`
//!   latency (the slow-query span): parse and evaluation.  A `QUERY`
//!   reply's facts are rendered as it is written, after the span closes.
//! * `kbt_service_wal_records_total` (counter): WAL records appended.
//! * `kbt_service_wal_bytes_total` (counter): WAL bytes appended.
//! * `kbt_service_wal_fsyncs_total` (counter): WAL fsyncs issued.
//! * `kbt_service_group_commit_batch` (histogram): commits made durable
//!   per fsync (group-commit batch size).
//! * `kbt_service_checkpoints_total` (counter): checkpoints written.
//! * `kbt_service_checkpoint_write_ns` (histogram): time to render, write
//!   and fsync one checkpoint, on the background thread or under
//!   `CHECKPOINT`.
//! * `kbt_service_checkpoint_load_ns` (histogram): time a durable open
//!   spends reading and decoding the checkpoint it recovers from — the
//!   part of recovery before the WAL tail replays.
//! * `kbt_service_recovery_replayed_total` (counter): WAL records
//!   replayed during recovery.
//! * `kbt_service_recovery_replay_ns` (histogram): time a durable open
//!   spends replaying the WAL tail through the commit pipeline — the part
//!   of recovery after the checkpoint is loaded, a resumed chain session
//!   included.
//! * `kbt_service_recovery_chains_seeded_total` (counter): chain sessions
//!   a durable open resumed from the checkpoint instead of re-deriving
//!   them at the first replayed `APPLY` — 1 when a restart resumed, 0 when
//!   it rebuilt (see *Durability*).
//! * `kbt_net_sessions_accepted_total` (counter): connections accepted.
//! * `kbt_net_sessions_active` (gauge): sessions being served now.
//! * `kbt_net_sessions_rejected_total` (counter): refused at capacity.
//! * `kbt_net_sessions_idle_closed_total` (counter): closed by idle timeout.
//! * `kbt_net_command_ns` (histogram): per-verb wire command latency,
//!   labelled `{verb="nop"|"load"|"assert"|"retract"|"define"|"apply"|
//!   "query"|"stats"|"metrics"|"explain"|"profile"|"checkpoint"|
//!   "walstat"|"error"}` — all pre-registered at server start.  It times
//!   the execution and the writing of the reply into the session's
//!   buffer, so a read's rendering counts here.
//! * `kbt_net_framing_errors_total` (counter): lines the framer refused.
//! * `kbt_engine_evals_total` (counter): from-scratch fixpoint evaluations.
//! * `kbt_engine_deltas_total` (counter): incremental delta applications.
//! * `kbt_engine_rounds_total` (counter): semi-naive rounds run.
//! * `kbt_engine_derived_facts_total` (counter): facts derived.
//! * `kbt_engine_index_probes_total` (counter): index probes.
//! * `kbt_engine_tuples_scanned_total` (counter): tuples scanned.
//! * `kbt_engine_table_hits` (counter): subsumptive-table lookups answered
//!   from a memoized call.
//! * `kbt_engine_table_misses` (counter): subsumptive-table lookups that
//!   found no memoized call.
//! * `kbt_engine_table_evictions` (counter): memoized calls dropped with
//!   their epoch, once it is superseded and no reader holds it.
//! * `kbt_engine_index_builds_total` (counter): indexes and membership
//!   tables built over stored rows — once per stored run and mask (once
//!   per run for a dense run's first-column offsets, which serve its
//!   leading-column probes and, at arity ≤ 2, its membership; the run
//!   keeps them for every later read), plus each private table built
//!   over a tail: an evaluation's own rows, or the small delta a stored
//!   relation holds over its base run, which every read of the epoch
//!   indexes for itself.  A repeated read of an unchanged flat relation
//!   adds none.
//! * `kbt_engine_shared_index_bytes` (gauge): heap bytes of the indexes
//!   (chained tables and first-column offsets) cached on stored runs —
//!   those of the current epoch and of every epoch still pinned; it falls
//!   as superseded runs are freed.
//! * `kbt_engine_eval_ns` (histogram): full evaluation latency.
//! * `kbt_engine_round_ns` (histogram): per-round latency (join, sort
//!   and commit).
//! * `kbt_engine_load_ns` (histogram): getting ready to run — one sample
//!   for wrapping the relations the program names, one for planning it and
//!   fetching (or building) the indexes and membership tables demanded.
//! * `kbt_engine_join_ns` (histogram): per-round latency of running the
//!   round's plans into pending bags.
//! * `kbt_engine_sort_ns` (histogram): per-round latency of sorting and
//!   deduplicating the pending bags into runs.
//! * `kbt_engine_commit_ns` (histogram): per-round latency of the bulk
//!   append alone.
//! * `kbt_engine_materialize_ns` (histogram): merging an evaluation's
//!   storage back into a database.
//! * `kbt_engine_delta_ns` (histogram): per-delta latency.
//! * `kbt_data_rows_copied_total` (counter): stored rows written into
//!   fresh base runs by delta folds and copy-on-write unsharing — a commit
//!   that composes a few facts into a relation's delta copies none, and
//!   neither does a read; an engine relation's compaction re-seats it on
//!   its own contents, so the fold it may make is counted here too.
//! * `kbt_data_names_copied_total` (counter): constant names written
//!   into fresh vocabulary chunks and index levels, by copy-on-write
//!   unsharing and by level merges — interning a name into a vocabulary of
//!   *n* copies O(log n) amortised, not *n*.
//! * `kbt_core_chain_diff_ns` (histogram): one `APPLY` chain step's diff
//!   of its input against the previous step's.
//! * `kbt_core_chain_assemble_ns` (histogram): one `APPLY` chain step's
//!   result assembly — the part of `APPLY` outside `kbt_engine_delta_ns`
//!   besides the diff.
//! * `kbt_datalog_demand_rewrites_total` (counter): hypothetical
//!   `tau[φ]; project[K]` reads pushed down by one demand rewrite.
//! * `kbt_datalog_demand_rewrite_ns` (histogram): latency of one demand
//!   rewrite.
//! * `kbt_par_scopes_total` (counter): engine rounds that asked for
//!   helper threads (a `kbt_par::map` wider than 1 over more than one
//!   task).
//! * `kbt_par_contended_scopes_total` (counter): of those, the ones that
//!   ran caller-only, with no helpers, because another round had its
//!   helpers out.
//! * `kbt_solver_solves_total` (counter): SAT searches run — one per
//!   satisfiability call, and per minimal model a minimal-model
//!   enumeration looks for (each search lands on a minimal model).
//! * `kbt_solver_decisions_total` (counter): branching decisions taken.
//! * `kbt_solver_propagations_total` (counter): assigned literals whose
//!   watch lists were walked.
//! * `kbt_solver_conflicts_total` (counter): propagations that falsified a
//!   clause.
//! * `kbt_solver_learned_clauses_total` (counter): clauses learned from
//!   conflicts (one per conflict above the root).
//! * `kbt_solver_minimal_models_total` (counter): minimal sets returned by
//!   minimal-model enumerations (flip-sets and new-parts of non-Horn
//!   updates).
//!
//! **Span taxonomy.**  Timed spans feed the `_ns` histograms above:
//! `eval` / `load` / `round` / `join` / `sort` / `commit` / `materialize` /
//! `delta` (engine: an `eval` is its `load`s, its `round`s — each a `join`,
//! a `sort` and a `commit` — and one `materialize`), `demand_rewrite`
//! (the push-down of a hypothetical read), `commit_parse` / `commit_apply` /
//! `commit_publish` (the commit pipeline), `slow_query` (textual queries;
//! carries the query text and, over the wire, the trace `id`), and the
//! per-verb net command spans.  With `kbt-serve --log-format text|json` a
//! structured stderr sink receives session lifecycle events
//! (`session_open` / `session_close`, with the peer address), one
//! `command` event per wire command (with `id` and `verb`) and — with
//! `--slow-query-ms N` — every span at or over the threshold, e.g.
//! `event=slow_query elapsed_ns=12345678 query="QUERY CERTAIN path"
//! id=t7`.  `STATS` and `METRICS` read the same counter cells; neither
//! ever perturbs evaluation results.
//!
//! **EXPLAIN / PROFILE rows.**  Both answer with one data line per plan
//! row.  An `EXPLAIN` row is fully deterministic:
//!
//! ```text
//! <rule> :: <plan>
//! ```
//!
//! where `<rule>` is the source `τ_φ` clause (user vocabulary) and
//! `<plan>` the engine's join-plan rendering (`scan R(…)`,
//! `probe R mask=0b… key=(…)`, `d<rel>:` for delta variants).  A
//! `PROFILE` row inserts the rule's share of the fixpoint work between
//! rule and plan:
//!
//! ```text
//! <rule> | rounds=<n> derived=<n> probes=<n> scanned=<n> elapsed_ns=<n> :: <plan>
//! ```
//!
//! `elapsed_ns` is wall-clock and therefore the only nondeterministic
//! field; it appears in data rows only — status lines (`OK epoch=…
//! rows=…` / `OK epoch=… worlds=… rows=…`) stay deterministic, and
//! profiled evaluation returns byte-identical results, statistics and
//! epochs to the unobserved run of the same path
//! (`tests/profile_differential.rs` pins this at widths 1 and 4).  Operators without a Datalog rule plan —
//! lattice steps, non-Horn insertions, `CERTAIN`/`POSSIBLE` folds — render
//! a single descriptive row marked `(no rule plan)`.
//!
//! ## Example
//!
//! ```
//! use kbt_service::{Service, ServiceConfig, Response};
//!
//! let s = Service::new(ServiceConfig::builder().threads(1).build());
//! s.execute("ASSERT edge(1, 2), edge(2, 3)").unwrap();
//! s.execute("DEFINE tc := tau[(forall x0 x1. edge(x0, x1) -> path(x0, x1)) & \
//!            (forall x0 x1 x2. path(x0, x1) & edge(x1, x2) -> path(x0, x2))]").unwrap();
//! s.execute("APPLY tc").unwrap();
//! match s.execute("QUERY CERTAIN path").unwrap() {
//!     // the reply holds the answer relation; rows become text on demand
//!     Response::Facts { facts, .. } => {
//!         assert_eq!(facts.len(), 3);
//!         assert_eq!(facts.render(), ["path(1, 2)", "path(1, 3)", "path(2, 3)"]);
//!     }
//!     _ => unreachable!(),
//! }
//! ```

pub mod checkpoint;
pub mod command;
pub mod config;
pub mod error;
pub mod metrics;
pub mod net;
mod read;
pub mod recover;
pub mod service;
pub mod wal;

pub use command::{parse_transform, render_transform, QueryCmd, Verb};
pub use config::{DurabilityConfig, FsyncPolicy, ServiceConfig, ServiceConfigBuilder};
pub use error::{Result, ServiceError};
pub use metrics::{NetMetrics, ServiceMetrics};
pub use net::{Client, LineFramer, NetConfig, NetServer, WireResponse};
pub use service::{
    CommittedState, FactRows, QueryResult, Response, Service, ServiceStats, SessionCounters,
    SessionSnapshot, Snapshot, StatsReport, TransformInfo, WorldRows,
};
