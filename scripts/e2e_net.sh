#!/usr/bin/env bash
# e2e_net.sh — end-to-end exercise of the network front, CI's e2e-net job.
#
# Starts kbt-serve on loopback, waits for its readiness line (NOT a TCP
# probe: a probe connection would inflate the session counters and make
# the STATS golden nondeterministic), drives a scripted session through
# kbt-shell --connect, shuts the server down with SIGTERM (exercising the
# graceful signal path — a non-zero exit here fails the job), and diffs
# the client transcript against the committed golden file.
#
# Usage: scripts/e2e_net.sh [target-dir]   (default: target)

set -euo pipefail
cd "$(dirname "$0")/.."

TARGET=${1:-target}
BIN="$TARGET/release"
PORT=${KBT_E2E_PORT:-7341}
WORK=$(mktemp -d)
SERVE_PID=""
DURABLE_PID=""
trap 'kill "$SERVE_PID" "$DURABLE_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

for bin in kbt-serve kbt-shell; do
    [ -x "$BIN/$bin" ] || { echo "missing $BIN/$bin (cargo build --release first)" >&2; exit 1; }
done

# --threads 2 pins the width the STATS line reports, keeping the
# transcript machine-independent; --log-format json exercises the
# structured log sink end to end (the transcript on stdout is unaffected
# — the sink writes to stderr, i.e. serve.log)
"$BIN/kbt-serve" --addr "127.0.0.1:$PORT" --threads 2 --log-format json >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 100); do
    grep -q "listening on" "$WORK/serve.log" 2>/dev/null && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "kbt-serve died:" >&2; cat "$WORK/serve.log" >&2; exit 1; }
    sleep 0.1
done
grep -q "listening on" "$WORK/serve.log" || { echo "kbt-serve never became ready" >&2; cat "$WORK/serve.log" >&2; exit 1; }

"$BIN/kbt-shell" --connect "127.0.0.1:$PORT" examples/net_client_session.kbt >"$WORK/transcript.txt"

# METRICS scrape over the live socket.  The exposition is load-dependent
# (latency histograms, session counters), so it is asserted structurally
# rather than diffed: the scrape must parse as `= `-framed data plus an
# OK status, and every metric name documented in the service crate's
# Observability catalogue must actually appear — a doc-drift gate in
# both directions (renamed metric fails here; undocumented ones are the
# code reviewer's job).  Runs after the transcript capture so the extra
# session never perturbs the STATS golden, and before SIGTERM because it
# needs the live server.
echo "METRICS" >"$WORK/metrics.kbt"
"$BIN/kbt-shell" --connect "127.0.0.1:$PORT" "$WORK/metrics.kbt" >"$WORK/metrics.txt"
grep -q '^OK id=t1 epoch=' "$WORK/metrics.txt" || {
    echo "METRICS did not return an OK status:" >&2; cat "$WORK/metrics.txt" >&2; exit 1
}
CATALOGUE=$(sed -n 's/^\/\/! \* `\(kbt_[a-z_]*\)`.*/\1/p' crates/service/src/lib.rs)
[ -n "$CATALOGUE" ] || { echo "no metric catalogue found in crates/service/src/lib.rs" >&2; exit 1; }
MISSING=0
for name in $CATALOGUE; do
    grep -q "^= .*$name" "$WORK/metrics.txt" || { echo "documented metric missing from scrape: $name" >&2; MISSING=1; }
    # every catalogued family must carry a # HELP description in the exposition
    grep -q "^= # HELP $name " "$WORK/metrics.txt" || { echo "documented metric has no # HELP line: $name" >&2; MISSING=1; }
done
[ "$MISSING" -eq 0 ] || { echo "--- scrape ---" >&2; cat "$WORK/metrics.txt" >&2; exit 1; }
echo "e2e-net: METRICS scrape covers all $(echo "$CATALOGUE" | wc -l) documented metrics (with # HELP)"

# PROFILE over the live socket: per-rule rows carry an elapsed_ns field, so
# the response is asserted structurally instead of goldened.
echo "PROFILE project[flight]; tau[(forall x0 x1. flight(x0, x1) -> reach(x0, x1)) & (forall x0 x1 x2. reach(x0, x1) & flight(x1, x2) -> reach(x0, x2))]; lub" >"$WORK/profile.kbt"
"$BIN/kbt-shell" --connect "127.0.0.1:$PORT" "$WORK/profile.kbt" >"$WORK/profile.txt"
grep -q '^= .*elapsed_ns=' "$WORK/profile.txt" || {
    echo "PROFILE returned no per-rule rows:" >&2; cat "$WORK/profile.txt" >&2; exit 1
}
grep -Eq '^OK id=t1 epoch=[0-9]+ worlds=[0-9]+ rows=[0-9]+$' "$WORK/profile.txt" || {
    echo "PROFILE status line malformed:" >&2; cat "$WORK/profile.txt" >&2; exit 1
}
echo "e2e-net: PROFILE returns per-rule rows over the wire"

# goal-directed bound queries: the first bound goal must go through the
# magic rewrite (strategy=magic on its status line), the identical repeat
# on the same snapshot must be answered from the subsumptive table
# (strategy=tabled), and the table hit must be visible in a METRICS
# scrape — the observable half of the tabling contract (eviction on
# commit is pinned by the service's unit tests).
cat >"$WORK/bound.kbt" <<'EOF'
ASSERT edge(1, 2), edge(2, 3)
DEFINE tc := tau[(forall x0 x1. edge(x0, x1) -> path(x0, x1)) & (forall x0 x1 x2. path(x0, x1) & edge(x1, x2) -> path(x0, x2))]
QUERY CERTAIN path(1, x)
QUERY CERTAIN path(1, x)
METRICS
EOF
"$BIN/kbt-shell" --connect "127.0.0.1:$PORT" "$WORK/bound.kbt" >"$WORK/bound.txt"
grep -q 'strategy=magic' "$WORK/bound.txt" || {
    echo "first bound query did not report strategy=magic:" >&2; cat "$WORK/bound.txt" >&2; exit 1
}
grep -q 'strategy=tabled' "$WORK/bound.txt" || {
    echo "repeated bound query did not report strategy=tabled:" >&2; cat "$WORK/bound.txt" >&2; exit 1
}
grep -Eq '^= kbt_engine_table_hits [1-9]' "$WORK/bound.txt" || {
    echo "subsumptive-table hit counter not visible in METRICS:" >&2; cat "$WORK/bound.txt" >&2; exit 1
}
grep -Eq '^= kbt_service_queries_magic_total [1-9]' "$WORK/bound.txt" || {
    echo "per-strategy magic counter not visible in METRICS:" >&2; cat "$WORK/bound.txt" >&2; exit 1
}
echo "e2e-net: bound queries report their strategy and hit the subsumptive table"

# client-supplied trace IDs: a '#id=<token> ' prefix must round-trip into
# the status line and into the JSON log's per-command event record.  The
# shell skips comment lines client-side, so this goes over a raw socket.
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf '#id=ci-e2e-42 STATS\n' >&3
TRACED=""
while IFS= read -r line <&3; do
    case "$line" in OK*|ERR*) TRACED="$line"; break ;; esac
done
# the prefix leaves the command's quotes live: the quoted newline continues
# the command instead of cutting it in two
printf "#id=ci-q ASSERT note('ci\nq')\n" >&3
TRACED_Q=""
while IFS= read -r line <&3; do
    case "$line" in OK*|ERR*) TRACED_Q="$line"; break ;; esac
done
exec 3<&- 3>&-
# OK lines lead with the trace ID (fixed key order); ERR lines trail it
case "$TRACED" in
    "OK id=ci-e2e-42"*|*" id=ci-e2e-42") echo "e2e-net: client trace ID echoes on the status line" ;;
    *) echo "client trace ID did not round-trip (got: $TRACED)" >&2; exit 1 ;;
esac
case "$TRACED_Q" in
    "OK id=ci-q "*) echo "e2e-net: a traced command keeps its quoted newline" ;;
    *) echo "traced command with a quoted newline was cut (got: $TRACED_Q)" >&2; exit 1 ;;
esac

# kill-and-recover: a durable server is SIGKILLed mid-session — no
# graceful path, no checkpoint-on-exit — and a restart on the same
# --data-dir must recover the committed epoch and serve the same answers.
DPORT=$((PORT + 1))
DDIR="$WORK/data"
"$BIN/kbt-serve" --addr "127.0.0.1:$DPORT" --threads 2 \
    --data-dir "$DDIR" --fsync group --checkpoint-every 3 >"$WORK/durable.log" 2>&1 &
DURABLE_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" "$WORK/durable.log" 2>/dev/null && break
    kill -0 "$DURABLE_PID" 2>/dev/null || { echo "durable kbt-serve died:" >&2; cat "$WORK/durable.log" >&2; exit 1; }
    sleep 0.1
done
cat >"$WORK/durable.kbt" <<'EOF'
ASSERT edge(1, 2), edge(2, 3)
DEFINE tc := tau[(forall x0 x1. edge(x0, x1) -> path(x0, x1)) & (forall x0 x1 x2. path(x0, x1) & edge(x1, x2) -> path(x0, x2))]
APPLY tc
ASSERT edge(3, 4)
APPLY tc
CHECKPOINT
WALSTAT
QUERY CERTAIN path
EOF
"$BIN/kbt-shell" --connect "127.0.0.1:$DPORT" "$WORK/durable.kbt" >"$WORK/durable1.txt"
grep -q 'durable=true' "$WORK/durable1.txt" || {
    echo "group-commit commits did not report durable=true:" >&2; cat "$WORK/durable1.txt" >&2; exit 1
}
grep -Eq '^OK id=t[0-9]+ epoch=5 file=checkpoint-' "$WORK/durable1.txt" || {
    echo "CHECKPOINT did not report its file:" >&2; cat "$WORK/durable1.txt" >&2; exit 1
}
grep -Eq '^OK id=t[0-9]+ epoch=5 policy=group-commit records=5 ' "$WORK/durable1.txt" || {
    echo "WALSTAT status malformed:" >&2; cat "$WORK/durable1.txt" >&2; exit 1
}
kill -KILL "$DURABLE_PID"
wait "$DURABLE_PID" 2>/dev/null || true
"$BIN/kbt-serve" --addr "127.0.0.1:$DPORT" --threads 2 \
    --data-dir "$DDIR" --fsync group --checkpoint-every 3 >"$WORK/durable2.log" 2>&1 &
DURABLE_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" "$WORK/durable2.log" 2>/dev/null && break
    kill -0 "$DURABLE_PID" 2>/dev/null || { echo "restarted kbt-serve died:" >&2; cat "$WORK/durable2.log" >&2; exit 1; }
    sleep 0.1
done
grep -q "recovered epoch e5 from" "$WORK/durable2.log" || {
    echo "restart did not recover epoch 5:" >&2; cat "$WORK/durable2.log" >&2; exit 1
}
printf 'QUERY CERTAIN path\n' >"$WORK/durable-check.kbt"
"$BIN/kbt-shell" --connect "127.0.0.1:$DPORT" "$WORK/durable-check.kbt" >"$WORK/durable2.txt"
# the recovered answers must be byte-identical to the pre-kill query
# (data lines + epoch/count status; only the trace sequence differs)
tail -n +"$(($(wc -l <"$WORK/durable1.txt") - $(wc -l <"$WORK/durable2.txt") + 1))" "$WORK/durable1.txt" \
    | sed 's/ id=t[0-9]*//' >"$WORK/expect-path.txt"
sed 's/ id=t[0-9]*//' "$WORK/durable2.txt" >"$WORK/got-path.txt"
diff -u "$WORK/expect-path.txt" "$WORK/got-path.txt" || {
    echo "recovered QUERY CERTAIN path differs from the pre-kill answer" >&2; exit 1
}
kill -TERM "$DURABLE_PID"
wait "$DURABLE_PID"
echo "e2e-net: SIGKILL + restart recovers the committed epoch and answers"

# graceful shutdown on signal: SIGTERM must yield exit code 0
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
echo "--- kbt-serve log ---"
cat "$WORK/serve.log"

# the JSON log sink must have recorded the session lifecycle
grep -q '"event":"session_open"' "$WORK/serve.log" || {
    echo "no session_open event in the JSON log" >&2; exit 1
}
grep -q '"event":"session_close"' "$WORK/serve.log" || {
    echo "no session_close event in the JSON log" >&2; exit 1
}

# … and correlated the client-supplied trace ID with its command record
grep -q '"event":"command"' "$WORK/serve.log" || {
    echo "no per-command event records in the JSON log" >&2; exit 1
}
grep '"event":"command"' "$WORK/serve.log" | grep -q '"id":"ci-e2e-42"' || {
    echo "client trace ID missing from the JSON log command records" >&2; exit 1
}

diff -u tests/golden/net_session.golden "$WORK/transcript.txt" || {
    echo "transcript differs from tests/golden/net_session.golden" >&2
    exit 1
}
echo "e2e-net: transcript matches the golden file"
