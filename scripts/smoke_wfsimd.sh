#!/usr/bin/env bash
# Smoke test for the wfsimd HTTP service, in five phases.
#
# Phase 1 (RAM-only): start an empty server, ingest a three-workflow fixture
# corpus over the NDJSON batch endpoint, run one search, and assert a 200
# with non-empty results naming the expected twin. The index is not consulted:
# the default measure has an exact score bound, so the -index server's reply
# reports no "pruned" and lists what a server started without -index lists.
# Then two checks that also run at 4 shards in phase 3. Inline equals stored: the stored body of a
# workflow posted as an inline query must return the result list its query_id
# returns, and /v1/stats must size the symbol table and the similarity
# memo those searches filled. The cache check: search by query_id, commit a
# batch that touches other IDs, repeat the search — it must still hit the
# cache, miss at most once per workflow the batch wrote, and return the same
# result list as a -cache 0 server after the same ingest and batch; the
# duplicate pairs (threshold 0.1) and the clusters, whose pair walk scores
# cross-shard pairs through one shard's cache, must match that server's too.
#
# Phase 2 (durability): start a server with a -data directory, ingest the
# same fixture, record the generation and the search hit, SIGTERM the
# daemon, restart it over the same directory, and assert the pre-kill
# generation and search result survive the restart.
#
# Phase 2b (compaction, then SIGKILL): start a server with -compact-records 3
# over a fresh -data directory, ingest eleven one-workflow batches, assert
# /v1/stats counts at least three compactions, SIGKILL the daemon, restart it
# and assert the generation survived and that workflows from before the last
# compaction and from the log tail after it can both be fetched.
#
# Phase 3 (sharded durability): the same kill-and-restart cycle with
# -shards 4: ingest, assert the per-shard generation vector shows up in
# stats, SIGTERM, restart with the same shard count and assert the vector
# and the search hit survive; a restart with a different -shards value must
# be refused — in both directions: the sharded directory without -shards,
# and phase 2's flat directory with -shards 4.
#
# Phase 4 (older writers): boot a server over a copy of each golden data
# directory (internal/storage/testdata/golden: the same fixture corpus as
# written by older binaries — the "…1" magics flat, and a crash-stopped
# 2-shard directory whose files still carry persisted symbol tables) and
# assert a search returns the same results phase 1 got from a fresh ingest.
#
# Run from the repository root: ./scripts/smoke_wfsimd.sh
set -euo pipefail

PORT="${WFSIMD_SMOKE_PORT:-8791}"
ADDR="127.0.0.1:$PORT"
REFADDR="127.0.0.1:$((PORT + 1))" # the cache check's -cache 0 reference server
WORK="$(mktemp -d)"
BIN="$WORK/wfsimd"
DATA="$WORK/data"
PID=""
REFPID=""

go build -o "$BIN" ./cmd/wfsimd
trap 'for p in $PID $REFPID; do kill "$p" 2>/dev/null || true; done' EXIT

# The helpers talk to $ADDR unless given another address.
wait_healthy() {
  for _ in $(seq 1 50); do
    if curl -fsS "http://${1:-$ADDR}/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "smoke: server never became healthy" >&2
  exit 1
}

# post_batch ADDR: NDJSON mutation batch from stdin.
post_batch() {
  curl -fsS -X POST -H 'Content-Type: application/x-ndjson' --data-binary @- \
    "http://$1/v1/workflows:batch" >/dev/null
}

ingest_fixture() {
  # Fixture corpus: a and b share a module label; c is unrelated.
  post_batch "${1:-$ADDR}" <<'EOF'
{"op":"add","workflow":{"id":"a","annotations":{"title":"blast a"},"modules":[{"id":"m1","label":"fetch_sequence","type":"wsdl"},{"id":"m2","label":"run_blast","type":"wsdl"}],"edges":[{"from":0,"to":1}]}}
{"op":"add","workflow":{"id":"b","annotations":{"title":"blast b"},"modules":[{"id":"m1","label":"fetch_sequence","type":"wsdl"},{"id":"m2","label":"plot_hits","type":"wsdl"}],"edges":[{"from":0,"to":1}]}}
{"op":"add","workflow":{"id":"c","annotations":{"title":"imaging"},"modules":[{"id":"m1","label":"load_image","type":"tool"},{"id":"m2","label":"segment_cells","type":"tool"}],"edges":[{"from":0,"to":1}]}}
EOF
}

search_a() {
  curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"query_id":"a","k":5,"deadline_ms":5000}' \
    "http://${1:-$ADDR}/v1/search"
}

result_list() { sed -n 's/.*"results":\(\[[^]]*\]\).*/\1/p'; }

# churn_batch ADDR: writes two workflows, neither of them a or b — c now
# shares a label with a, d is new and shares one too.
churn_batch() {
  post_batch "$1" <<'EOF'
{"op":"replace","workflow":{"id":"c","annotations":{"title":"imaging"},"modules":[{"id":"m1","label":"run_blast","type":"tool"},{"id":"m2","label":"segment_cells","type":"tool"}],"edges":[{"from":0,"to":1}]}}
{"op":"add","workflow":{"id":"d","annotations":{"title":"blast d"},"modules":[{"id":"m1","label":"fetch_sequence","type":"wsdl"},{"id":"m2","label":"render_tree","type":"wsdl"}],"edges":[{"from":0,"to":1}]}}
EOF
}

# pair_scan ADDR: the duplicate pairs at threshold 0.1, then the clusters at
# minimum similarity 0.3, one line each.
pair_scan() {
  curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"threshold":0.1,"deadline_ms":5000}' "http://$1/v1/duplicates" |
    sed -n 's/.*"pairs":\(\[[^]]*\]\).*/\1/p'
  curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"min_similarity":0.3,"deadline_ms":5000}' "http://$1/v1/cluster" |
    sed -n 's/.*"clusters":\(\[.*\]\),"skipped".*/\1/p'
}

# search_inc BODY: a search over the whole corpus, the query itself included.
search_inc() {
  curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "{$1,\"k\":5,\"include_query\":true,\"deadline_ms\":5000}" \
    "http://$ADDR/v1/search"
}

# inline_matches_stored: over the freshly ingested fixture on $ADDR. The
# server scores an inline query on a private copy it resolves against its
# symbol table, so a's stored body posted inline must rank exactly as
# query_id a does.
inline_matches_stored() {
  local body byid inline stats
  body=$(curl -fsS "http://$ADDR/v1/workflows/a" | sed -n 's/^{"workflow":\(.*\),"generation":[0-9]*\(,"generations":\[[0-9,]*\]\)\{0,1\}}$/\1/p')
  [ -n "$body" ] || { echo "smoke: could not extract the stored body of a" >&2; exit 1; }
  byid=$(search_inc '"query_id":"a"' | result_list)
  inline=$(search_inc "\"query\":$body" | result_list)
  [ -n "$byid" ] && [ "$inline" = "$byid" ] || {
    echo "smoke: a's stored body as an inline query ranks differently from query_id a" >&2
    echo "  query_id: $byid" >&2
    echo "  inline:   $inline" >&2; exit 1; }
  stats=$(curl -fsS "http://$ADDR/v1/stats")
  echo "$stats" | grep -q '"symbols":[1-9]' || { echo "smoke: stats report no symbols: $stats" >&2; exit 1; }
  echo "$stats" | grep -q '"label_sim":{"entries":[1-9]' || {
    echo "smoke: stats report an empty similarity memo after searches: $stats" >&2; exit 1; }
}

# index_is_not_consulted: over the freshly ingested fixture on $ADDR, after
# the search that left $OUT and $RESULTS1. The default measure has an exact
# score bound, so the -index server must not have pruned c (which shares no
# label with a) and must answer as a server without an index does.
index_is_not_consulted() {
  local plain
  if echo "$OUT" | grep -q '"pruned"'; then
    echo "smoke: a default-measure search on the -index server reports pruned candidates: $OUT" >&2; exit 1
  fi
  "$BIN" -addr "$REFADDR" -cache 4096 &
  REFPID=$!
  wait_healthy "$REFADDR"
  ingest_fixture "$REFADDR"
  plain=$(search_a "$REFADDR" | result_list)
  kill "$REFPID"; wait "$REFPID" 2>/dev/null || true; REFPID=""
  [ "$plain" = "$RESULTS1" ] || {
    echo "smoke: the -index server and a plain server rank query_id a differently" >&2
    echo "  -index: $RESULTS1" >&2
    echo "  plain:  $plain" >&2; exit 1; }
}

# cache_survives_commit SHARDS: over the freshly ingested fixture on $ADDR.
# Leaves the fixture corpus as it found it (two more commits).
cache_survives_commit() {
  search_a >/dev/null # (a, b) is now cached
  churn_batch "$ADDR"
  local out hits misses want scan refscan
  out=$(search_a)
  echo "smoke: search after a batch touching other IDs: $out"
  hits=$(echo "$out" | sed -n 's/.*"cache_hits":\([0-9]*\).*/\1/p')
  misses=$(echo "$out" | sed -n 's/.*"cache_misses":\([0-9]*\).*/\1/p')
  [ "${hits:-0}" -gt 0 ] || { echo "smoke: a batch touching other IDs emptied the score cache (cache_hits=$hits)" >&2; exit 1; }
  [ "${misses:-99}" -le 2 ] || { echo "smoke: cache_misses=$misses after a batch that wrote 2 workflows" >&2; exit 1; }
  scan=$(pair_scan "$ADDR")
  "$BIN" -addr "$REFADDR" -index -cache 0 -shards "$1" &
  REFPID=$!
  wait_healthy "$REFADDR"
  ingest_fixture "$REFADDR"
  churn_batch "$REFADDR"
  want=$(search_a "$REFADDR" | result_list)
  refscan=$(pair_scan "$REFADDR")
  kill "$REFPID"; wait "$REFPID" 2>/dev/null || true; REFPID=""
  echo "smoke: duplicates and clusters at $1 shards: $scan"
  [[ "$scan" == "[{"*$'\n'"[["* ]] && [ "$scan" = "$refscan" ] || {
    echo "smoke: cached duplicates or clusters differ from a -cache 0 server after the same batch" >&2
    echo "  cached:   $scan" >&2
    echo "  -cache 0: $refscan" >&2; exit 1; }
  [ -n "$want" ] && [ "$(echo "$out" | result_list)" = "$want" ] || {
    echo "smoke: cached results differ from a -cache 0 server after the same batch" >&2
    echo "  cached:   $(echo "$out" | result_list)" >&2
    echo "  -cache 0: $want" >&2; exit 1; }
  post_batch "$ADDR" <<'EOF'
{"op":"replace","workflow":{"id":"c","annotations":{"title":"imaging"},"modules":[{"id":"m1","label":"load_image","type":"tool"},{"id":"m2","label":"segment_cells","type":"tool"}],"edges":[{"from":0,"to":1}]}}
{"op":"remove","id":"d"}
EOF
}

# ---- Phase 1: RAM-only ingest + search ----
"$BIN" -addr "$ADDR" -index -cache 4096 &
PID=$!
wait_healthy
ingest_fixture
OUT=$(search_a)
echo "smoke: search response: $OUT"
echo "$OUT" | grep -q '"id":"b"' || { echo "smoke: search results missing expected hit b" >&2; exit 1; }
echo "$OUT" | grep -q '"generation":1' || { echo "smoke: response does not report the ingest generation" >&2; exit 1; }
# The result list (IDs and similarities) is the reference phase 4 must
# reproduce bit-for-bit over directories written by older binaries.
RESULTS1=$(echo "$OUT" | result_list)
[ -n "$RESULTS1" ] || { echo "smoke: could not extract result list" >&2; exit 1; }
index_is_not_consulted
inline_matches_stored
cache_survives_commit 1
kill "$PID"; wait "$PID" 2>/dev/null || true; PID=""
echo "smoke: phase 1 (RAM-only) OK"

# ---- Phase 2: durable ingest, SIGTERM, restart, verify ----
mkdir -p "$DATA"
"$BIN" -addr "$ADDR" -index -cache 4096 -data "$DATA" &
PID=$!
wait_healthy
ingest_fixture
OUT=$(search_a)
echo "$OUT" | grep -q '"id":"b"' || { echo "smoke: durable search missing expected hit b" >&2; exit 1; }
echo "$OUT" | grep -q '"generation":1' || { echo "smoke: durable ingest did not reach generation 1" >&2; exit 1; }
kill -TERM "$PID"
wait "$PID" 2>/dev/null || true
PID=""
[ -s "$DATA/wal.log" ] || ls "$DATA"/snap-*.snap >/dev/null 2>&1 || {
  echo "smoke: data directory holds neither a log nor a snapshot after shutdown" >&2; exit 1; }
[ ! -e "$DATA/shards.json" ] || { echo "smoke: one-shard data directory grew a shards.json marker" >&2; exit 1; }

"$BIN" -addr "$ADDR" -index -cache 4096 -data "$DATA" &
PID=$!
wait_healthy
STATS=$(curl -fsS "http://$ADDR/v1/stats")
echo "smoke: post-restart stats: $STATS"
echo "$STATS" | grep -q '"generation":1' || { echo "smoke: restart lost the pre-kill generation" >&2; exit 1; }
echo "$STATS" | grep -q '"workflows":3' || { echo "smoke: restart lost workflows" >&2; exit 1; }
echo "$STATS" | grep -q '"storage"' || { echo "smoke: stats carry no storage block" >&2; exit 1; }
OUT=$(search_a)
echo "smoke: post-restart search: $OUT"
echo "$OUT" | grep -q '"id":"b"' || { echo "smoke: pre-kill search hit b did not survive the restart" >&2; exit 1; }
echo "$OUT" | grep -q '"generation":1' || { echo "smoke: post-restart search serves the wrong generation" >&2; exit 1; }
echo "smoke: phase 2 (durable restart) OK"
kill "$PID"; wait "$PID" 2>/dev/null || true; PID=""

# ---- Phase 2b: compactions, SIGKILL, restart, verify ----
CDATA="$WORK/data-compacted"
mkdir -p "$CDATA"
"$BIN" -addr "$ADDR" -index -data "$CDATA" -compact-records 3 &
PID=$!
wait_healthy
for i in $(seq 1 11); do
  echo "{\"op\":\"add\",\"workflow\":{\"id\":\"w$i\",\"annotations\":{\"title\":\"batch $i\"},\"modules\":[{\"id\":\"m1\",\"label\":\"step_$i\",\"type\":\"wsdl\"},{\"id\":\"m2\",\"label\":\"run_blast\",\"type\":\"wsdl\"}],\"edges\":[{\"from\":0,\"to\":1}]}}" |
    post_batch "$ADDR"
done
STATS=$(curl -fsS "http://$ADDR/v1/stats")
COMPACTIONS=$(echo "$STATS" | sed -n 's/.*"storage":{[^}]*"compactions":\([0-9]*\).*/\1/p')
[ "${COMPACTIONS:-0}" -ge 3 ] || {
  echo "smoke: 11 batches at -compact-records 3 made ${COMPACTIONS:-no} compactions: $STATS" >&2; exit 1; }
kill -KILL "$PID"
wait "$PID" 2>/dev/null || true
PID=""
"$BIN" -addr "$ADDR" -index -data "$CDATA" -compact-records 3 &
PID=$!
wait_healthy
STATS=$(curl -fsS "http://$ADDR/v1/stats")
echo "smoke: stats after SIGKILL past $COMPACTIONS compactions: $STATS"
echo "$STATS" | grep -q '"generation":11' || { echo "smoke: SIGKILL after compactions lost the generation" >&2; exit 1; }
echo "$STATS" | grep -q '"snapshot_loaded":true' || {
  echo "smoke: recovery did not start from a compaction's snapshot" >&2; exit 1; }
for ID in w2 w11; do
  curl -fsS "http://$ADDR/v1/workflows/$ID" | grep -q "\"id\":\"$ID\"" || {
    echo "smoke: workflow $ID did not survive compactions and SIGKILL" >&2; exit 1; }
done
echo "smoke: phase 2b (compactions, SIGKILL, restart) OK"
kill "$PID"; wait "$PID" 2>/dev/null || true; PID=""

# ---- Phase 3: sharded durable ingest, SIGTERM, restart, verify ----
SDATA="$WORK/data-sharded"
mkdir -p "$SDATA"
"$BIN" -addr "$ADDR" -index -cache 4096 -shards 4 -data "$SDATA" &
PID=$!
wait_healthy
ingest_fixture
inline_matches_stored
cache_survives_commit 4
STATS=$(curl -fsS "http://$ADDR/v1/stats")
echo "smoke: sharded stats: $STATS"
echo "$STATS" | grep -q '"shards":4' || { echo "smoke: stats do not report 4 shards" >&2; exit 1; }
echo "$STATS" | grep -q '"generations":\[' || { echo "smoke: stats carry no generation vector" >&2; exit 1; }
echo "$STATS" | grep -q '"per_shard":\[' || { echo "smoke: stats carry no per-shard blocks" >&2; exit 1; }
VECTOR=$(echo "$STATS" | sed -n 's/.*"generations":\(\[[0-9,]*\]\).*/\1/p' | head -1)
[ -n "$VECTOR" ] || { echo "smoke: could not extract generation vector" >&2; exit 1; }
OUT=$(search_a)
echo "$OUT" | grep -q '"id":"b"' || { echo "smoke: sharded search missing expected hit b" >&2; exit 1; }
echo "$OUT" | grep -qF "\"generations\":$VECTOR" || {
  echo "smoke: sharded search response does not stamp the generation vector $VECTOR" >&2; exit 1; }
kill -TERM "$PID"
wait "$PID" 2>/dev/null || true
PID=""
[ -f "$SDATA/shards.json" ] || { echo "smoke: sharded data directory has no shards.json marker" >&2; exit 1; }
grep -qxF '{"format":"wfsim-shards-v1","shards":4}' "$SDATA/shards.json" || {
  echo "smoke: shards.json does not parse as a 4-shard marker: $(cat "$SDATA/shards.json")" >&2; exit 1; }
if compgen -G "$SDATA/shards.json.tmp*" >/dev/null; then
  echo "smoke: a shards.json temp file was left behind" >&2; exit 1
fi
[ -d "$SDATA/shard-0000" ] || { echo "smoke: sharded data directory has no shard subdirectories" >&2; exit 1; }

# A different shard count must be refused with a clear error.
if "$BIN" -addr "$ADDR" -index -shards 2 -data "$SDATA" 2>"$WORK/mismatch.err"; then
  echo "smoke: restart with a different shard count was not refused" >&2; exit 1
fi
grep -q "4 shards" "$WORK/mismatch.err" || {
  echo "smoke: shard-count mismatch error does not name the recorded count:" >&2
  cat "$WORK/mismatch.err" >&2; exit 1; }
# So must the default single shard over the sharded directory...
if "$BIN" -addr "$ADDR" -index -data "$SDATA" 2>"$WORK/mismatch.err"; then
  echo "smoke: one-shard restart over a 4-shard directory was not refused" >&2; exit 1
fi
grep -q "4 shards" "$WORK/mismatch.err" || {
  echo "smoke: one-shard refusal does not name the recorded count:" >&2
  cat "$WORK/mismatch.err" >&2; exit 1; }
# ...and -shards 4 over phase 2's flat directory.
if "$BIN" -addr "$ADDR" -index -shards 4 -data "$DATA" 2>"$WORK/mismatch.err"; then
  echo "smoke: 4-shard restart over a flat directory was not refused" >&2; exit 1
fi
grep -q "unsharded" "$WORK/mismatch.err" || {
  echo "smoke: flat-directory refusal does not say the directory is unsharded:" >&2
  cat "$WORK/mismatch.err" >&2; exit 1; }
[ ! -e "$DATA/shards.json" ] || { echo "smoke: refused 4-shard open left a marker in the flat directory" >&2; exit 1; }

"$BIN" -addr "$ADDR" -index -cache 4096 -shards 4 -data "$SDATA" &
PID=$!
wait_healthy
STATS=$(curl -fsS "http://$ADDR/v1/stats")
echo "smoke: post-restart sharded stats: $STATS"
echo "$STATS" | grep -qF "\"generations\":$VECTOR" || {
  echo "smoke: restart lost the generation vector $VECTOR" >&2; exit 1; }
echo "$STATS" | grep -q '"workflows":3' || { echo "smoke: sharded restart lost workflows" >&2; exit 1; }
OUT=$(search_a)
echo "smoke: post-restart sharded search: $OUT"
echo "$OUT" | grep -q '"id":"b"' || { echo "smoke: sharded search hit b did not survive the restart" >&2; exit 1; }
echo "smoke: phase 3 (sharded durable restart) OK"
kill "$PID"; wait "$PID" 2>/dev/null || true; PID=""

# ---- Phase 4: directories written by older binaries ----
GOLDEN=internal/storage/testdata/golden
for CASE in "v1-flat 1" "v2-2shard-crash 2"; do
  set -- $CASE
  GDATA="$WORK/golden-$1"
  cp -r "$GOLDEN/$1" "$GDATA"
  "$BIN" -addr "$ADDR" -index -cache 4096 -shards "$2" -data "$GDATA" &
  PID=$!
  wait_healthy
  STATS=$(curl -fsS "http://$ADDR/v1/stats")
  echo "smoke: $1 stats: $STATS"
  echo "$STATS" | grep -q '"workflows":3' || { echo "smoke: $1 lost workflows" >&2; exit 1; }
  OUT=$(search_a)
  echo "smoke: $1 search: $OUT"
  RESULTS4=$(echo "$OUT" | result_list)
  [ "$RESULTS4" = "$RESULTS1" ] || {
    echo "smoke: search results over $1 differ from fresh-ingest results" >&2
    echo "  fresh: $RESULTS1" >&2
    echo "  $1: $RESULTS4" >&2; exit 1; }
  kill "$PID"; wait "$PID" 2>/dev/null || true; PID=""
done
echo "smoke: phase 4 (golden directories) OK"
echo "smoke: OK"
