#!/usr/bin/env bash
# Two-process tasmd smoke test: a router (-shards) scatter-gathering over
# a leaf (-dir) must answer a top-k query ingested into the leaf. Run
# from the repository root; exits non-zero on any failure.
set -euo pipefail

LEAF_PORT="${LEAF_PORT:-18421}"
ROUTER_PORT="${ROUTER_PORT:-18422}"
WORKDIR="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

stop_leaf() { # waits for the leaf to exit after SIGTERM
  kill -TERM "$LEAF_PID"
  for _ in $(seq 1 50); do
    kill -0 "$LEAF_PID" 2>/dev/null || return 0
    sleep 0.1
  done
  echo "FAIL: leaf would not stop for the corruption leg" >&2
  return 1
}

wait_healthy() { # url
  for _ in $(seq 1 100); do
    if curl -sf "$1/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "FAIL: $1 never became healthy" >&2
  return 1
}

go build -o "$WORKDIR/tasmd" ./cmd/tasmd

"$WORKDIR/tasmd" -dir "$WORKDIR/leaf-corpus" -addr "127.0.0.1:$LEAF_PORT" &
LEAF_PID=$!
PIDS+=($LEAF_PID)
wait_healthy "http://127.0.0.1:$LEAF_PORT"

# Ingest into the leaf.
curl -sf -X POST "http://127.0.0.1:$LEAF_PORT/v1/docs" \
  -H 'Content-Type: application/json' \
  -d '{"name":"smoke","xml":"<r><rec><a>1</a><b>2</b></rec><rec><a>1</a></rec></r>"}' >/dev/null

# The router scatter-gathers over the leaf (second process, second tier).
# -slow-query 1ns records every query in /debug/slowlog for the check below.
"$WORKDIR/tasmd" -shards "http://127.0.0.1:$LEAF_PORT" -addr "127.0.0.1:$ROUTER_PORT" -slow-query 1ns &
PIDS+=($!)
wait_healthy "http://127.0.0.1:$ROUTER_PORT"

# Query through the router; the exact subtree lives in the leaf.
RESP="$(curl -sf -X POST "http://127.0.0.1:$ROUTER_PORT/v1/topk" \
  -H 'Content-Type: application/json' \
  -d '{"query":"{rec{a{1}}{b{2}}}","k":2,"trees":true}')"
echo "router response: $RESP"

python3 - "$RESP" <<'EOF'
import json, sys
resp = json.loads(sys.argv[1])
matches = resp["matches"]
assert len(matches) == 2, f"want 2 matches, got {len(matches)}"
assert matches[0]["doc"] == "smoke", matches[0]
assert matches[0]["dist"] == 0, "exact subtree must rank first with distance 0"
assert matches[0]["tree"], "trees=true must return the matched subtree"
EOF

# A traced query through both tiers: the router's trace block must embed
# the leaf's, stitched by the propagated W3C trace context — the leaf
# block carries the router's trace id and names the router's root span as
# its parent, and the leaf's own scan spans are visible from here.
TRACED="$(curl -sf -X POST "http://127.0.0.1:$ROUTER_PORT/v1/topk?trace=1" \
  -H 'Content-Type: application/json' \
  -d '{"query":"{rec{a{1}}{b{2}}}","k":1}')"

python3 - "$TRACED" <<'EOF'
import json, sys
resp = json.loads(sys.argv[1])
trace = resp.get("trace")
assert trace, "?trace=1 response carries no trace block"
router_spans = {s["name"] for s in trace["spans"]}
assert "shard" in router_spans, f"router trace has no shard span: {router_spans}"
shards = trace.get("shards") or []
assert len(shards) == 1, f"router trace embeds {len(shards)} leaf blocks, want 1"
leaf = shards[0]
assert leaf["traceId"] == trace["traceId"], \
    f"leaf trace id {leaf['traceId']} != router trace id {trace['traceId']} (stitching broken)"
assert leaf["parentId"] == trace["spanId"], \
    f"leaf parent id {leaf['parentId']} != router span id {trace['spanId']}"
leaf_spans = {s["name"] for s in leaf["spans"]}
assert "scan" in leaf_spans, f"leaf trace has no scan span: {leaf_spans}"
EOF

# The router's /metrics exposition: runtime gauges and the shard-labelled
# router telemetry must be present, and the latency histogram's _count
# must equal its +Inf bucket (the scrape-tear regression check).
# Bodies are grepped from a here-string, never through a pipe: under
# pipefail, `curl … | grep -q` or `echo … | grep -q` fails whenever grep
# exits at its match before the writer is done and the writer takes
# SIGPIPE.
METRICS="$(curl -sf "http://127.0.0.1:$ROUTER_PORT/metrics")"
grep -q '^tasmd_process_start_time_seconds ' <<<"$METRICS" \
  || { echo "FAIL: router /metrics lacks tasmd_process_start_time_seconds" >&2; exit 1; }
grep -q '^tasmd_shard_latency_seconds_bucket{shard="' <<<"$METRICS" \
  || { echo "FAIL: router /metrics lacks per-shard latency series" >&2; exit 1; }
INF="$(echo "$METRICS" | sed -n 's/^tasmd_topk_latency_seconds_bucket{le="+Inf"} //p')"
COUNT="$(echo "$METRICS" | sed -n 's/^tasmd_topk_latency_seconds_count //p')"
[ -n "$INF" ] && [ "$INF" = "$COUNT" ] \
  || { echo "FAIL: histogram _count ($COUNT) != +Inf bucket ($INF)" >&2; exit 1; }

# Every query was slow under the 1ns threshold: the slow-query log must
# have entries.
SLOWLOG="$(curl -sf "http://127.0.0.1:$ROUTER_PORT/debug/slowlog")"
python3 - "$SLOWLOG" <<'EOF'
import json, sys
log = json.loads(sys.argv[1])
assert log["total"] >= 1, f"slow-query log empty under a 1ns threshold: {log}"
assert log["entries"][0]["endpoint"] == "/v1/topk", log["entries"][0]
assert log["entries"][0]["traceId"], "slow entry lacks a trace id"
EOF

# --- Replicated shard failover -------------------------------------------
# A second leaf holding the SAME document (same name, same content, same
# ingest order) acts as a replica; a second router serves the pair as ONE
# shard via the | syntax, with the doomed replica as primary. SIGKILLing
# the primary must not take the router down: the query fails over to the
# surviving replica and still answers exactly.
REPLICA_PORT="${REPLICA_PORT:-18423}"
REPL_ROUTER_PORT="${REPL_ROUTER_PORT:-18424}"

"$WORKDIR/tasmd" -dir "$WORKDIR/replica-corpus" -addr "127.0.0.1:$REPLICA_PORT" &
DOOMED_PID=$!
PIDS+=($DOOMED_PID)
wait_healthy "http://127.0.0.1:$REPLICA_PORT"
curl -sf -X POST "http://127.0.0.1:$REPLICA_PORT/v1/docs" \
  -H 'Content-Type: application/json' \
  -d '{"name":"smoke","xml":"<r><rec><a>1</a><b>2</b></rec><rec><a>1</a></rec></r>"}' >/dev/null

# -cache 0: the post-SIGKILL query must exercise the failover path, not
# be answered from the result cache.
"$WORKDIR/tasmd" -shards "http://127.0.0.1:$REPLICA_PORT|http://127.0.0.1:$LEAF_PORT" \
  -addr "127.0.0.1:$REPL_ROUTER_PORT" -cache 0 &
PIDS+=($!)
wait_healthy "http://127.0.0.1:$REPL_ROUTER_PORT"

# Sanity: the replicated router answers while both replicas are up.
RESP="$(curl -sf -X POST "http://127.0.0.1:$REPL_ROUTER_PORT/v1/topk" \
  -H 'Content-Type: application/json' \
  -d '{"query":"{rec{a{1}}{b{2}}}","k":2}')"
python3 - "$RESP" <<'EOF'
import json, sys
matches = json.loads(sys.argv[1])["matches"]
assert len(matches) == 2, f"replicated router: want 2 matches, got {len(matches)}"
assert matches[0]["dist"] == 0, matches[0]
EOF

# Kill the primary replica outright — no drain, no goodbye.
kill -KILL "$DOOMED_PID"
wait "$DOOMED_PID" 2>/dev/null || true

RESP="$(curl -sf -X POST "http://127.0.0.1:$REPL_ROUTER_PORT/v1/topk" \
  -H 'Content-Type: application/json' \
  -d '{"query":"{rec{a{1}}{b{2}}}","k":2}')"
echo "post-SIGKILL response: $RESP"
python3 - "$RESP" <<'EOF'
import json, sys
resp = json.loads(sys.argv[1])
matches = resp["matches"]
assert len(matches) == 2, f"router lost results after replica SIGKILL: {len(matches)}"
assert matches[0]["doc"] == "smoke" and matches[0]["dist"] == 0, matches[0]
stats = resp["stats"]
assert stats.get("retried") or stats.get("hedged"), \
    f"failover left no retry/hedge trace in stats: {stats}"
EOF

# --- Corruption quarantine ------------------------------------------------
# Flip ONE byte in the middle of a leaf store file while the leaf is
# down. The restarted leaf's startup scrub must catch the bad checksum,
# quarantine that document, and keep serving the survivors — and the
# router keeps answering with the loss reported in stats.quarantined,
# with no reconfiguration on its side.
curl -sf -X POST "http://127.0.0.1:$LEAF_PORT/v1/docs" \
  -H 'Content-Type: application/json' \
  -d '{"name":"doomed","xml":"<r><rec><a>1</a><b>2</b></rec></r>"}' >/dev/null
curl -sf -X POST "http://127.0.0.1:$LEAF_PORT/v1/docs" \
  -H 'Content-Type: application/json' \
  -d '{"name":"torn","xml":"<r><rec><a>1</a><b>2</b></rec><rec><b>2</b></rec></r>"}' >/dev/null

stop_leaf

# "doomed" was the leaf's second ingest, so its store is docs/2.store.
python3 - "$WORKDIR/leaf-corpus/docs/2.store" <<'EOF'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
data[len(data) // 2] ^= 0xFF
open(path, "wb").write(bytes(data))
EOF

"$WORKDIR/tasmd" -dir "$WORKDIR/leaf-corpus" -addr "127.0.0.1:$LEAF_PORT" &
LEAF_PID=$!
PIDS+=($LEAF_PID)
wait_healthy "http://127.0.0.1:$LEAF_PORT"

RESP="$(curl -sf -X POST "http://127.0.0.1:$ROUTER_PORT/v1/topk" \
  -H 'Content-Type: application/json' \
  -d '{"query":"{rec{a{1}}{b{2}}}","k":5}')"
echo "post-corruption response: $RESP"
python3 - "$RESP" <<'EOF'
import json, sys
resp = json.loads(sys.argv[1])
docs = [m["doc"] for m in resp["matches"]]
assert "doomed" not in docs, f"quarantined document still answering: {docs}"
assert "smoke" in docs, f"survivor vanished after quarantine: {docs}"
assert resp["stats"].get("quarantined") == 1, \
    f"router stats do not report the quarantined document: {resp['stats']}"
EOF

METRICS="$(curl -sf "http://127.0.0.1:$LEAF_PORT/metrics")"
grep -q '^tasmd_quarantined_docs 1$' <<<"$METRICS" \
  || { echo "FAIL: leaf /metrics lacks tasmd_quarantined_docs 1" >&2; exit 1; }

# Truncate a second store and restart the leaf with -verify=off, which
# skips only the checksums: a store that does not decode cannot be served
# in any form, so the leaf still quarantines it, and the router keeps
# answering with stats.quarantined == 2.
stop_leaf
# "torn" was the leaf's third ingest, so its store is docs/3.store.
python3 - "$WORKDIR/leaf-corpus/docs/3.store" <<'EOF'
import sys
path = sys.argv[1]
data = open(path, "rb").read()
open(path, "wb").write(data[:-10])
EOF

"$WORKDIR/tasmd" -dir "$WORKDIR/leaf-corpus" -addr "127.0.0.1:$LEAF_PORT" -verify=off &
LEAF_PID=$!
PIDS+=($LEAF_PID)
wait_healthy "http://127.0.0.1:$LEAF_PORT"

RESP="$(curl -sf -X POST "http://127.0.0.1:$ROUTER_PORT/v1/topk" \
  -H 'Content-Type: application/json' \
  -d '{"query":"{rec{a{1}}{b{2}}}","k":6}')"
echo "post-tear response: $RESP"
python3 - "$RESP" <<'EOF'
import json, sys
resp = json.loads(sys.argv[1])
docs = [m["doc"] for m in resp["matches"]]
assert "torn" not in docs, f"torn document still answering: {docs}"
assert "smoke" in docs, f"survivor vanished after quarantine: {docs}"
assert resp["stats"].get("quarantined") == 2, \
    f"router stats do not report both quarantined documents: {resp['stats']}"
EOF

# The router refuses ingests (leaf-only) ...
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://127.0.0.1:$ROUTER_PORT/v1/docs" \
  -H 'Content-Type: application/json' -d '{"name":"x","xml":"<a/>"}')"
[ "$CODE" = "501" ] || { echo "FAIL: router ingest returned $CODE, want 501" >&2; exit 1; }

# ... and the leaf serves DELETE /v1/docs/{name}.
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X DELETE "http://127.0.0.1:$LEAF_PORT/v1/docs/smoke")"
[ "$CODE" = "200" ] || { echo "FAIL: leaf delete returned $CODE, want 200" >&2; exit 1; }

# Graceful shutdown: SIGTERM must terminate every surviving process
# promptly (the SIGKILLed replica is already gone).
for pid in "${PIDS[@]}"; do
  kill -TERM "$pid" 2>/dev/null || true
done
for pid in "${PIDS[@]}"; do
  for _ in $(seq 1 50); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$pid" 2>/dev/null; then
    echo "FAIL: tasmd pid $pid survived SIGTERM for 5s" >&2
    exit 1
  fi
done
PIDS=()

echo "shard smoke test: OK"
