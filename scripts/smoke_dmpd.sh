#!/usr/bin/env bash
# End-to-end smoke test for the dmpd daemon: start it at the Quick preset
# with pool sampling every 600 simulated seconds, POST the committed
# scenario, and require the response digest to match the committed golden
# (cmd/dmpd/testdata/smoke.sha256). The daemon's answer must be
# byte-identical to an offline run of the same spec — this is the
# determinism contract of the service boundary, checked at the cheapest
# possible scale. The telemetry stream, events and pool samples, is pinned
# the same way (cmd/dmpd/testdata/smoke_telemetry.sha256), and so is the
# offline copy of it: dmpexp -telemetry's file for the same cell, under the
# daemon's cell header line, must hash to the same golden. A what-if branch
# of the cell (a static, a conservative-backfill and a repack variant) is
# pinned too (cmd/dmpd/testdata/smoke_branch.sha256). Also exercises the
# metrics endpoint and a graceful SIGTERM shutdown.
#
# Usage: scripts/smoke_dmpd.sh   (from anywhere; re-record a golden by
# piping a fresh response or stream through sha256sum)
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${DMPD_PORT:-18231}"
BIN="$(mktemp -t dmpd.XXXXXX)"
EXP="$(mktemp -t dmpexp.XXXXXX)"
TELDIR="$(mktemp -d -t dmpexp-tel.XXXXXX)"
trap 'kill "$DMPD_PID" 2>/dev/null || true; rm -rf "$BIN" "$EXP" "$TELDIR"' EXIT

go build -o "$BIN" ./cmd/dmpd
go build -o "$EXP" ./cmd/dmpexp
"$BIN" -addr "127.0.0.1:$PORT" -preset quick -telemetry-interval 600 &
DMPD_PID=$!

for _ in $(seq 1 100); do
  if curl -sf "127.0.0.1:$PORT/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -sf "127.0.0.1:$PORT/healthz" >/dev/null || { echo "dmpd never became healthy"; exit 1; }

RESP="$(curl -sf -XPOST "127.0.0.1:$PORT/v1/scenarios" -d @cmd/dmpd/testdata/smoke.json)"
GOT="$(printf '%s\n' "$RESP" | sha256sum | awk '{print $1}')"
WANT="$(cat cmd/dmpd/testdata/smoke.sha256)"
if [ "$GOT" != "$WANT" ]; then
  echo "response digest mismatch: got $GOT want $WANT"
  echo "response was: $RESP"
  exit 1
fi

ID="$(printf '%s' "$RESP" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')"
# No -q on the greps: under pipefail, grep -q's early exit would SIGPIPE
# curl and fail the healthy pipeline.
curl -sf "127.0.0.1:$PORT/v1/scenarios/$ID" >/dev/null
TEL="$(curl -sf "127.0.0.1:$PORT/v1/scenarios/$ID/telemetry" | sha256sum | awk '{print $1}')"
TELWANT="$(cat cmd/dmpd/testdata/smoke_telemetry.sha256)"
if [ "$TEL" != "$TELWANT" ]; then
  echo "telemetry digest mismatch: got $TEL want $TELWANT"
  exit 1
fi
curl -sf "127.0.0.1:$PORT/metrics" | grep '^dmpd_result_cache_misses_total 1$' >/dev/null \
  || { echo "metrics missing cache counters"; exit 1; }
BRANCH='{"mem_pct":100,"policy":"dynamic","at_time_s":43200,"variants":[{"name":"static","policy":"static"},{"name":"conservative","backfill":"conservative"},{"name":"repack","repack":true}]}'
BR="$(curl -sf -XPOST "127.0.0.1:$PORT/v1/scenarios/$ID/branch" -d "$BRANCH" | sha256sum | awk '{print $1}')"
BRWANT="$(cat cmd/dmpd/testdata/smoke_branch.sha256)"
if [ "$BR" != "$BRWANT" ]; then
  echo "branch digest mismatch: got $BR want $BRWANT"
  exit 1
fi

kill -TERM "$DMPD_PID"
wait "$DMPD_PID" || { echo "dmpd exited non-zero on SIGTERM"; exit 1; }
trap 'rm -rf "$BIN" "$EXP" "$TELDIR"' EXIT

"$EXP" -preset quick -scenario cmd/dmpd/testdata/smoke.json -telemetry "$TELDIR" -telemetry-interval 600 >/dev/null
OFF="$({ printf '%s\n' '{"cell":{"mem_pct":100,"policy":"dynamic"}}'; cat "$TELDIR/smoke_mem100_dynamic.jsonl"; } | sha256sum | awk '{print $1}')"
if [ "$OFF" != "$TELWANT" ]; then
  echo "offline telemetry digest mismatch: got $OFF want $TELWANT"
  exit 1
fi
echo "dmpd smoke OK (digest $GOT, telemetry $TEL, branch $BR)"
