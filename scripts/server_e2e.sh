#!/usr/bin/env bash
# End-to-end exercise of the crystald analysis daemon: build the binary,
# start it, drive a scripted load → analyze → edit → re-verify session
# over HTTP with curl, and diff the normalized transcript against the
# committed golden. Wall-clock fields (duration_ns, latency percentiles)
# are zeroed; everything else — session ids, reports, critical paths,
# epoch counters, cache and incremental-engine counters — is pinned
# exactly, because analysis results are deterministic.
#
# The daemon runs with a snapshot directory, and the script restarts it
# mid-transcript: the post-restart create must load from the .simx cache
# into the shared network arena (source == "snapshot" — asserted hard,
# beyond the golden diff), with the subsequent analyze report
# byte-identical to the cold one.
#
#   scripts/server_e2e.sh            verify against the golden
#   scripts/server_e2e.sh --update   regenerate the golden
set -euo pipefail

cd "$(dirname "$0")/.."
addr="${SERVER_E2E_ADDR:-127.0.0.1:18653}"
base="http://$addr"
golden="scripts/testdata/server_e2e.golden"

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
go build -o "$workdir/crystald" ./cmd/crystald

snapdir="$workdir/snapshots"
daemon=""
start_daemon() {
  "$workdir/crystald" -addr "$addr" -snapshot-dir "$snapdir" &
  daemon=$!
  for i in $(seq 100); do
    if curl -sf "$base/healthz" >/dev/null 2>&1; then return; fi
    if [ "$i" = 100 ]; then echo "crystald did not come up on $addr" >&2; exit 1; fi
    sleep 0.1
  done
}
stop_daemon() {
  kill "$daemon" 2>/dev/null || true
  wait "$daemon" 2>/dev/null || true
}
trap 'stop_daemon; rm -rf "$workdir"' EXIT

start_daemon

# Zero the wall-clock fields so the transcript is byte-stable.
norm='walk(if type == "object" then
        (if has("duration_ns") then .duration_ns = 0 else . end
       | if has("p50_ns") then .p50_ns = 0 | .p99_ns = 0 else . end)
      else . end)'

cfg=$(jq -Rs '{name:"dlatch", sim:., fix:{wr:"1"}, top:3}' testdata/dlatch.sim)

transcript() {
  echo "== create =="
  created=$(curl -s -X POST "$base/v1/sessions" -d "$cfg")
  echo "$created" | jq -S "$norm"
  sid=$(echo "$created" | jq -r .session)

  echo "== dedup =="
  curl -s -X POST "$base/v1/sessions" -d "$cfg" | jq -S "$norm"

  echo "== analyze =="
  curl -s -X POST "$base/v1/sessions/$sid/analyze" | jq -S "$norm"

  echo "== simulate =="
  curl -s -X POST "$base/v1/sessions/$sid/simulate" \
    -d '{"inputs":["wr","d"],"watch":["q","out"],"vectors":["11","10","01","X1"]}' |
    jq -S "$norm"

  echo "== edits =="
  curl -s -X POST "$base/v1/sessions/$sid/edits" \
    -d '{"script":"cap q 20e-15\nrun\ncap qb 10e-15\ncap q -20e-15\nrun\n"}' |
    jq -S "$norm"

  # Post-edit simulate: the edit advanced the network generation, so the
  # batch engine recompiles (compiled == true again) and the settled
  # values still match the pre-edit truth table.
  echo "== simulate after edits =="
  curl -s -X POST "$base/v1/sessions/$sid/simulate" \
    -d '{"inputs":["wr","d"],"watch":["q","out"],"vectors":["11","10"]}' |
    jq -S "$norm"

  echo "== critical =="
  curl -s "$base/v1/sessions/$sid/critical?n=2" | jq -S "$norm"

  echo "== sessions =="
  curl -s "$base/v1/sessions" | jq -S "$norm"

  echo "== metrics =="
  curl -s "$base/metrics" | jq -S "$norm"

  echo "== restart =="
  stop_daemon
  start_daemon

  echo "== warm create =="
  warm=$(curl -s -X POST "$base/v1/sessions" -d "$cfg")
  echo "$warm" | jq -S "$norm"
  # The acceptance assertion: a restarted daemon must open this session
  # from the snapshot cache, skipping ReadSim entirely.
  src=$(echo "$warm" | jq -r .source)
  if [ "$src" != "snapshot" ]; then
    echo "server_e2e: warm create source=$src, want snapshot" >&2
    exit 1
  fi
  wsid=$(echo "$warm" | jq -r .session)

  echo "== warm analyze =="
  curl -s -X POST "$base/v1/sessions/$wsid/analyze" | jq -S "$norm"

  echo "== warm metrics =="
  curl -s "$base/metrics" | jq -S "$norm"
}

out="$workdir/transcript"
transcript > "$out"

if [ "${1:-}" = "--update" ]; then
  mkdir -p "$(dirname "$golden")"
  cp "$out" "$golden"
  echo "server_e2e: updated $golden"
  exit 0
fi

diff -u "$golden" "$out"
echo "server_e2e: OK"
