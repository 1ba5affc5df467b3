#!/bin/sh
# Multi-tenant load smoke test: a keyed `redcane serve` under a
# submission burst must keep its queue bounded (excess answered 429, not
# buffered), schedule high-priority jobs ahead of earlier normal ones,
# share the slot fairly between tenants at equal priority, and still
# drain cleanly on SIGTERM with per-tenant counters in the metrics
# snapshot. All submissions go through `redcane client`, which this
# script doubles as a smoke test for.
#
#   scripts/load_smoke.sh [workdir]
#
# Needs curl and jq (both present on the CI runners).
set -eu

work=${1:-$(mktemp -d)}
bin="$work/redcane"
srvdir="$work/srv-cache"
addr=127.0.0.1:18322
base="http://$addr"
queue_cap=4
mkdir -p "$srvdir"

go build -o "$bin" ./cmd/redcane

cat > "$work/keys.json" <<'EOF'
{"tenants":[
  {"name":"alice","key":"ka-secret","max_queued":3},
  {"name":"bob","key":"kb-secret"}
]}
EOF

"$bin" -quick -seed 42 -log-level info -dir "$srvdir" serve -addr "$addr" \
    -slots 1 -queue "$queue_cap" -keys "$work/keys.json" &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT
i=0
while ! curl -sf "$base/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$pid" 2>/dev/null; then
        echo "FAIL: server never became healthy"
        exit 1
    fi
    sleep 0.1
done

client() { # $1 = key; rest = client args
    key=$1
    shift
    "$bin" client -server "$base" -key "$key" "$@"
}

submit() { # $1 = key, $2 = spec json; prints job id, or "REJECTED"
    printf '%s' "$2" > "$work/spec.json"
    if out=$(client "$1" submit "$work/spec.json" 2>&1); then
        printf '%s' "$out" | jq -r .id
    else
        echo "REJECTED"
    fi
}

state_of() { curl -sf -H "X-API-Key: ka-secret" "$base/v1/jobs/$1" | jq -r .state; }

wait_started() { # $1 = job id, $2 = whose job; returns once it left the queue
    i=0
    while [ "$(state_of "$1")" = "queued" ]; do
        i=$((i + 1))
        if [ "$i" -gt 3000 ]; then
            echo "FAIL: $2 never left the queue"
            exit 1
        fi
        sleep 0.1
    done
}

# started_before A B succeeds when job A has started and job B started
# after it or not at all. Both start times come from the server's clock,
# so the scheduling checks below hold however fast a sweep finishes; a
# poll's view of states would race a sweep that runs in a tenth of a
# second.
started_before() {
    for id in "$1" "$2"; do
        curl -sf -H "X-API-Key: ka-secret" "$base/v1/jobs/$id"
    done | jq -se '
        def start: if .state == "queued" or (.started | startswith("0001-")) then "~"
            else .started | capture("^(?<s>.{19})(?<f>\\.[0-9]+)?") | .s + ((.f // ".") + "000000000")[0:10] end;
        length == 2 and (.[0] | start) != "~" and (.[0] | start) < (.[1] | start)' >/dev/null
}

sweep='{"kind":"group-sweep","benchmark":"capsnet-mnist-like","nm_sweep":[0.2]}'

echo "== keyed server refuses anonymous and unknown-key submissions =="
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v1/jobs" -d "$sweep")
if [ "$code" != "401" ]; then
    echo "FAIL: anonymous submit answered $code, want 401"
    exit 1
fi
if [ "$(submit wrong-key "$sweep")" != "REJECTED" ]; then
    echo "FAIL: unknown key accepted"
    exit 1
fi
echo "PASS: 401 without a valid key"

echo "== burst: quota bounds the queue with 429s =="
# A validate of bob's holds the slot for seconds, so all of alice's burst
# waits: up to her max_queued=3 queue, the rest must bounce instead of
# growing the queue.
blocker=$(submit kb-secret '{"kind":"validate"}')
if [ "$blocker" = "REJECTED" ]; then
    echo "FAIL: the slot-holding validate was rejected"
    exit 1
fi
wait_started "$blocker" "the slot-holding validate"
ids=""
rejected=0
for n in 1 2 3 4 5 6 7 8; do
    id=$(submit ka-secret "$sweep")
    if [ "$id" = "REJECTED" ]; then
        rejected=$((rejected + 1))
    else
        ids="$ids $id"
    fi
done
depth=$(curl -sf "$base/healthz" | jq -r .queue_depth)
if [ "$rejected" -lt 5 ]; then
    echo "FAIL: burst of 8 saw only $rejected rejections (quota 3, slot held)"
    exit 1
fi
if [ "$depth" -gt "$queue_cap" ]; then
    echo "FAIL: queue depth $depth exceeds cap $queue_cap"
    exit 1
fi
echo "PASS: $rejected/8 burst submissions answered 429, queue depth $depth <= $queue_cap"

echo "== priority: a late high-priority job overtakes queued normal work =="
# bob queues a high-priority validate after alice's sweeps. No
# preemption — but when the slot frees, the high-priority job must win
# it ahead of every sweep alice queued before it.
vjob=$(submit kb-secret '{"kind":"validate","priority":"high"}')
if [ "$vjob" = "REJECTED" ]; then
    echo "FAIL: high-priority submit rejected"
    exit 1
fi
wait_started "$vjob" "the high-priority job"
for id in $ids; do
    if ! started_before "$vjob" "$id"; then
        echo "FAIL: alice's normal job $id started before the high-priority job"
        exit 1
    fi
done
echo "PASS: high-priority validate started ahead of alice's queued sweeps"

echo "== fairness: one tenant's backlog cannot starve another's job =="
# While the validate holds the slot, bob queues a single normal job
# behind alice's backlog; the round-robin hands him a slot before
# alice's last queued job.
bjob=$(submit kb-secret "$sweep")
alast=${ids##* }
if [ "$bjob" = "REJECTED" ] || [ -z "$alast" ]; then
    echo "FAIL: could not stage the fairness scenario (bob=$bjob, alice backlog empty)"
    exit 1
fi
wait_started "$bjob" "bob's job"
if ! started_before "$bjob" "$alast"; then
    echo "FAIL: alice's last job beat bob's into the slot despite the round-robin"
    exit 1
fi
echo "PASS: bob's job scheduled ahead of alice's backlog tail"

echo "== clean SIGTERM drain under load =="
# Cancel the queued backlog so the drain only waits for the running job.
for id in $ids $bjob; do
    [ "$(state_of "$id")" = "queued" ] && client ka-secret cancel "$id" >/dev/null 2>&1 || true
done
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
trap - EXIT
if [ "$status" -ne 0 ]; then
    echo "FAIL: drained server exited with $status, want 0"
    exit 1
fi
if ! jq -e .counters "$srvdir/metrics.json" >/dev/null; then
    echo "FAIL: drain did not flush a parseable metrics snapshot"
    exit 1
fi
submitted=$(jq -r '.counters["server.tenant.alice.submitted"] // 0' "$srvdir/metrics.json")
rej_count=$(jq -r '.counters["server.tenant.alice.rejected"] // 0' "$srvdir/metrics.json")
if [ "$submitted" -lt 1 ] || [ "$rej_count" -lt 1 ]; then
    echo "FAIL: per-tenant counters missing from the snapshot (submitted=$submitted rejected=$rej_count)"
    exit 1
fi
echo "PASS: clean drain, per-tenant counters flushed (alice: $submitted admitted, $rej_count rejected)"
echo "load smoke: all checks passed"
