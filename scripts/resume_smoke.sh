#!/bin/sh
# Interrupt-resume smoke test: a -quick design run is SIGINT'd mid-flight,
# rerun against the same cache directory, and its final report must be
# byte-identical to an uninterrupted reference run.
#
#   scripts/resume_smoke.sh [workdir]
#
# Exits non-zero when the interrupted exit code is wrong, the rerun fails,
# the resumed report differs from the reference, or the checkpoint holds a
# section the engine's fold did not write.
set -eu

work=${1:-$(mktemp -d)}
bin="$work/redcane"
refdir="$work/ref-cache"
intdir="$work/int-cache"
mkdir -p "$refdir" "$intdir"

go build -o "$bin" ./cmd/redcane

common="-quick -seed 42 -log-level info"

# Reference: uninterrupted design run.
echo "== reference run =="
"$bin" $common -dir "$refdir" -json "$work/ref.json" design capsnet-mnist-like

# Timing probe: the interrupted run shares the reference's trained weights
# (copied below), so the signal must land inside the analysis sweeps.
cp "$refdir"/*.gob "$intdir"/

echo "== interrupted run =="
"$bin" $common -dir "$intdir" -json "$work/int1.json" design capsnet-mnist-like &
pid=$!
# Interrupt as soon as the first checkpoint section lands (written when
# the first group sweep completes), so the signal arrives mid-analysis
# rather than during the cached-weight load.
i=0
while [ "$i" -lt 600 ]; do
    if ls "$intdir"/ckpt-*.json >/dev/null 2>&1; then break; fi
    if ! kill -0 "$pid" 2>/dev/null; then break; fi
    sleep 0.1
    i=$((i + 1))
done
kill -INT "$pid" 2>/dev/null || true
status=0
wait "$pid" || status=$?
echo "interrupted run exited with $status"
if [ "$status" -eq 0 ]; then
    echo "NOTE: run finished before the signal landed; resume path reduces to the fully-checkpointed case"
elif [ "$status" -ne 130 ]; then
    echo "FAIL: interrupted exit code $status, want 130 (or 0 if too fast)"
    exit 1
fi

echo "== resumed run =="
"$bin" $common -dir "$intdir" -json "$work/int2.json" design capsnet-mnist-like

if ! cmp -s "$work/ref.json" "$work/int2.json"; then
    echo "FAIL: resumed report differs from uninterrupted reference"
    diff "$work/ref.json" "$work/int2.json" || true
    exit 1
fi
# The fold is the only checkpoint writer: every section is a sweep's.
for f in "$intdir"/ckpt-*.json; do
    if ! jq -e '.sections | keys | all(startswith("sweep-"))' "$f" >/dev/null; then
        echo "FAIL: $f holds a section no sweep fold wrote"
        jq '.sections | keys' "$f"
        exit 1
    fi
done
echo "PASS: resumed report byte-identical to uninterrupted run"
