#!/bin/sh
# Compares two benchmark snapshots produced by scripts/bench.sh and fails
# (exit 1) when any shared benchmark regressed by more than 20% ns/op.
#
#   scripts/bench_compare.sh [old.json new.json]
#
# Without arguments the two highest-numbered BENCH_<n>.json in the repo
# root are compared (the lower number is the baseline). Benchmarks present
# in only one snapshot are reported but never fail the check, so adding
# or retiring a benchmark doesn't break the comparison. CI runs this as a
# non-blocking step: a regression flags the build without failing it.
set -eu

threshold=${BENCH_REGRESSION_PCT:-20}

if [ $# -eq 2 ]; then
    old=$1
    new=$2
elif [ $# -eq 0 ]; then
    # By the number in the name, not by mtime: a git checkout can give
    # snapshots equal mtimes.
    set -- $(ls BENCH_*.json 2>/dev/null | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$/\1/p' | sort -n | tail -2)
    if [ $# -lt 2 ]; then
        echo "bench_compare: need two BENCH_<n>.json snapshots, found $#" >&2
        exit 2
    fi
    old=BENCH_$1.json
    new=BENCH_$2.json
else
    echo "usage: $0 [old.json new.json]" >&2
    exit 2
fi

echo "baseline: $old"
echo "current:  $new"

jq -r -n --slurpfile o "$old" --slurpfile n "$new" --argjson pct "$threshold" '
    ($o[0].benchmarks) as $old | ($n[0].benchmarks) as $new |
    [ ($old | keys[]) as $k
      | select($new | has($k))
      | {name: $k, old: $old[$k].ns_per_op, new: $new[$k].ns_per_op}
      | .delta = (if .old > 0 then (.new - .old) / .old * 100 else 0 end)
    ] as $rows |
    ( $rows[]
      | [(if .delta > $pct then "REGRESSION" else "ok" end),
         .name, (.old | tostring), (.new | tostring),
         ((.delta * 10 | round) / 10 | tostring) + "%"]
      | @tsv ),
    ( ($old | keys) - ($new | keys) | .[] | ["gone", ., "-", "-", "-"] | @tsv ),
    ( ($new | keys) - ($old | keys) | .[] | ["new", ., "-", "-", "-"] | @tsv ),
    ( [$rows[] | select(.delta > $pct)] | length | "regressions\t\(.)" )
' | {
    status=0
    while IFS="$(printf '\t')" read -r tag rest; do
        case $tag in
        regressions)
            if [ "$rest" -gt 0 ]; then
                echo "FAIL: $rest benchmark(s) regressed more than ${threshold}%"
                status=1
            else
                echo "ok: no benchmark regressed more than ${threshold}%"
            fi
            ;;
        *)
            printf '%-12s %s\n' "$tag" "$rest"
            ;;
        esac
    done
    exit $status
}
