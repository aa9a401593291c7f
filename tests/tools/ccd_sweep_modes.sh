#!/bin/sh
# Every ccd_sweep result source writes the same bytes.  The smoke grid runs
# in process, on --workers 2, and as --emit-shards 3 specs run by three
# --shard-file workers and recombined by --merge; JSON, CSV and dist
# outputs must cmp equal.  A faulted grid (an axis flag the worker fleet
# must carry) runs in process and on --workers 2, and the fleet's private
# batch directory must be gone afterwards.  --merge refuses a shard subset
# and a file that is neither a shard report nor a perf sidecar (exit 2).
#
# usage: ccd_sweep_modes.sh PATH/TO/ccd_sweep
set -eu

sweep=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
dir=$(mktemp -d "${TMPDIR:-/tmp}/ccd-sweep-modes-XXXXXX")
trap 'rm -rf "$dir"' EXIT
cd "$dir"
mkdir tmp
export TMPDIR="$dir/tmp"

outputs() { echo "--json $1.json --csv $1.csv --dist-out $1-dist.json"; }
same() {
  for ext in .json .csv -dist.json; do cmp "$1$ext" "$2$ext"; done
}
exits_2() {
  status=0
  "$@" 2>/dev/null || status=$?
  if [ "$status" -ne 2 ]; then
    echo "expected exit 2, got $status: $*" >&2
    exit 1
  fi
}

"$sweep" --grid smoke --threads 2 --quiet $(outputs run)
"$sweep" --grid smoke --workers 2 --threads 1 --quiet $(outputs workers)
"$sweep" --grid smoke --emit-shards 3 --shard-out spec --quiet
for i in 0 1 2; do
  "$sweep" --shard-file "spec-$i-of-3.json" --threads 1 --quiet \
    --json "part-$i.json"
done
"$sweep" --merge --quiet $(outputs merged) part-0.json part-1.json part-2.json
same run workers
same run merged

faulted="--grid smoke --faults random-crash --seeds 4"
"$sweep" $faulted --threads 2 --quiet $(outputs faulted-run)
"$sweep" $faulted --workers 2 --threads 1 --quiet $(outputs faulted-workers)
same faulted-run faulted-workers
test -z "$(ls -A tmp)"

exits_2 "$sweep" --merge --quiet --json subset.json part-0.json part-2.json
exits_2 "$sweep" --merge --quiet part-0.json part-1.json part-2.json \
  run-dist.json
echo "ccd_sweep_modes: run, --workers and --merge outputs identical"
