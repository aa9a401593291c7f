#!/bin/sh
# Every ccd_sweep result source writes the same bytes.  The smoke grid runs
# in process, on --workers 2, and as --emit-shards 3 specs run by three
# --shard-file workers and recombined by --merge; JSON, CSV and dist
# outputs must cmp equal.  A faulted grid (an axis flag the worker fleet
# must carry) runs in process and on --workers 2, and the fleet's private
# batch directory must be gone afterwards.  --merge refuses a shard subset
# and a file that is neither a shard report nor a perf sidecar (exit 2);
# for a non-JSON input, an input without "format" and one with an unknown
# format the exact error line is pinned too (exits_2 keeps stderr in
# err.txt), as it is for --threads, --workers and --emit-shards values out
# of range and for a --shard-file worker with no output.  A worker with
# only --checkpoint (the dispatcher's kind) writes a marker for every cell
# it owns.  Every value each named-value flag accepts is listed in that
# flag's --help entry.
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
  "$@" 2>err.txt || status=$?
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
"$sweep" --shard-file spec-1-of-3.json --threads 1 --quiet \
  --checkpoint part-1.ckpt.jsonl
owned=$(grep -o '"cells":\[[0-9,]*\]' spec-1-of-3.json | tr -dc '0-9,' |
  tr ',' ' ')
marked=$(tail -n +2 part-1.ckpt.jsonl | grep -o '"cell":[0-9]*' |
  cut -d: -f2 | sort -n)
test -n "$owned"
test "$(echo $owned)" = "$(echo $marked)"
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

# Inputs that are no kind of --merge input, and the exact error of each.
printf 'not json' > bad-1.txt
printf '{"cells":[]}' > bad-2.json
printf '{"format":"ccd-shard-report-v1"}' > bad-3.json
for bad in bad-1.txt bad-2.json; do
  exits_2 "$sweep" --merge --quiet part-0.json "$bad"
  test "$(cat err.txt)" = "ccd_sweep: $bad: missing key 'format'"
done
exits_2 "$sweep" --merge --quiet part-0.json bad-3.json
test "$(cat err.txt)" = "ccd_sweep: bad-3.json: format 'ccd-shard-report-v1' \
is neither ccd-shard-report-v2 nor ccd-perf-sidecar-v1"
exits_2 "$sweep" --shard-file spec-0-of-3.json --quiet
test "$(cat err.txt)" = "ccd_sweep: worker mode needs an output: --json PATH \
(a partial shard report) or --checkpoint PATH (cell markers)"
# A count flag outside its range names the flag, the value and the range.
exits_2 "$sweep" --grid smoke --quiet --threads 5000
test "$(cat err.txt)" = "ccd_sweep: bad threads value '5000' (expected 0..4096)"
exits_2 "$sweep" --grid smoke --quiet --workers 0
test "$(cat err.txt)" = "ccd_sweep: bad workers value '0' (expected 1..1024)"
exits_2 "$sweep" --grid smoke --quiet --emit-shards 0
test "$(cat err.txt)" = \
  "ccd_sweep: bad emit-shards value '0' (expected 1..65536)"
# Each value below is accepted by its flag and named in the flag's --help
# entry (its line plus the indented lines under it).
"$sweep" --help > help.txt
while read -r flag values; do
  awk -v flag="$flag" '$1 == flag { on = 1; print; next }
    on && /^                       / { print; next }
    { on = 0 }' help.txt | tr ' ,|' '\n\n\n' > names.txt
  for value in $(echo "$values" | tr ',' ' '); do
    if ! grep -qx -- "$value" names.txt; then
      echo "ccd_sweep --help does not list $flag value '$value'" >&2
      exit 1
    fi
    "$sweep" --grid crash "$flag" "$value" --emit-shards 1 \
      --shard-out accepted --quiet < /dev/null
  done
done <<'EOF'
--algs alg1,alg2,alg3,alg4,naive
--detectors ac,maj-ac,half-ac,zero-ac,oac,maj-oac,half-oac,zero-oac,nocd,noacc
--policies truthful,prefer-null,prefer-collision,spurious,flaky-majority,random-legal
--cms nocm,wakeup,leader,backoff
--losses noloss,ecf,prob,unrestricted
--faults none,random-crash,scheduled
--topologies singlehop,line,ring,grid,rgg
--workloads consensus,flood,mis,mis-then-consensus,round-sync
--crash-schedules leaf-then-die,source-dies,articulation-point,all-cut-vertices,min-vertex-cut
--chaos calm,chaotic
--init random,split,same
EOF
echo "ccd_sweep_modes: run, --workers and --merge outputs identical"
