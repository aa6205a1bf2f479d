#!/usr/bin/env bash
# Records the repository's benchmark as BENCH_<name>.json. For each
# workload BENCHMARK.json lists, on seeds 1, 2 and 3, it runs
#
#   bash perfbench/run.sh --workload <w> --seed <s> --seconds <run_seconds> --trace 0
#
# and keeps the last line of each run, perfbench's result object, verbatim
# beside the measurement's provenance: toolchain, commit, dirty flag, CPU
# count and model, UTC date, and each command.
#
# perfbench's exit code is the only gate: a run that fails a correctness
# check stops the script before any BENCH file is written. There is no
# regression gate, because on a shared 2-CPU machine the seed-to-seed
# spread of perfbench's end-to-end metrics reaches 0.18; compare BENCH
# files by hand, or run parent/change pairs as perfbench/README.md says.
#
# Usage, from anywhere in the repository (needs go, git and jq):
#
#   bash scripts/bench.sh 21    # writes BENCH_21.json at the repository root
set -euo pipefail

if [[ $# -ne 1 || ! $1 =~ ^[A-Za-z0-9._-]+$ ]]; then
  echo "usage: bash scripts/bench.sh <name>    (writes BENCH_<name>.json)" >&2
  exit 2
fi
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="BENCH_$1.json"
tmp="$out.partial"
trap 'rm -f "$tmp" "$tmp.run"' EXIT

# jstr <s> prints s as a JSON string. The provenance strings hold no
# control characters, so quotes and backslashes are all that need escaping.
jstr() {
  local s=${1//\\/\\\\}
  printf '"%s"' "${s//\"/\\\"}"
}

workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
seconds=$(jq -er '.run_seconds' BENCHMARK.json)
go_version=$(go version)
commit=$(git rev-parse HEAD)
changes=$(git status --porcelain)
dirty=false
[[ -z "$changes" ]] || dirty=true
nproc=$(nproc)
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n1) || cpu=""

{
  printf '{\n  "bench": "perfbench",\n  "provenance": {\n'
  printf '    "go_version": %s,\n' "$(jstr "$go_version")"
  printf '    "commit": %s,\n' "$(jstr "$commit")"
  printf '    "dirty": %s,\n' "$dirty"
  printf '    "nproc": %d,\n' "$nproc"
  printf '    "cpu_model": %s,\n' "$(jstr "${cpu:-unknown}")"
  printf '    "date_utc": %s\n  },\n  "runs": [' "$(jstr "$(date -u +%Y-%m-%dT%H:%M:%SZ)")"
} >"$tmp"

sep=""
for w in $workloads; do
  for seed in 1 2 3; do
    cmd=(bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0)
    echo "==> ${cmd[*]}"
    "${cmd[@]}" | tee "$tmp.run"
    printf '%s\n    {"command": %s,\n     "result": %s}' \
      "$sep" "$(jstr "${cmd[*]}")" "$(tail -n1 "$tmp.run")" >>"$tmp"
    sep=","
  done
done
printf '\n  ]\n}\n' >>"$tmp"

jq -e . "$tmp" >/dev/null
mv "$tmp" "$out"
echo "==> wrote $out"
