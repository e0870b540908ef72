#!/usr/bin/env bash
# bench_record.sh produces the repo's in-repo perf record for today: it
# runs the P-series micro-benchmarks (go test -bench) and one perfbench
# run per workload that BENCHMARK.json declares (seed 1, 15 s, each
# against a freshly started daemon), then merges them into one
# well-formed BENCH_<date>.json (or the file named by $1). Requires jq.
set -euo pipefail

cd "$(dirname "$0")/.."
out=${1:-BENCH_$(date +%F).json}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

benchcmd="go test -run '^$' -bench 'BenchmarkP8_JoinPlan|BenchmarkP9_ScaleLookup|BenchmarkP10_GroupBy|BenchmarkP11_CrowdScale|BenchmarkP12_SnapshotRead' -benchmem ."
echo "== micro-benchmarks: $benchcmd"
go test -run '^$' -bench 'BenchmarkP8_JoinPlan|BenchmarkP9_ScaleLookup|BenchmarkP10_GroupBy|BenchmarkP11_CrowdScale|BenchmarkP12_SnapshotRead' \
  -benchmem . | tee "$workdir/bench.txt"

# A result line is the name, the iteration count, then value/unit pairs;
# custom metrics (P11's answers/op) sit between ns/op and B/op:
# "BenchmarkP11_CrowdScale/members=10000/fixed-2  100  2417 ns/op  240000 answers/op  53464 B/op  12 allocs/op"
# → {"name": ..., "ns_per_op": ..., "bytes_per_op": ..., "allocs_per_op": ..., "answers_per_op": ...}
awk '/^Benchmark/ {
  name = $1; sub(/^Benchmark/, "", name); sub(/-[0-9]+$/, "", name)
  delete v
  for (i = 3; i < NF; i += 2) v[$(i + 1)] = $i
  row = sprintf("{\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s",
    name, v["ns/op"], v["B/op"], v["allocs/op"])
  if ("answers/op" in v) row = row sprintf(", \"answers_per_op\": %s", v["answers/op"])
  print row "}"
}' "$workdir/bench.txt" | jq -s . >"$workdir/benchmarks.json"

# serving maps each workload to the JSON object perfbench prints as its
# last line; run.sh exits non-zero on a wrong reply or a broken guard,
# which aborts the record.
servecmd="bash perfbench/run.sh --workload <name> --seed 1 --seconds 15"
echo '{}' >"$workdir/serving.json"
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
  echo "== perfbench: ${servecmd/<name>/$w}"
  bash perfbench/run.sh --workload "$w" --seed 1 --seconds 15 >"$workdir/$w.out"
  tail -n 1 "$workdir/$w.out" >"$workdir/$w.json"
  jq --arg w "$w" --slurpfile r "$workdir/$w.json" '.[$w] = $r[0]' \
    "$workdir/serving.json" >"$workdir/serving.next" && mv "$workdir/serving.next" "$workdir/serving.json"
done

jq -n \
  --arg date "$(date +%F)" \
  --arg go "$(go version | sed 's/^go version //')" \
  --arg cpu "$(grep -m1 'model name' /proc/cpuinfo | sed 's/.*: //' || echo unknown)" \
  --arg cmd "$benchcmd; $servecmd" \
  --arg note "${NOTE:-}" \
  --slurpfile benchmarks "$workdir/benchmarks.json" \
  --slurpfile serving "$workdir/serving.json" \
  '{date: $date, go: $go, cpu: $cpu, command: $cmd, note: $note,
    benchmarks: $benchmarks[0], serving: $serving[0]}' >"$out"

echo "record written to $out"
jq '{date, serving: (.serving | map_values({correct, failed,
     throughput_rps: .metrics.throughput_rps.value,
     latency_p50_ms: .metrics.latency_p50_ms.value}))}' "$out"
