#!/bin/sh
# Record the analysis-engine benchmarks into BENCH_analysis.json so the
# perf trajectory of the core methodology — the paper tables and the full
# pipeline over growing cube sizes — is tracked across commits. The
# acceptance floor of the marginal-cache engine is >= 3x ns/op and >= 10x
# allocs/op on BenchmarkFullPipeline/N128xK8xP256 versus the pre-cache
# baseline (see EXPERIMENTS.md, "Analysis engine"). BenchmarkStreamSegment
# tracks the live monitor's incremental segmentation: ns/op is the
# amortized cost per appended window and must stay effectively constant
# on the fixed-penalty path. BenchmarkDiagnose tracks the automatic
# diagnosis (fingerprint -> cluster -> score, 256 ranks x 8 phases); one
# report must stay well under a scrape interval, since the monitor
# re-clusters every phase whose input changed once per fold generation,
# and all of them after a compaction. BenchmarkBoundedScrapeLongRun
# tracks the bounded-retention guarantee: the per-scrape cost after 1M
# accumulated windows must stay within 2x of the cost after 10k — scrape
# time independent of run length (see ISSUE 7).
#
# Usage: scripts/bench_analysis.sh [output.json]
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_analysis.json}"

raw=$(go test -run '^$' -bench 'FullPipeline|Table|ProcessorView|TemporalFold|StreamSegment|Diagnose|BoundedScrapeLongRun' \
	-benchmem -count 5 .)

printf '%s\n' "$raw" | awk -v go_version="$(go env GOVERSION)" '
BEGIN { n = 0 }
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	names[n] = name; iters[n] = $2; ns[n] = $3
	bytes[n] = "null"; allocs[n] = "null"
	for (i = 4; i < NF; i++) {
		if ($(i + 1) == "B/op") bytes[n] = $i
		if ($(i + 1) == "allocs/op") allocs[n] = $i
	}
	n++
}
END {
	printf "{\n  \"suite\": \"analysis\",\n  \"go\": \"%s\",\n  \"benchmarks\": [\n", go_version
	for (i = 0; i < n; i++) {
		printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
			names[i], iters[i], ns[i], bytes[i], allocs[i], (i < n - 1 ? "," : "")
	}
	printf "  ]\n}\n"
}' > "$out"

echo "wrote $out:"
cat "$out"
