#!/bin/sh
# Record the federation scrape benchmark into BENCH_federate.json so the
# wire cost of fleet-scale federation is tracked across commits.
# BenchmarkFederateScrape stands up 100 simulated collector endpoints
# behind one server and measures a steady-state /delta scrape round where
# a single endpoint changed. Acceptance floor:
#
#   - a delta round must move >= 10x fewer body bytes than refetching the
#     changed endpoint's gzip'd /cube.json + /windows.json would (derived
#     field delta_bytes_reduction); the script fails below it.
#
# wire_B/op is total response body bytes fetched per scrape round (as
# counted by the federator's own per-endpoint byte counters, i.e. what
# actually crossed the wire); json_B/op is the changed endpoint's gzip'd
# JSON documents per round; p99_ms is the 99th-percentile per-endpoint
# scrape latency; bytes_per_sec is the steady-state wire rate implied by
# one round per interval.
#
# Usage: scripts/bench_federate.sh [output.json]
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_federate.json}"

raw=$(go test -run '^$' \
	-bench 'BenchmarkFederateScrape' \
	-benchtime 30x -count 3 ./internal/federate/)

printf '%s\n' "$raw" | awk -v go_version="$(go env GOVERSION)" '
BEGIN { n = 0 }
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	# -count N repeats each benchmark; keep the best (min ns/op) run.
	keep = 0
	if (name in best) {
		if ($3 + 0 < best[name] + 0) { keep = 1 }
	} else {
		names[n++] = name; keep = 1
		wireb[name] = "null"; jsonb[name] = "null"; p99[name] = "null"
	}
	if (keep) {
		best[name] = $3; iters[name] = $2
		for (i = 4; i < NF; i++) {
			if ($(i + 1) == "wire_B/op") wireb[name] = $i
			if ($(i + 1) == "json_B/op") jsonb[name] = $i
			if ($(i + 1) == "p99_ms") p99[name] = $i
		}
	}
}
END {
	printf "{\n  \"suite\": \"federate\",\n  \"go\": \"%s\",\n  \"endpoints\": 100,\n  \"benchmarks\": [\n", go_version
	for (i = 0; i < n; i++) {
		name = names[i]
		printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"wire_bytes_per_round\": %s, \"json_bytes_per_round\": %s, \"p99_scrape_ms\": %s}%s\n", \
			name, iters[name], best[name], wireb[name], jsonb[name], p99[name], (i < n - 1 ? "," : "")
	}
	printf "  ],\n  \"derived\": {\n"
	dns = best["BenchmarkFederateScrape"]
	db = wireb["BenchmarkFederateScrape"]
	jb = jsonb["BenchmarkFederateScrape"]
	printf "    \"delta_bytes_reduction\": %.1f,\n", jb / db
	printf "    \"delta_wire_bytes_per_round\": %.0f,\n", db
	printf "    \"json_wire_bytes_per_round\": %.0f,\n", jb
	printf "    \"delta_bytes_per_sec\": %.0f,\n", db * 1e9 / dns
	printf "    \"delta_p99_scrape_ms\": %s\n", p99["BenchmarkFederateScrape"]
	printf "  }\n}\n"
	if (jb / db < 10) {
		printf "delta_bytes_reduction %.1f below the 10x floor\n", jb / db > "/dev/stderr"
		exit 1
	}
}' > "$out"

echo "wrote $out:"
cat "$out"
