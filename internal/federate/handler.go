package federate

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"loadimb/internal/monitor"
	"loadimb/internal/serve"
)

// Federation metric families served at /metrics ahead of the cube gauges.
const (
	MetricEndpoints           = "loadimb_fed_endpoints"
	MetricEndpointsStale      = "loadimb_fed_endpoints_stale"
	MetricEndpointStale       = "loadimb_fed_endpoint_stale"
	MetricEndpointScrapes     = "loadimb_fed_endpoint_scrapes_total"
	MetricEndpointFailures    = "loadimb_fed_endpoint_failures_total"
	MetricEndpointConsecutive = "loadimb_fed_endpoint_consecutive_failures"
	MetricEndpointLatency     = "loadimb_fed_endpoint_scrape_seconds"
	MetricEndpointBytes       = "loadimb_fed_endpoint_bytes_total"
	MetricMergeFailed         = "loadimb_fed_merge_failed"
)

// healthzPayload is the /healthz document: an overall status, the
// merge error if the last merge failed, and the per-endpoint scrape
// states.
type healthzPayload struct {
	// Status is "ok" while every endpoint is live and the merge succeeds,
	// "degraded" when some (but not all) endpoints are stale or still
	// cube-less or the merge failed, and "down" when no endpoint
	// contributes to the aggregate.
	Status string `json:"status"`
	// MergeError is the error of the last merge (Federator.MergeError);
	// omitted while merges succeed.
	MergeError string           `json:"merge_error,omitempty"`
	Endpoints  []EndpointHealth `json:"endpoints"`
}

// status summarizes the endpoint states and the merge error into the
// /healthz status word.
func status(eps []EndpointHealth, mergeErr string) string {
	live, contributing := 0, 0
	for _, ep := range eps {
		if !ep.Stale {
			live++
			if ep.HasCube {
				contributing++
			}
		}
	}
	switch {
	case contributing == 0:
		return "down"
	case live < len(eps) || contributing < live || mergeErr != "":
		return "degraded"
	default:
		return "ok"
	}
}

// Handler returns the federated exposition endpoint set — the exact
// surface imbamon serves (serve.Mux pointed at the federated snapshot),
// so one Prometheus scrape of an imbafed gives ID_P, ID_ij, ID_A/SID_A,
// ID_C/SID_C and the Gini coefficient for the whole cluster, and another
// imbafed can scrape this one exactly like a leaf collector (including
// the binary /delta path) to build a federation tree. Differences from
// the collector surface:
//
//	/healthz   the merge error if the last merge failed, and per-endpoint
//	           scrape state: last success/attempt, scrape latency, bytes
//	           fetched, consecutive failures, staleness (503 when no
//	           endpoint contributes)
//	/metrics   federation scrape-state and merge gauges ahead of the cube
//	           families
//	/          plain-text index instead of the dashboard
func Handler(f *Federator) http.Handler {
	return serve.Mux(f,
		serve.WithHealth(func(w http.ResponseWriter, r *http.Request) {
			// The merge runs on demand; run it (or reuse the cached one) so
			// the report covers the endpoints' current state.
			f.Snapshot()
			eps := f.Health()
			mergeErr := f.MergeError()
			payload := healthzPayload{Status: status(eps, mergeErr), MergeError: mergeErr, Endpoints: eps}
			w.Header().Set("Content-Type", "application/json")
			if payload.Status == "down" {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(payload)
		}),
		// The snapshot's Events/Dropped counters are zero here: scrapes
		// carry no event counts, and the federated exposition reports
		// scrape state through the families above instead.
		// The /metrics handler builds the snapshot before this prefix, so
		// the merge gauge describes the merge behind the cube families.
		serve.WithMetricsPrefix(func(w io.Writer) {
			writeFederationMetrics(w, f.Health(), f.MergeError())
		}),
		serve.WithIndex(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintf(w, "loadimb federated monitor (%d endpoints)\n\n", len(f.Health()))
			fmt.Fprintln(w, "endpoints: /metrics /cube.json /lorenz.json /timeline.json /windows.json /phases.json /diagnose.json /delta /healthz")
		}),
	)
}

// writeFederationMetrics renders the scrape-state and merge families in
// Prometheus text format.
func writeFederationMetrics(w io.Writer, eps []EndpointHealth, mergeErr string) {
	m := monitor.NewMetricsWriter(w)
	stale := 0
	for _, ep := range eps {
		if ep.Stale {
			stale++
		}
	}
	m.Family(MetricEndpoints, "Endpoints configured for federation.", "gauge")
	m.Sample(float64(len(eps)))
	m.Family(MetricEndpointsStale, "Endpoints currently stale (excluded from the aggregate).", "gauge")
	m.Sample(float64(stale))
	failed := 0.0
	if mergeErr != "" {
		failed = 1
	}
	m.Family(MetricMergeFailed, "Whether the last merge of the endpoints' snapshots failed (1), degrading the federated view.", "gauge")
	m.Sample(failed)
	families := []struct {
		name, help, typ string
		value           func(EndpointHealth) float64
	}{
		{MetricEndpointStale, "Whether the endpoint is stale (1) or live (0).", "gauge",
			func(ep EndpointHealth) float64 {
				if ep.Stale {
					return 1
				}
				return 0
			}},
		{MetricEndpointScrapes, "Successful scrapes of the endpoint.", "counter",
			func(ep EndpointHealth) float64 { return float64(ep.Scrapes) }},
		{MetricEndpointFailures, "Failed scrapes of the endpoint.", "counter",
			func(ep EndpointHealth) float64 { return float64(ep.Failures) }},
		{MetricEndpointConsecutive, "Consecutive scrape failures since the last success.", "gauge",
			func(ep EndpointHealth) float64 { return float64(ep.ConsecutiveFailures) }},
		{MetricEndpointBytes, "Response body bytes fetched from the endpoint.", "counter",
			func(ep EndpointHealth) float64 { return float64(ep.Bytes) }},
		{MetricEndpointLatency, "Duration of the endpoint's most recent scrape attempt.", "gauge",
			func(ep EndpointHealth) float64 { return ep.ScrapeMillis / 1000 }},
	}
	for _, fam := range families {
		m.Family(fam.name, fam.help, fam.typ)
		for _, ep := range eps {
			m.Sample(fam.value(ep), monitor.Label("endpoint", ep.Name))
		}
	}
}
