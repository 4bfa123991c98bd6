package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
)

// QueryIntParam parses an optional non-negative integer query parameter.
// An absent parameter yields def; an empty, non-numeric or negative value
// is an error, so handlers reject malformed requests with 400 instead of
// silently falling back to a default the caller did not ask for.
func QueryIntParam(q url.Values, name string, def int) (int, error) {
	if !q.Has(name) {
		return def, nil
	}
	raw := q.Get(name)
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%s must be a non-negative integer, got %q", name, raw)
	}
	return v, nil
}

// QueryFloatParam parses an optional non-negative finite float query
// parameter with the same strictness as QueryIntParam: absent means def,
// malformed (empty, non-numeric, negative, NaN, Inf) means an error for a
// 400.
func QueryFloatParam(q url.Values, name string, def float64) (float64, error) {
	if !q.Has(name) {
		return def, nil
	}
	raw := q.Get(name)
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%s must be a non-negative number, got %q", name, raw)
	}
	return v, nil
}

// ReadyHandler serves a /healthz readiness endpoint: 503 until ready()
// first reports true, 200 afterwards. Gateways and orchestrators poll it
// before routing traffic at a backend, so a server that has not completed
// its first tick (or a collector that has not scraped yet) is never put in
// rotation with empty state.
func ReadyHandler(ready func() bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// MetricsWriter writes one Prometheus exposition section.
// FlightRecorder.WriteMetrics and WriteRuntimeMetrics both match.
type MetricsWriter func(w io.Writer, labels string) error

// MetricsHandler composes several exposition sections into one /metrics
// endpoint, so tick, model-drift and runtime metrics share a scrape.
func MetricsHandler(labels string, writers ...MetricsWriter) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		for _, write := range writers {
			if err := write(w, labels); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
	})
}
