package tsdb

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strings"

	"roia/internal/telemetry"
)

// Query endpoint defaults: a 5-minute lookback and a hard cap on it so a
// single request cannot ask the store to materialise unbounded ranges.
const (
	DefaultQuerySinceSec = 300
	MaxQuerySinceSec     = 24 * 3600
)

// familyPattern mirrors the roialint metric-name grammar: the query
// endpoint rejects anything that could not be a metric family, before it
// touches the store.
var familyPattern = regexp.MustCompile(`^(roia|fleet)_[a-z0-9_]+$`)

// queryLine is one JSONL line of a /fleet/query response: one raw sample.
type queryLine struct {
	Family string            `json:"family"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	T      float64           `json:"t"`
	V      float64           `json:"v"`
}

// QueryHandler serves range queries over the store as JSONL (the
// /fleet/query endpoint). Query parameters:
//
//	family  required; the metric family to read (roia_/fleet_ grammar)
//	label   repeatable k=v matchers; a series must carry every pair
//	since   lookback window in seconds back from the store's now, the
//	        newest stamp (default 300, max 86400)
//
// Every parameter is validated with the shared telemetry helpers: a
// malformed value is a 400, never a silent default, and so is step — the
// endpoint serves raw samples only, there are no windowed aggregates. One
// JSON object per sample, chronological per series, series ordered by
// canonical label key.
func QueryHandler(st *Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		family := q.Get("family")
		if family == "" {
			http.Error(w, "query: family is required", http.StatusBadRequest)
			return
		}
		if !familyPattern.MatchString(family) {
			http.Error(w, fmt.Sprintf("query: family %q does not match the metric grammar", family), http.StatusBadRequest)
			return
		}
		match := make(map[string]string)
		for _, kv := range q["label"] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok || k == "" {
				http.Error(w, fmt.Sprintf("query: label %q must be key=value", kv), http.StatusBadRequest)
				return
			}
			match[k] = v
		}
		since, err := telemetry.QueryFloatParam(q, "since", DefaultQuerySinceSec)
		if err != nil {
			http.Error(w, "query: "+err.Error(), http.StatusBadRequest)
			return
		}
		if since == 0 || since > MaxQuerySinceSec {
			http.Error(w, fmt.Sprintf("query: since must be in (0, %d] seconds", MaxQuerySinceSec), http.StatusBadRequest)
			return
		}
		if q.Has("step") {
			http.Error(w, "query: step is not supported; /fleet/query serves raw samples", http.StatusBadRequest)
			return
		}

		now := st.Now()
		series := st.Query(family, match, now-since, now)
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, sd := range series {
			for _, s := range sd.Samples {
				if err := enc.Encode(queryLine{
					Family: sd.Family, Labels: sd.Labels, Kind: sd.Kind.String(), T: s.T, V: s.V,
				}); err != nil {
					return // client went away; nothing useful to report
				}
			}
		}
	})
}
