package fleet_test

import (
	"strings"
	"testing"

	"roia/internal/telemetry"
)

// TestFleetExpositionSkeleton pins the /fleet/metrics skeleton of a
// roiarms-shaped collector — two replicas, a model, a client-latency
// source, the retained history and its SLOs — with the values removed:
// every # TYPE line and each sample's name and label set, in order. The
// roia_client_rtt_* block is pinned as one contiguous block that may sit
// anywhere in the scrape.
func TestFleetExpositionSkeleton(t *testing.T) {
	h := newObsHarness(t)
	if _, err := h.fl.AddReplica(); err != nil {
		t.Fatal(err)
	}
	h.addBot(t, "server-1")
	for i := 0; i < 5; i++ {
		h.step()
	}
	rtt := telemetry.NewLatency(80)
	rtt.Observe(3)
	rtt.Observe(120)
	col := newSessionCollector(h.fl, tinyModel(t), rtt)

	var b strings.Builder
	if err := col.WriteMetrics(&b, ""); err != nil {
		t.Fatal(err)
	}
	var rest, rttBlock []string
	rttAt := -1
	for i, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		skel := line
		if !strings.HasPrefix(line, "#") {
			skel = line[:strings.LastIndexByte(line, ' ')]
		}
		if !strings.Contains(skel, "roia_client_rtt_") {
			rest = append(rest, skel)
			continue
		}
		if rttAt >= 0 && rttAt+len(rttBlock) != i {
			t.Fatalf("the roia_client_rtt_* block is split at line %d:\n%s", i, b.String())
		}
		if rttAt < 0 {
			rttAt = i
		}
		rttBlock = append(rttBlock, skel)
	}

	var wantRest []string
	replicaFamily := func(family, kind string) {
		wantRest = append(wantRest,
			"# TYPE "+family+" "+kind,
			family+`{zone="1",replica="server-1"}`,
			family+`{zone="1",replica="server-2"}`)
	}
	replicaFamily("roia_fleet_ticks_total", "counter")
	replicaFamily("roia_fleet_tick_mean_ms", "gauge")
	replicaFamily("roia_fleet_tick_p95_ms", "gauge")
	replicaFamily("roia_fleet_deadline_ms", "gauge")
	replicaFamily("roia_fleet_deadline_violations_total", "counter")
	replicaFamily("roia_fleet_tick_hiccups_total", "counter")
	replicaFamily("roia_fleet_flightrec_captures_total", "counter")
	replicaFamily("roia_fleet_users", "gauge")
	replicaFamily("roia_fleet_draining", "gauge")
	wantRest = append(wantRest,
		"# TYPE roia_fleet_tick_wall_q_ms gauge",
		`roia_fleet_tick_wall_q_ms{zone="1",q="p50"}`,
		`roia_fleet_tick_wall_q_ms{zone="1",q="p90"}`,
		`roia_fleet_tick_wall_q_ms{zone="1",q="p99"}`,
		`roia_fleet_tick_wall_q_ms{zone="1",q="p999"}`)
	for _, family := range []string{"roia_fleet_zone_users", "roia_fleet_npcs", "roia_fleet_replicas", "roia_fleet_nmax", "roia_fleet_lmax"} {
		wantRest = append(wantRest, "# TYPE "+family+" gauge", family+`{zone="1"}`)
	}
	wantRest = append(wantRest,
		"# TYPE roia_fleet_migrations gauge",
		`roia_fleet_migrations{zone="1",state="complete"}`,
		`roia_fleet_migrations{zone="1",state="incomplete"}`)
	for _, family := range []string{"roia_slo_objective", "roia_slo_budget_remaining"} {
		wantRest = append(wantRest,
			"# TYPE "+family+" gauge",
			family+`{slo="tick_deadline"}`,
			family+`{slo="client_rtt"}`)
	}
	wantRest = append(wantRest, "# TYPE roia_slo_burn_rate gauge")
	for _, slo := range []string{"tick_deadline", "client_rtt"} {
		for _, window := range []string{"10s", "1m", "2m", "12m"} {
			wantRest = append(wantRest, `roia_slo_burn_rate{slo="`+slo+`",window="`+window+`"}`)
		}
	}
	wantRest = append(wantRest,
		"# TYPE roia_tsdb_series gauge", "roia_tsdb_series",
		"# TYPE roia_tsdb_samples_total counter", "roia_tsdb_samples_total",
		"# TYPE roia_tsdb_dropped_samples_total counter", "roia_tsdb_dropped_samples_total",
		"# TYPE roia_tsdb_dropped_series_total counter", "roia_tsdb_dropped_series_total")

	wantRTT := []string{"# TYPE roia_client_rtt_ms gauge"}
	for _, stat := range []string{"p50", "p95", "p99", "p999", "max", "mean"} {
		wantRTT = append(wantRTT, `roia_client_rtt_ms{stat="`+stat+`"}`)
	}
	wantRTT = append(wantRTT,
		"# TYPE roia_client_rtt_count counter", "roia_client_rtt_count",
		"# TYPE roia_client_rtt_deadline_ms gauge", "roia_client_rtt_deadline_ms",
		"# TYPE roia_client_rtt_deadline_violations_total counter", "roia_client_rtt_deadline_violations_total")

	if got, want := strings.Join(rest, "\n"), strings.Join(wantRest, "\n"); got != want {
		t.Errorf("fleet exposition skeleton:\n%s\nwant:\n%s", got, want)
	}
	if got, want := strings.Join(rttBlock, "\n"), strings.Join(wantRTT, "\n"); got != want {
		t.Errorf("client RTT block skeleton:\n%s\nwant:\n%s", got, want)
	}
}
