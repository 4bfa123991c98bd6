// Fleet-level observability: the collector aggregates every replica's
// flight-recorder summary into one endpoint, so the reproduction is
// observable as a cluster rather than a set of nodes. Per-node metrics hide
// exactly the cross-node variability (imbalance, stuck drains, lost
// migrations) that dominates replica-group behaviour; the collector's
// per-replica-labeled families and stitched migration traces expose it.
package fleet

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"roia/internal/model"
	"roia/internal/stats"
	"roia/internal/telemetry"
	"roia/internal/telemetry/tsdb"
)

// CollectorConfig parameterises a Collector.
type CollectorConfig struct {
	// Fleets are the scraped fleets, one per zone.
	Fleets []*Fleet
	// Model, when set, adds the predicted capacity ceilings n_max(l,m) and
	// l_max(m) next to the observed n, l, m — the live headroom comparison
	// the dashboard renders.
	Model *model.Model
	// ClientLatency, when set, is the client input→update RTT source
	// (e.g. bots.FleetDriver.ClientLatency().Snapshot): it adds the
	// roia_client_rtt_* families, whose counters feed the client_rtt SLO.
	ClientLatency func() telemetry.LatencySnapshot
}

// Collector aggregates one or more fleets (one per zone) into a single
// observability surface: a /fleet/metrics Prometheus exposition with
// replica and zone labels, a /fleet/migrations endpoint serving the
// stitched cross-replica migration trace, and a /fleet/query range
// endpoint over the history Record keeps. A scrape is built once, as one
// ordered list of points: WriteMetrics renders it and Record stores it.
type Collector struct {
	cfg     CollectorConfig
	store   *tsdb.Store
	slo     *tsdb.SLOEngine
	engine  atomic.Pointer[telemetry.AlertEngine]
	records atomic.Uint64
}

// The fleet's two QoS contracts, judged over the history Record keeps:
// every tick finishes within the deadline 1/U, and every client
// input→update round trip lands within the RTT deadline.
var fleetSLOs = []tsdb.SLO{
	{
		Name:      "tick_deadline",
		Objective: 0.99,
		Total:     tsdb.Selector{Family: "roia_fleet_ticks_total"},
		Bad:       tsdb.Selector{Family: "roia_fleet_deadline_violations_total"},
	},
	{
		Name:      "client_rtt",
		Objective: 0.99,
		Total:     tsdb.Selector{Family: "roia_client_rtt_count"},
		Bad:       tsdb.Selector{Family: "roia_client_rtt_deadline_violations_total"},
	},
}

// NewCollector returns a collector over the configured fleets, with an
// empty history and the fleet's SLOs over it.
func NewCollector(cfg CollectorConfig) *Collector {
	st := tsdb.NewStore()
	return &Collector{cfg: cfg, store: st, slo: tsdb.NewSLOEngine(st, fleetSLOs...)}
}

// SetAlerts attaches an alert engine whose state is exported with the
// fleet metrics. The engine is built after the collector, because its
// rules include SLORules.
func (c *Collector) SetAlerts(e *telemetry.AlertEngine) { c.engine.Store(e) }

// SLORules returns the burn-rate rules of the fleet's SLOs
// (tsdb.SLOEngine.Rules) for an alert engine.
func (c *Collector) SLORules(pendingFor int) []telemetry.Rule { return c.slo.Rules(pendingFor) }

// MigEvents merges the migration events of every configured fleet, keyed
// by replica ID — the collector-level input to telemetry.StitchMigrations.
func (c *Collector) MigEvents() map[string][]telemetry.MigEvent {
	out := make(map[string][]telemetry.MigEvent)
	for _, fl := range c.cfg.Fleets {
		for id, events := range fl.MigEvents() {
			out[id] = append(out[id], events...)
		}
	}
	return out
}

// pointSet collects a scrape's points family by family: a family's points
// stay together, and the families keep the order they were first added in.
type pointSet struct {
	index map[string]int
	runs  [][]tsdb.Point
}

func (s *pointSet) add(family string, kind tsdb.Kind, v float64, labels ...string) {
	i, ok := s.index[family]
	if !ok {
		i = len(s.runs)
		s.index[family] = i
		s.runs = append(s.runs, nil)
	}
	s.runs[i] = append(s.runs[i], tsdb.Point{Family: family, Kind: kind, Labels: labels, V: v})
}

// scrape walks every fleet once and returns the scrape's points, the
// shared input of WriteMetrics and Record:
//
//	roia_fleet_ticks_total{zone,replica}    counter, processed ticks
//	roia_fleet_tick_mean_ms{zone,replica}   gauge, mean tick wall over the
//	                                        newest 512 records (the RMS's
//	                                        signal)
//	roia_fleet_tick_p95_ms{zone,replica}    gauge, p95 tick wall, same window
//	roia_fleet_deadline_ms{zone,replica}    gauge, tick QoS deadline 1/U
//	roia_fleet_deadline_violations_total{zone,replica}
//	                                        counter, ticks past the deadline
//	roia_fleet_tick_hiccups_total{zone,replica}
//	                                        counter, ticks flagged by the
//	                                        flight recorder's hiccup
//	                                        detector
//	roia_fleet_flightrec_captures_total{zone,replica}
//	                                        counter, flight-recorder
//	                                        captures frozen so far
//	roia_fleet_users{zone,replica}          gauge, connected users (a)
//	roia_fleet_draining{zone,replica}       gauge, 1 while draining
//	roia_fleet_tick_wall_q_ms{zone,q}       gauge, tick-wall tail quantiles
//	                                        over the zone's replicas' rings
//	                                        pooled (nearest rank, exact)
//	roia_fleet_zone_users{zone}             gauge, zone-wide users (n)
//	roia_fleet_npcs{zone}                   gauge, zone-wide NPCs (m)
//	roia_fleet_replicas{zone}               gauge, running replicas (l)
//	roia_fleet_nmax{zone}                   gauge, model ceiling n_max(l,m)
//	                                        (-1 unbounded; with a Model)
//	roia_fleet_lmax{zone}                   gauge, model ceiling l_max(m)
//	                                        (-1 unbounded; with a Model)
//	roia_fleet_migrations{zone,state}       gauge, stitched migrations in
//	                                        the replicas' flight-recorder
//	                                        rings (complete / incomplete)
//	roia_client_rtt_ms{stat}                gauge, client input→update RTT
//	                                        p50/p95/p99/p999/max/mean (with
//	                                        a ClientLatency source)
//	roia_client_rtt_count                   counter, RTTs observed
//	roia_client_rtt_deadline_ms             gauge, the RTT deadline
//	roia_client_rtt_deadline_violations_total
//	                                        counter, RTTs past it
func (c *Collector) scrape() []tsdb.Point {
	s := pointSet{index: make(map[string]int)}
	for _, fl := range c.cfg.Fleets {
		zone := fmt.Sprint(fl.Zone())
		var sums []telemetry.TickSummary
		for _, id := range fl.IDs() {
			srv, ok := fl.Server(id)
			if !ok {
				continue
			}
			rec := srv.FlightRecorder()
			sum := rec.Summary()
			sums = append(sums, sum)
			draining := 0.0
			if srv.Draining() {
				draining = 1
			}
			r := []string{"zone", zone, "replica", id}
			s.add("roia_fleet_ticks_total", tsdb.Counter, float64(sum.Ticks), r...)
			s.add("roia_fleet_tick_mean_ms", tsdb.Gauge, sum.Wall.Mean, r...)
			s.add("roia_fleet_tick_p95_ms", tsdb.Gauge, sum.Wall.P95, r...)
			s.add("roia_fleet_deadline_ms", tsdb.Gauge, sum.Newest.DeadlineMS, r...)
			s.add("roia_fleet_deadline_violations_total", tsdb.Counter, float64(sum.Violations), r...)
			s.add("roia_fleet_tick_hiccups_total", tsdb.Counter, float64(rec.Hiccups()), r...)
			s.add("roia_fleet_flightrec_captures_total", tsdb.Counter, float64(rec.CapturesTotal()), r...)
			s.add("roia_fleet_users", tsdb.Gauge, float64(srv.UserCount()), r...)
			s.add("roia_fleet_draining", tsdb.Gauge, draining, r...)
		}
		walls := telemetry.PooledWalls(sums...)
		for _, q := range []struct {
			name string
			p    float64
		}{
			{"p50", 50}, {"p90", 90}, {"p99", 99}, {"p999", 99.9},
		} {
			s.add("roia_fleet_tick_wall_q_ms", tsdb.Gauge, stats.Percentile(walls, q.p), "zone", zone, "q", q.name)
		}
		l, npcs := len(fl.IDs()), fl.NPCCount()
		z := []string{"zone", zone}
		s.add("roia_fleet_zone_users", tsdb.Gauge, float64(fl.ZoneUsers()), z...)
		s.add("roia_fleet_npcs", tsdb.Gauge, float64(npcs), z...)
		s.add("roia_fleet_replicas", tsdb.Gauge, float64(l), z...)
		if mdl := c.cfg.Model; mdl != nil {
			s.add("roia_fleet_nmax", tsdb.Gauge, ceiling(mdl.MaxUsers(l, npcs)), z...)
			s.add("roia_fleet_lmax", tsdb.Gauge, ceiling(mdl.MaxReplicas(npcs)), z...)
		}
		var complete, incomplete float64
		for _, m := range telemetry.StitchMigrations(fl.MigEvents()) {
			if m.Complete {
				complete++
			} else {
				incomplete++
			}
		}
		s.add("roia_fleet_migrations", tsdb.Gauge, complete, "zone", zone, "state", "complete")
		s.add("roia_fleet_migrations", tsdb.Gauge, incomplete, "zone", zone, "state", "incomplete")
	}
	if c.cfg.ClientLatency != nil {
		rtt := c.cfg.ClientLatency()
		for _, st := range []struct {
			name string
			v    float64
		}{
			{"p50", rtt.P50}, {"p95", rtt.P95}, {"p99", rtt.P99}, {"p999", rtt.P999},
			{"max", rtt.MaxMS}, {"mean", rtt.MeanMS},
		} {
			s.add("roia_client_rtt_ms", tsdb.Gauge, st.v, "stat", st.name)
		}
		s.add("roia_client_rtt_count", tsdb.Counter, float64(rtt.Count))
		s.add("roia_client_rtt_deadline_ms", tsdb.Gauge, rtt.DeadlineMS)
		s.add("roia_client_rtt_deadline_violations_total", tsdb.Counter, float64(rtt.Violations))
	}
	var pts []tsdb.Point
	for _, run := range s.runs {
		pts = append(pts, run...)
	}
	return pts
}

// ceiling renders a model ceiling: the value when the model reports a
// finite cap, -1 when unbounded.
func ceiling(v int, ok bool) float64 {
	if !ok {
		return -1
	}
	return float64(v)
}

// WriteMetrics writes the fleet-level exposition — the scrape's points
// (see scrape), then the attached alert engine's state, the SLOs' budget
// and burn gauges (tsdb.SLOEngine.WriteMetrics) and the history's own
// health (tsdb.Store.WriteMetrics). It matches telemetry.MetricsWriter.
func (c *Collector) WriteMetrics(w io.Writer, labels string) error {
	var b strings.Builder
	family := ""
	for _, p := range c.scrape() {
		if p.Family != family {
			family = p.Family
			fmt.Fprintf(&b, "# TYPE %s %s\n", family, p.Kind)
		}
		pairs := make([]string, 0, len(p.Labels)/2)
		for i := 0; i+1 < len(p.Labels); i += 2 {
			pairs = append(pairs, fmt.Sprintf("%s=%q", p.Labels[i], p.Labels[i+1]))
		}
		fmt.Fprintf(&b, "%s%s %s\n", family, telemetry.FormatLabels(labels, strings.Join(pairs, ",")), formatValue(p.V))
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	if engine := c.engine.Load(); engine != nil {
		if err := engine.WriteMetrics(w, labels); err != nil {
			return err
		}
	}
	if err := c.slo.WriteMetrics(w, labels); err != nil {
		return err
	}
	return c.store.WriteMetrics(w, labels)
}

// formatValue renders a sample value: integers in full, everything else
// in the shortest %g form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Record appends one scrape to the collector's history, every sample
// stamped t — the session second. It is the history's only writer: call
// it once per control second, and the retention horizon is
// tsdb.SeriesCapacity control seconds, however often dashboards scrape.
func (c *Collector) Record(t float64) {
	c.store.Append(t, c.scrape()...)
	c.records.Add(1)
}

// Recorded reports how many Record calls have landed — the readiness
// signal for /healthz (503 until the first scrape is retained).
func (c *Collector) Recorded() uint64 { return c.records.Load() }

// Handler returns the collector's HTTP surface:
//
//	/fleet/metrics     the WriteMetrics exposition
//	/fleet/query       range queries over the history Record keeps
//	                   (tsdb.QueryHandler)
//	/healthz           readiness: 503 until the first Record, 200 after
//	/fleet/migrations  the stitched cross-replica migration trace;
//	                   ?format=chrome (default; one process row per
//	                   replica, loadable in Perfetto) or ?format=jsonl
//	                   (one stitched migration per line)
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/fleet/metrics", telemetry.MetricsHandler("", c.WriteMetrics))
	mux.Handle("/fleet/query", tsdb.QueryHandler(c.store))
	mux.Handle("/healthz", telemetry.ReadyHandler(func() bool { return c.Recorded() > 0 }))
	mux.HandleFunc("/fleet/migrations", func(w http.ResponseWriter, r *http.Request) {
		events := c.MigEvents()
		switch format := r.URL.Query().Get("format"); format {
		case "", "chrome":
			w.Header().Set("Content-Type", "application/json")
			if err := telemetry.WriteMigrationChromeTrace(w, events); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		case "jsonl":
			w.Header().Set("Content-Type", "application/x-ndjson")
			if err := telemetry.WriteMigrationJSONL(w, telemetry.StitchMigrations(events)); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		default:
			http.Error(w, "migrations: format must be chrome or jsonl", http.StatusBadRequest)
		}
	})
	return mux
}

// Serve runs the collector's HTTP server on addr until ctx ends, with the
// same hardening as the per-server metrics endpoint: a read-header timeout
// against slowloris connections and a bounded graceful Shutdown so an
// in-flight scrape finishes but a hung one cannot block process exit. The
// listener is bound synchronously, so an address error is reported here and
// the returned string is the bound address (useful with port 0); serving
// then proceeds in the background.
func (c *Collector) Serve(ctx context.Context, addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	httpSrv := &http.Server{
		Handler:           c.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	// done joins the serve goroutine: the shutdown goroutine waits on it
	// after Shutdown so the server has actually stopped accepting before
	// the shutdown path completes, rather than racing process exit.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Printf("fleet: collector: %v\n", err)
		}
	}()
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			_ = httpSrv.Close()
		}
		<-done
	}()
	return ln.Addr().String(), nil
}
