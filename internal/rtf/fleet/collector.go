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
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"roia/internal/model"
	"roia/internal/stats"
	"roia/internal/telemetry"
	"roia/internal/telemetry/tsdb"
)

// Collector aggregates one or more fleets (one per zone) into a single
// observability surface: a /fleet/metrics Prometheus exposition with
// replica and zone labels, a /fleet/migrations endpoint serving the
// stitched cross-replica migration trace, and — when a time-series store
// is attached — a /fleet/query range endpoint over the retained history
// the collector records on every scrape.
type Collector struct {
	mu      sync.Mutex
	fleets  []*Fleet
	engine  *telemetry.AlertEngine
	extra   []telemetry.MetricsWriter
	store   *tsdb.Store
	model   *model.Model
	rtt     func() telemetry.LatencySnapshot
	records uint64
}

// NewCollector returns a collector over the given fleets.
func NewCollector(fleets ...*Fleet) *Collector {
	return &Collector{fleets: append([]*Fleet(nil), fleets...)}
}

// Add registers another fleet.
func (c *Collector) Add(fl *Fleet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	//roialint:ignore boundedgrowth registration list, one entry per zone wired at startup
	c.fleets = append(c.fleets, fl)
}

// SetAlerts attaches an alert engine whose state is exported with the
// fleet metrics.
func (c *Collector) SetAlerts(e *telemetry.AlertEngine) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.engine = e
}

// AddMetrics appends an extra exposition section (e.g. a model-drift
// tracker's WriteMetrics or telemetry.WriteRuntimeMetrics) to the
// /fleet/metrics scrape.
func (c *Collector) AddMetrics(w telemetry.MetricsWriter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	//roialint:ignore boundedgrowth registration list, one exposition section per subsystem wired at startup
	c.extra = append(c.extra, w)
}

// SetStore attaches a bounded time-series store. Once attached, every
// /fleet/metrics scrape (and every explicit Record call) appends the
// scrape's replica and zone numbers to the store, and Handler serves the
// retained history at /fleet/query.
func (c *Collector) SetStore(st *tsdb.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = st
}

// SetModel attaches the scalability model so the scrape can export the
// predicted capacity ceilings n_max(l,m) and l_max(m) next to the observed
// n, l, m — the live headroom comparison the dashboard renders.
func (c *Collector) SetModel(m *model.Model) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.model = m
}

// SetClientLatency attaches a client input→update RTT snapshot source
// (e.g. bots.FleetDriver.ClientLatency().Snapshot); Record then feeds the
// RTT event/violation counters into the store as the client-side SLI.
func (c *Collector) SetClientLatency(fn func() telemetry.LatencySnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rtt = fn
}

func (c *Collector) snapshot() ([]*Fleet, *telemetry.AlertEngine, []telemetry.MetricsWriter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Fleet(nil), c.fleets...), c.engine, append([]telemetry.MetricsWriter(nil), c.extra...)
}

// replicaRow is one live replica's scrape snapshot.
type replicaRow struct {
	zone       uint32
	id         string
	ticks      uint64
	meanMS     float64
	p95MS      float64
	users      int
	draining   bool
	deadlineMS float64
	violations uint64
	hiccups    uint64
	captures   uint64
}

// MigEvents merges the migration events of every registered fleet, keyed by
// replica ID — the collector-level input to telemetry.StitchMigrations.
func (c *Collector) MigEvents() map[string][]telemetry.MigEvent {
	fleets, _, _ := c.snapshot()
	out := make(map[string][]telemetry.MigEvent)
	for _, fl := range fleets {
		for id, events := range fl.MigEvents() {
			out[id] = append(out[id], events...)
		}
	}
	return out
}

// WriteMetrics writes the fleet-level exposition: per-replica-labeled tick
// and user-count families for every live replica, per-zone aggregates,
// migration-trace completeness counters, and (when attached) the alert
// engine's state. It matches telemetry.MetricsWriter.
//
// Exported families:
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
//	                                        (-1 unbounded; only with an
//	                                        attached model)
//	roia_fleet_lmax{zone}                   gauge, model ceiling l_max(m)
//	                                        (-1 unbounded; only with an
//	                                        attached model)
//	roia_fleet_migrations{zone,state}       gauge, stitched migrations in
//	                                        the replicas' flight-recorder
//	                                        rings (complete / incomplete)
//
// zoneRow is one zone's aggregated scrape snapshot.
type zoneRow struct {
	zone              uint32
	users, npcs, l    int
	complete, incompl int
	// walls is every tick wall time in the replicas' rings, ascending.
	walls []float64

	// Model capacity ceilings; modeled is false without an attached model,
	// and the nmax/lmax families are omitted from the scrape. A false
	// nmaxOK/lmaxOK means the model reports no finite ceiling at this
	// configuration (exported as -1).
	modeled        bool
	nmax, lmax     int
	nmaxOK, lmaxOK bool
}

// collect walks every registered fleet and returns the per-replica and
// per-zone scrape snapshot — the shared input of the /fleet/metrics
// exposition (WriteMetrics) and the history feed (Record).
func (c *Collector) collect() ([]replicaRow, []zoneRow) {
	c.mu.Lock()
	fleets := append([]*Fleet(nil), c.fleets...)
	mdl := c.model
	c.mu.Unlock()
	var rows []replicaRow
	var zones []zoneRow
	for _, fl := range fleets {
		z := uint32(fl.Zone())
		zr := zoneRow{zone: z}
		var sums []telemetry.TickSummary
		for _, id := range fl.IDs() {
			srv, ok := fl.Server(id)
			if !ok {
				continue
			}
			rec := srv.FlightRecorder()
			sum := rec.Summary()
			rows = append(rows, replicaRow{
				zone:       z,
				id:         id,
				ticks:      sum.Ticks,
				meanMS:     sum.Wall.Mean,
				p95MS:      sum.Wall.P95,
				users:      srv.UserCount(),
				draining:   srv.Draining(),
				deadlineMS: sum.Newest.DeadlineMS,
				violations: sum.Violations,
				hiccups:    rec.Hiccups(),
				captures:   rec.CapturesTotal(),
			})
			sums = append(sums, sum)
		}
		zr.users, zr.npcs, zr.l, zr.walls = fl.ZoneUsers(), fl.NPCCount(), len(fl.IDs()), telemetry.PooledWalls(sums...)
		for _, m := range telemetry.StitchMigrations(fl.MigEvents()) {
			if m.Complete {
				zr.complete++
			} else {
				zr.incompl++
			}
		}
		if mdl != nil {
			zr.modeled = true
			zr.nmax, zr.nmaxOK = mdl.MaxUsers(zr.l, zr.npcs)
			zr.lmax, zr.lmaxOK = mdl.MaxReplicas(zr.npcs)
		}
		zones = append(zones, zr)
	}
	return rows, zones
}

func (c *Collector) WriteMetrics(w io.Writer, labels string) error {
	_, engine, extra := c.snapshot()
	rows, zones := c.collect()

	lbl := func(extra string) string { return telemetry.FormatLabels(labels, extra) }
	rlbl := func(r replicaRow) string {
		return lbl(fmt.Sprintf("zone=\"%d\",replica=%q", r.zone, r.id))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE roia_fleet_ticks_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "roia_fleet_ticks_total%s %d\n", rlbl(r), r.ticks)
	}
	fmt.Fprintf(&b, "# TYPE roia_fleet_tick_mean_ms gauge\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "roia_fleet_tick_mean_ms%s %g\n", rlbl(r), r.meanMS)
	}
	fmt.Fprintf(&b, "# TYPE roia_fleet_tick_p95_ms gauge\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "roia_fleet_tick_p95_ms%s %g\n", rlbl(r), r.p95MS)
	}
	fmt.Fprintf(&b, "# TYPE roia_fleet_deadline_ms gauge\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "roia_fleet_deadline_ms%s %g\n", rlbl(r), r.deadlineMS)
	}
	fmt.Fprintf(&b, "# TYPE roia_fleet_deadline_violations_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "roia_fleet_deadline_violations_total%s %d\n", rlbl(r), r.violations)
	}
	fmt.Fprintf(&b, "# TYPE roia_fleet_tick_hiccups_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "roia_fleet_tick_hiccups_total%s %d\n", rlbl(r), r.hiccups)
	}
	fmt.Fprintf(&b, "# TYPE roia_fleet_flightrec_captures_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "roia_fleet_flightrec_captures_total%s %d\n", rlbl(r), r.captures)
	}
	fmt.Fprintf(&b, "# TYPE roia_fleet_users gauge\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "roia_fleet_users%s %d\n", rlbl(r), r.users)
	}
	fmt.Fprintf(&b, "# TYPE roia_fleet_draining gauge\n")
	for _, r := range rows {
		d := 0
		if r.draining {
			d = 1
		}
		fmt.Fprintf(&b, "roia_fleet_draining%s %d\n", rlbl(r), d)
	}
	fmt.Fprintf(&b, "# TYPE roia_fleet_tick_wall_q_ms gauge\n")
	for _, z := range zones {
		for _, q := range []struct {
			name string
			p    float64
		}{
			{"p50", 50}, {"p90", 90}, {"p99", 99}, {"p999", 99.9},
		} {
			fmt.Fprintf(&b, "roia_fleet_tick_wall_q_ms%s %g\n",
				lbl(fmt.Sprintf("zone=\"%d\",q=%q", z.zone, q.name)), stats.Percentile(z.walls, q.p))
		}
	}
	fmt.Fprintf(&b, "# TYPE roia_fleet_zone_users gauge\n")
	for _, z := range zones {
		fmt.Fprintf(&b, "roia_fleet_zone_users%s %d\n", lbl(fmt.Sprintf("zone=\"%d\"", z.zone)), z.users)
	}
	fmt.Fprintf(&b, "# TYPE roia_fleet_npcs gauge\n")
	for _, z := range zones {
		fmt.Fprintf(&b, "roia_fleet_npcs%s %d\n", lbl(fmt.Sprintf("zone=\"%d\"", z.zone)), z.npcs)
	}
	fmt.Fprintf(&b, "# TYPE roia_fleet_replicas gauge\n")
	for _, z := range zones {
		fmt.Fprintf(&b, "roia_fleet_replicas%s %d\n", lbl(fmt.Sprintf("zone=\"%d\"", z.zone)), z.l)
	}
	anyModel := false
	for _, z := range zones {
		if z.modeled {
			anyModel = true
			break
		}
	}
	if anyModel {
		fmt.Fprintf(&b, "# TYPE roia_fleet_nmax gauge\n")
		for _, z := range zones {
			if z.modeled {
				fmt.Fprintf(&b, "roia_fleet_nmax%s %d\n", lbl(fmt.Sprintf("zone=\"%d\"", z.zone)), capOrMinusOne(z.nmax, z.nmaxOK))
			}
		}
		fmt.Fprintf(&b, "# TYPE roia_fleet_lmax gauge\n")
		for _, z := range zones {
			if z.modeled {
				fmt.Fprintf(&b, "roia_fleet_lmax%s %d\n", lbl(fmt.Sprintf("zone=\"%d\"", z.zone)), capOrMinusOne(z.lmax, z.lmaxOK))
			}
		}
	}
	fmt.Fprintf(&b, "# TYPE roia_fleet_migrations gauge\n")
	for _, z := range zones {
		fmt.Fprintf(&b, "roia_fleet_migrations%s %d\n", lbl(fmt.Sprintf("zone=\"%d\",state=\"complete\"", z.zone)), z.complete)
		fmt.Fprintf(&b, "roia_fleet_migrations%s %d\n", lbl(fmt.Sprintf("zone=\"%d\",state=\"incomplete\"", z.zone)), z.incompl)
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	if engine != nil {
		if err := engine.WriteMetrics(w, labels); err != nil {
			return err
		}
	}
	for _, write := range extra {
		if err := write(w, labels); err != nil {
			return err
		}
	}
	return nil
}

// capOrMinusOne renders a model ceiling: the value when the model reports
// a finite cap, -1 when unbounded.
func capOrMinusOne(v int, ok bool) int {
	if !ok {
		return -1
	}
	return v
}

// Record appends the current scrape snapshot to the attached time-series
// store (a no-op without one): per-replica tick/violation/user series,
// per-zone occupancy and tail-quantile series, the model ceilings when a
// model is attached, and the client RTT SLI counters when a latency source
// is attached. Each call lands one sample per series, stamped with the
// store's clock — called once per scrape (or once per session second), the
// ring retention horizon is capacity × that cadence.
func (c *Collector) Record() {
	c.mu.Lock()
	st, rtt := c.store, c.rtt
	c.mu.Unlock()
	if st == nil {
		// Still count the scrape: readiness means "the collector has walked
		// the fleet once", with or without retained history.
		c.mu.Lock()
		c.records++
		c.mu.Unlock()
		return
	}
	rows, zones := c.collect()
	for _, r := range rows {
		lbl := map[string]string{"zone": fmt.Sprintf("%d", r.zone), "replica": r.id}
		st.Append("roia_fleet_ticks_total", lbl, tsdb.Counter, float64(r.ticks))
		st.Append("roia_fleet_tick_mean_ms", lbl, tsdb.Gauge, r.meanMS)
		st.Append("roia_fleet_tick_p95_ms", lbl, tsdb.Gauge, r.p95MS)
		st.Append("roia_fleet_deadline_violations_total", lbl, tsdb.Counter, float64(r.violations))
		st.Append("roia_fleet_tick_hiccups_total", lbl, tsdb.Counter, float64(r.hiccups))
		st.Append("roia_fleet_users", lbl, tsdb.Gauge, float64(r.users))
	}
	for _, z := range zones {
		lbl := map[string]string{"zone": fmt.Sprintf("%d", z.zone)}
		st.Append("roia_fleet_zone_users", lbl, tsdb.Gauge, float64(z.users))
		st.Append("roia_fleet_npcs", lbl, tsdb.Gauge, float64(z.npcs))
		st.Append("roia_fleet_replicas", lbl, tsdb.Gauge, float64(z.l))
		if z.modeled {
			st.Append("roia_fleet_nmax", lbl, tsdb.Gauge, float64(capOrMinusOne(z.nmax, z.nmaxOK)))
			st.Append("roia_fleet_lmax", lbl, tsdb.Gauge, float64(capOrMinusOne(z.lmax, z.lmaxOK)))
		}
		for _, q := range []struct {
			name string
			p    float64
		}{
			{"p50", 50}, {"p90", 90}, {"p99", 99},
		} {
			st.Append("roia_fleet_tick_wall_q_ms",
				map[string]string{"zone": fmt.Sprintf("%d", z.zone), "q": q.name},
				tsdb.Gauge, stats.Percentile(z.walls, q.p))
		}
	}
	if rtt != nil {
		snap := rtt()
		st.Append("roia_client_rtt_count", nil, tsdb.Counter, float64(snap.Count))
		st.Append("roia_client_rtt_deadline_violations_total", nil, tsdb.Counter, float64(snap.Violations))
	}
	c.mu.Lock()
	c.records++
	c.mu.Unlock()
}

// Recorded reports how many Record calls have landed — the readiness
// signal for /healthz (503 until the first scrape is retained).
func (c *Collector) Recorded() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.records
}

// Handler returns the collector's HTTP surface:
//
//	/fleet/metrics     the WriteMetrics exposition; with a store attached,
//	                   every scrape also appends to the retained history
//	/fleet/query       range queries over the retained history (with a
//	                   store attached; 404 otherwise)
//	/healthz           readiness: 503 until the first scrape is recorded,
//	                   200 after
//	/fleet/migrations  the stitched cross-replica migration trace;
//	                   ?format=chrome (default; one process row per
//	                   replica, loadable in Perfetto) or ?format=jsonl
//	                   (one stitched migration per line)
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	metrics := telemetry.MetricsHandler("", c.WriteMetrics)
	mux.HandleFunc("/fleet/metrics", func(w http.ResponseWriter, r *http.Request) {
		c.Record()
		metrics.ServeHTTP(w, r)
	})
	c.mu.Lock()
	st := c.store
	c.mu.Unlock()
	if st != nil {
		mux.Handle("/fleet/query", tsdb.QueryHandler(st))
	}
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
