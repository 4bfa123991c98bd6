// Command roiaserver runs one RTF application server over TCP, processing
// the RTFDemo-analogue shooter for one zone. Multiple roiaserver processes
// replicating the same zone exchange shadow updates and forwarded inputs;
// cmd/roiabot generates load against them.
//
// Example — two replicas of zone 1 on one machine:
//
//	roiaserver -id s1 -listen 127.0.0.1:7001 -peers s2=127.0.0.1:7002
//	roiaserver -id s2 -listen 127.0.0.1:7002 -peers s1=127.0.0.1:7001
//	roiabot    -server s1=127.0.0.1:7001 -bots 50
//
// Every tick's TickRecord — task spans, workload gauges, the QoS deadline
// (the tick interval, 1/U), the tick's GC pause and heap allocations, and
// its bytes to clients — lands in the flight recorder's ring, the server's
// one tick history. The server prints a monitoring line once per second
// from it: connected users, zone users, mean tick duration, and the
// per-task model parameters measured by the RTF hooks.
//
// With -metrics the server also exposes an observability endpoint:
// Prometheus metrics (QoS deadline violations, tail quantiles over the
// ring, hiccup counters, model-drift gauges — aggregate and per-task, each
// ring record compared with the model at its own workload — and Go runtime
// stats) on /metrics, the ring's recent ticks as a trace on
// /debug/ticktrace, flight-recorder
// captures as JSONL on /debug/flightrec, and pprof on /debug/pprof/. With
// -trace-out the ring is written as Chrome trace-event JSON at shutdown,
// loadable in Perfetto; with -flightrec-out the captures (pre/post
// windows around deadline-violating or hiccup ticks) are written as JSONL
// at shutdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"roia/internal/game"
	"roia/internal/model"
	"roia/internal/params"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/monitor"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

var (
	idFlag      = flag.String("id", "s1", "server node ID (unique per session)")
	listenFlag  = flag.String("listen", "127.0.0.1:7001", "TCP listen address")
	zoneFlag    = flag.Uint("zone", 1, "zone ID this server processes")
	peersFlag   = flag.String("peers", "", "comma-separated peer replicas: id=host:port,...")
	tickFlag    = flag.Duration("tick", 40*time.Millisecond, "tick interval (40ms = 25Hz)")
	npcFlag     = flag.Int("npcs", 0, "NPCs to spawn on this server")
	prefixFlag  = flag.Uint("idprefix", 1, "entity-ID prefix (unique per server)")
	seedFlag    = flag.Int64("seed", 1, "random seed for the application logic")
	quietFlag   = flag.Bool("quiet", false, "suppress the per-second monitoring line")
	metricsFlag = flag.String("metrics", "", "serve metrics/pprof/ticktrace on this address (e.g. 127.0.0.1:9100)")
	traceFlag   = flag.String("trace-out", "", "write the tick trace as Chrome trace JSON to this file at shutdown")
	flightOut   = flag.String("flightrec-out", "", "write flight-recorder captures as JSONL to this file at shutdown")
	hiccupK     = flag.Float64("hiccup-k", telemetry.DefaultHiccupK, "flag a tick as a hiccup when its wall time exceeds k x the rolling median")
	parFlag     = flag.Int("parallelism", 1, "worker count for the tick pipeline's parallel stages (1 = sequential; wire output is identical either way)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "roiaserver:", err)
		os.Exit(1)
	}
}

func run() error {
	net := transport.NewTCP()
	node, err := net.AttachListener(*idFlag, *listenFlag, 1<<16)
	if err != nil {
		return err
	}
	defer node.Close()

	assignment := zone.NewAssignment()
	assignment.AddReplica(zone.ID(*zoneFlag), *idFlag)
	if *peersFlag != "" {
		for _, spec := range strings.Split(*peersFlag, ",") {
			id, addr, ok := strings.Cut(strings.TrimSpace(spec), "=")
			if !ok {
				return fmt.Errorf("bad -peers entry %q (want id=host:port)", spec)
			}
			net.Register(id, addr)
			assignment.AddReplica(zone.ID(*zoneFlag), id)
		}
	}

	flightRec := telemetry.NewFlightRecorder(telemetry.FlightRecConfig{K: *hiccupK})
	srv, err := server.New(server.Config{
		Node:         node,
		Zone:         zone.ID(*zoneFlag),
		Assignment:   assignment,
		App:          game.New(game.DefaultConfig()),
		IDPrefix:     uint16(*prefixFlag),
		Seed:         *seedFlag,
		TickInterval: *tickFlag,
		FlightRec:    flightRec,
		Parallelism:  *parFlag,
	})
	if err != nil {
		return err
	}
	for i := 0; i < *npcFlag; i++ {
		srv.SpawnNPC(npcPos(i))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if !*quietFlag {
		go report(ctx, srv)
	}

	if *metricsFlag != "" {
		// Drift is read from the ring at scrape time against the model
		// solved for U = the tick interval.
		mdl, err := model.New(params.RTFDemo(), float64(tickFlag.Microseconds())/1000, params.CDefault)
		if err != nil {
			return fmt.Errorf("drift model: %w", err)
		}
		if err := serveMetrics(ctx, flightRec, mdl); err != nil {
			return err
		}
	}
	fmt.Printf("roiaserver %s: zone %d on %s, tick %v, %d peers\n",
		*idFlag, *zoneFlag, *listenFlag, *tickFlag, assignment.ReplicaCount(zone.ID(*zoneFlag))-1)
	runErr := srv.Run(ctx)
	if runErr != nil && ctx.Err() == nil {
		return runErr
	}
	if err := srv.Stop(); err != nil {
		return err
	}
	if *traceFlag != "" {
		n, err := dumpTrace(flightRec, *traceFlag)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		fmt.Printf("wrote %d tick traces to %s\n", n, *traceFlag)
	}
	if *flightOut != "" {
		if err := dumpFlightRec(flightRec, *flightOut); err != nil {
			return fmt.Errorf("flightrec-out: %w", err)
		}
		fmt.Printf("wrote %d flight-recorder captures to %s (%d hiccups observed)\n",
			len(flightRec.Captures()), *flightOut, flightRec.Hiccups())
	}
	return nil
}

// serveMetrics starts the observability HTTP server: Prometheus metrics,
// the flight recorder's tick trace and captures, and pprof. It shuts down
// gracefully when ctx ends.
func serveMetrics(ctx context.Context, flightRec *telemetry.FlightRecorder, mdl *model.Model) error {
	labels := fmt.Sprintf("server=%q,zone=\"%d\"", *idFlag, *zoneFlag)
	writers := []telemetry.MetricsWriter{
		flightRec.WriteMetrics,
		func(w io.Writer, labels string) error {
			return monitor.ModelDrift(mdl, flightRec.Last(0)).WriteMetrics(w, labels)
		},
		telemetry.WriteRuntimeMetrics,
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.MetricsHandler(labels, writers...))
	mux.Handle("/healthz", telemetry.ReadyHandler(func() bool { return len(flightRec.Last(1)) > 0 }))
	mux.Handle("/debug/ticktrace", telemetry.TraceHandler(flightRec))
	mux.Handle("/debug/flightrec", telemetry.FlightRecHandler(flightRec))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	httpSrv := &http.Server{
		Addr:              *metricsFlag,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	// done joins the serve goroutine: shutdown waits for the listener to
	// actually stop before the shutdown path completes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "roiaserver: metrics:", err)
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
	fmt.Printf("metrics on http://%s/metrics, traces on /debug/ticktrace, flight recorder on /debug/flightrec, pprof on /debug/pprof/\n", *metricsFlag)
	return nil
}

// dumpFlightRec writes the frozen flight-recorder captures as JSONL.
func dumpFlightRec(rec *telemetry.FlightRecorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteFlightJSONL(f, rec.Captures()); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// dumpTrace writes the flight recorder's ring as Chrome trace-event JSON
// and reports how many ticks it wrote.
func dumpTrace(rec *telemetry.FlightRecorder, path string) (int, error) {
	recs := rec.Last(0)
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := telemetry.WriteChromeTrace(f, recs); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return 0, err
	}
	return len(recs), f.Close()
}

// npcPos spreads initial NPCs deterministically over the world.
func npcPos(i int) entity.Vec2 {
	return entity.Vec2{X: float64((i*137)%1000) + 0.5, Y: float64((i*251)%1000) + 0.5}
}

func report(ctx context.Context, srv *server.Server) {
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			sum := srv.FlightRecorder().Summary()
			fmt.Printf("[%s] users=%d/%d tick(mean)=%.3fms t_ua=%.4f t_aoi=%.4f t_su=%.4f ticks=%d\n",
				srv.ID(), srv.UserCount(), srv.ZoneUserCount(), sum.Wall.Mean,
				sum.Tasks[monitor.UA.String()].Mean,
				sum.Tasks[monitor.AOI.String()].Mean,
				sum.Tasks[monitor.SU.String()].Mean,
				sum.Ticks)
		}
	}
}
