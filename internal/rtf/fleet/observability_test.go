package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"roia/internal/game"
	"roia/internal/model"
	"roia/internal/params"
	"roia/internal/rms"
	"roia/internal/rtf/client"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/fleet"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

// obsHarness is the fleet harness with roiarms's observer config — flight
// recorders, which carry the migration trace — and lifecycle events
// enabled.
type obsHarness struct {
	*harness
	events *telemetry.MemoryFleetEvents
}

func newObsHarness(t *testing.T) *obsHarness {
	t.Helper()
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	events := &telemetry.MemoryFleetEvents{}
	fl, err := fleet.New(fleet.Config{
		Network:    net,
		Zone:       1,
		Assignment: zone.NewAssignment(),
		NewApp:     func() server.Application { return game.New(game.DefaultConfig()) },
		Seed:       7,
		Events:     events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.AddReplica(); err != nil {
		t.Fatal(err)
	}
	return &obsHarness{harness: &harness{net: net, fl: fl}, events: events}
}

// tinyModel returns a scalability model with deliberately large per-user
// costs, so threshold crossings (n_max, migration budgets) are reachable
// with a handful of bots instead of hundreds.
func tinyModel(t *testing.T) *model.Model {
	t.Helper()
	set := &params.Set{
		Name:    "tiny",
		UADeser: params.Constant(1.5),
		UA:      params.Constant(1.5),
		FADeser: params.Constant(0.001),
		FA:      params.Constant(0.001),
		NPC:     params.Constant(0.1),
		AOI:     params.Constant(1.5),
		SU:      params.Constant(1.5),
		MigIni:  params.Constant(1.0),
		MigRcv:  params.Constant(0.7),
	}
	mdl, err := model.New(set, 40, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	return mdl
}

// TestMigrationTraceAcrossReplicas is the tentpole acceptance test: a user
// migration between two live replicas produces one Chrome trace in which
// the init span sits on the source replica's process row, the recv span on
// the destination's, and both carry the same migration ID.
func TestMigrationTraceAcrossReplicas(t *testing.T) {
	h := newObsHarness(t)
	id2, err := h.fl.AddReplica()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		h.addBot(t, "server-1")
	}
	for i := 0; i < 10; i++ {
		h.step()
	}
	s1, _ := h.fl.Server("server-1")
	s1.MigrateUsers(id2, 3)
	for i := 0; i < 10; i++ {
		h.step()
	}

	perReplica := h.fl.MigEvents()
	migs := telemetry.StitchMigrations(perReplica)
	if len(migs) != 3 {
		t.Fatalf("stitched %d migrations, want 3: %+v", len(migs), migs)
	}
	for _, m := range migs {
		if !m.Complete {
			t.Fatalf("migration %d incomplete on a lossless transport: %+v", m.ID, m)
		}
		if m.From != "server-1" || m.To != id2 {
			t.Fatalf("migration %d endpoints = %s -> %s", m.ID, m.From, m.To)
		}
		if m.Ack == nil {
			t.Fatalf("migration %d missing source-side ack", m.ID)
		}
		if m.Init.Tick == 0 || m.Init.UnixMicro == 0 {
			t.Fatalf("init event missing tick/time: %+v", m.Init)
		}
	}

	var buf bytes.Buffer
	if err := telemetry.WriteMigrationChromeTrace(&buf, perReplica); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	// Process rows: one per replica.
	rowOf := make(map[string]int)
	for _, e := range trace.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			rowOf[e.Args["name"].(string)] = e.PID
		}
	}
	if len(rowOf) != 2 {
		t.Fatalf("process rows = %v, want 2 replicas", rowOf)
	}
	// Every migration ID has its init on server-1's row and its recv on
	// server-2's row.
	initRows := make(map[uint64]int)
	recvRows := make(map[uint64]int)
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		id := uint64(e.Args["migration_id"].(float64))
		switch e.Name {
		case "mig_init":
			initRows[id] = e.PID
		case "mig_recv":
			recvRows[id] = e.PID
		}
	}
	if len(initRows) != 3 || len(recvRows) != 3 {
		t.Fatalf("init rows %v recv rows %v, want 3 migrations on both sides", initRows, recvRows)
	}
	for id, initPID := range initRows {
		recvPID, ok := recvRows[id]
		if !ok {
			t.Fatalf("migration %d has no recv span", id)
		}
		if initPID != rowOf["replica server-1"] || recvPID != rowOf["replica "+id2] {
			t.Fatalf("migration %d spans on rows init=%d recv=%d, want %d and %d",
				id, initPID, recvPID, rowOf["replica server-1"], rowOf["replica "+id2])
		}
	}
}

// TestMigrationTraceOverLossyTransport drives migrations over a transport
// that drops messages: every initiated migration must either stitch
// complete or be flagged incomplete — never vanish from the trace.
func TestMigrationTraceOverLossyTransport(t *testing.T) {
	base := transport.NewLoopback()
	t.Cleanup(func() { base.Close() })
	assign := zone.NewAssignment()
	var links []*transport.Lossy
	newServer := func(name string, idPrefix uint16, rec *telemetry.FlightRecorder) *server.Server {
		node, err := base.Attach(name, 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		// Joins happen over a clean link; the loss is phased in once the
		// clients are connected, so only the migration traffic is degraded.
		lossy := transport.NewLossy(node, 0, int64(idPrefix))
		links = append(links, lossy)
		srv, err := server.New(server.Config{
			Node:       lossy,
			Zone:       1,
			Assignment: assign,
			App:        game.New(game.DefaultConfig()),
			IDPrefix:   idPrefix,
			Seed:       int64(idPrefix),
			FlightRec:  rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		t.Cleanup(func() { srv.Stop() })
		return srv
	}
	rec1 := telemetry.NewFlightRecorder(telemetry.FlightRecConfig{})
	rec2 := telemetry.NewFlightRecorder(telemetry.FlightRecConfig{})
	s1 := newServer("lossy-1", 1, rec1)
	s2 := newServer("lossy-2", 2, rec2)

	var clients []*client.Client
	step := func() {
		s1.Tick()
		s2.Tick()
		for _, cl := range clients {
			cl.Poll()
		}
	}
	for i := 0; i < 8; i++ {
		node, err := base.Attach(fmt.Sprintf("lc-%d", i), 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		cl := client.New(node, "lossy-1")
		pos := entity.Vec2{X: float64(100 + i), Y: 100}
		if err := cl.Join(1, pos, node.ID()); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
		for j := 0; j < 20 && !cl.Joined(); j++ {
			step()
		}
		if !cl.Joined() {
			t.Fatalf("client %d never joined", i)
		}
	}
	for i := 0; i < 10; i++ {
		step()
	}
	// Degrade both servers' outbound links, then migrate: some transfers
	// and acks will be lost mid-flight.
	for _, l := range links {
		l.SetRate(0.4)
	}
	s1.MigrateUsers("lossy-2", 6)
	for i := 0; i < 20; i++ {
		step()
	}

	perReplica := map[string][]telemetry.MigEvent{
		"lossy-1": rec1.Migrations(),
		"lossy-2": rec2.Migrations(),
	}
	migs := telemetry.StitchMigrations(perReplica)
	inits := 0
	for _, e := range rec1.Migrations() {
		if e.Phase == telemetry.MigPhaseInit {
			inits++
		}
	}
	if inits == 0 {
		t.Fatal("no migrations initiated")
	}
	if len(migs) != inits {
		t.Fatalf("stitched %d migrations from %d inits: initiated migrations must never vanish", len(migs), inits)
	}
	complete, incomplete := 0, 0
	for _, m := range migs {
		if m.Complete {
			complete++
		} else {
			incomplete++
		}
	}
	if complete+incomplete != inits {
		t.Fatalf("complete %d + incomplete %d != initiated %d", complete, incomplete, inits)
	}
	if incomplete == 0 {
		t.Fatal("40% loss dropped no migration transfer; lossy path untested")
	}
	// The incomplete markers must survive into the Chrome export.
	var buf bytes.Buffer
	if err := telemetry.WriteMigrationChromeTrace(&buf, perReplica); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"incomplete":true`) {
		t.Fatal("chrome trace carries no incomplete markers")
	}
}

func TestFleetLifecycleEvents(t *testing.T) {
	h := newObsHarness(t)
	id2, err := h.fl.AddReplica()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.fl.SetDraining(id2, true); err != nil {
		t.Fatal(err)
	}
	if err := h.fl.RemoveReplica(id2); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, e := range h.events.Snapshot() {
		kinds = append(kinds, e.Kind+":"+e.Replica)
		if e.Zone != 1 {
			t.Fatalf("event zone = %d, want 1: %+v", e.Zone, e)
		}
		if e.UnixMicro == 0 {
			t.Fatalf("event missing timestamp: %+v", e)
		}
	}
	want := []string{"spawn:server-1", "spawn:" + id2, "drain:" + id2, "stop:" + id2}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
}

func TestCollectorServesFleetMetrics(t *testing.T) {
	h := newObsHarness(t)
	id2, err := h.fl.AddReplica()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h.addBot(t, "server-1")
	}
	for i := 0; i < 10; i++ {
		h.step()
	}
	s1, _ := h.fl.Server("server-1")
	s1.MigrateUsers(id2, 2)
	for i := 0; i < 10; i++ {
		h.step()
	}

	col := fleet.NewCollector(fleet.CollectorConfig{Fleets: []*fleet.Fleet{h.fl}})
	ts := httptest.NewServer(col.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/fleet/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		`roia_fleet_ticks_total{zone="1",replica="server-1"}`,
		`roia_fleet_tick_mean_ms{zone="1",replica="` + id2 + `"}`,
		`roia_fleet_users{zone="1",replica="server-1"} 2`,
		`roia_fleet_users{zone="1",replica="` + id2 + `"} 2`,
		`roia_fleet_zone_users{zone="1"} 4`,
		`roia_fleet_replicas{zone="1"} 2`,
		`roia_fleet_migrations{zone="1",state="complete"} 2`,
		`roia_fleet_migrations{zone="1",state="incomplete"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
	// Each family must declare its TYPE exactly once even with two replicas.
	if got := strings.Count(out, "# TYPE roia_fleet_users "); got != 1 {
		t.Fatalf("roia_fleet_users TYPE declared %d times", got)
	}

	// The stitched migration trace is served in both formats.
	resp, err = http.Get(ts.URL + "/fleet/migrations")
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&trace)
	resp.Body.Close()
	if err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("chrome endpoint: err=%v events=%d", err, len(trace.TraceEvents))
	}
	resp, err = http.Get(ts.URL + "/fleet/migrations?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if lines := strings.Count(strings.TrimSpace(string(body)), "\n") + 1; lines != 2 {
		t.Fatalf("jsonl endpoint returned %d migrations, want 2", lines)
	}
	resp, err = http.Get(ts.URL + "/fleet/migrations?format=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus format: status %d, want 400", resp.StatusCode)
	}
}

func TestCollectorServeGracefulShutdown(t *testing.T) {
	h := newObsHarness(t)
	col := fleet.NewCollector(fleet.CollectorConfig{Fleets: []*fleet.Fleet{h.fl}})
	ctx, cancel := context.WithCancel(context.Background())
	addr, err := col.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/fleet/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	cancel()
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, err := http.Get("http://" + addr + "/fleet/metrics")
		if err != nil {
			break // listener closed: shutdown completed
		}
		if time.Now().After(deadline) {
			t.Fatal("collector still serving 3s after ctx cancel")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFlashCrowdAlertLifecycle is the alerting acceptance test: a flash
// crowd pushes one replica past its n_max share, the alert goes
// pending → firing, the RMS manager replicates and rebalances, and the
// alert resolves. The JSONL log records the thresholds at each transition.
func TestFlashCrowdAlertLifecycle(t *testing.T) {
	h := newObsHarness(t)
	mdl := tinyModel(t)

	nmax1, ok := mdl.MaxUsers(1, 0)
	if !ok {
		t.Fatal("tiny model has no n_max(1)")
	}
	crowd := nmax1 + 4 // decisively past a single replica's capacity

	var jsonl bytes.Buffer
	log := telemetry.NewAlertLog(&jsonl)
	engine := telemetry.NewAlertEngine(log, h.fl.AlertRules(fleet.AlertConfig{Model: mdl})...)
	mgr := rms.NewManager(h.fl, rms.Config{Model: mdl, UnpacedMigrations: true})

	for i := 0; i < crowd; i++ {
		h.addBot(t, "server-1")
	}
	for i := 0; i < 10; i++ {
		h.step()
	}

	// The flash crowd lands before the control loop reacts: the overload
	// alert must walk pending → firing on live evaluations alone.
	seen := make(map[string]bool)
	observe := func(sec float64) {
		engine.Eval(sec)
		for _, a := range engine.Active() {
			if a.Rule == fleet.AlertReplicaOverNMax {
				seen[a.State.String()] = true
			}
		}
		for _, line := range strings.Split(jsonl.String(), "\n") {
			if strings.Contains(line, fleet.AlertReplicaOverNMax) && strings.Contains(line, `"state":"resolved"`) {
				seen["resolved"] = true
			}
		}
	}
	observe(0)
	observe(1)
	if !seen["firing"] {
		t.Fatalf("overload alert not firing before RMS reacts (saw %v)\nlog:\n%s", seen, jsonl.String())
	}
	// Now the RMS manager takes over: replication + migrations should
	// clear the overload and resolve the alert.
	for sec := 2; sec < 120 && !seen["resolved"]; sec++ {
		mgr.Step(float64(sec))
		for i := 0; i < 5; i++ {
			h.step()
		}
		observe(float64(sec))
	}
	for _, state := range []string{"pending", "firing", "resolved"} {
		if !seen[state] {
			t.Fatalf("alert never reached %q (saw %v)\nlog:\n%s", state, seen, jsonl.String())
		}
	}
	// The JSONL transitions carry the measured value and model threshold.
	var firing telemetry.AlertEvent
	found := false
	for _, line := range strings.Split(strings.TrimSpace(jsonl.String()), "\n") {
		var e telemetry.AlertEvent
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("alert log line %q: %v", line, err)
		}
		if e.Rule == fleet.AlertReplicaOverNMax && e.State == "firing" {
			firing, found = e, true
		}
	}
	if !found {
		t.Fatalf("no firing event in log:\n%s", jsonl.String())
	}
	if firing.Key != "server-1" || firing.Value <= firing.Threshold || firing.Threshold <= 0 {
		t.Fatalf("firing event = %+v, want server-1 over a positive threshold", firing)
	}
	// After the manager rebalanced, the fleet should have grown.
	if len(h.fl.IDs()) < 2 {
		t.Fatalf("manager never replicated: replicas = %v", h.fl.IDs())
	}
}

func TestFleetAtLMaxRule(t *testing.T) {
	h := newObsHarness(t)
	mdl := tinyModel(t)
	engine := telemetry.NewAlertEngine(nil, h.fl.AlertRules(fleet.AlertConfig{Model: mdl, MaxReplicas: 2})...)
	engine.Eval(0)
	for _, a := range engine.Active() {
		if a.Rule == fleet.AlertFleetAtLMax {
			t.Fatalf("l_max alert active with one replica: %+v", a)
		}
	}
	if _, err := h.fl.AddReplica(); err != nil {
		t.Fatal(err)
	}
	engine.Eval(1)
	found := false
	for _, a := range engine.Active() {
		if a.Rule == fleet.AlertFleetAtLMax {
			found = true
			if a.Value != 2 || a.Threshold != 2 {
				t.Fatalf("l_max alert = %+v, want l=2 at threshold 2", a)
			}
		}
	}
	if !found {
		t.Fatal("l_max alert not active at the replica cap")
	}
}
