package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// twoReplicaEvents is a migration observed on both endpoints (ID 1) plus an
// init whose transfer was lost (ID 2) and a recv whose init was evicted
// from the source ring (ID 3).
func twoReplicaEvents() map[string][]MigEvent {
	return map[string][]MigEvent{
		"server-1": {
			{ID: 1, Phase: MigPhaseInit, User: "u1", From: "server-1", To: "server-2", Tick: 10, UnixMicro: 1000, DurMS: 0.5},
			{ID: 2, Phase: MigPhaseInit, User: "u2", From: "server-1", To: "server-2", Tick: 11, UnixMicro: 2000, DurMS: 0.4},
			{ID: 1, Phase: MigPhaseAck, User: "u1", From: "server-1", To: "server-2", Tick: 12, UnixMicro: 3000},
		},
		"server-2": {
			{ID: 1, Phase: MigPhaseRecv, User: "u1", From: "server-1", To: "server-2", Tick: 8, UnixMicro: 1500, DurMS: 0.3},
			{ID: 3, Phase: MigPhaseRecv, User: "u3", From: "server-1", To: "server-2", Tick: 9, UnixMicro: 2500, DurMS: 0.2},
		},
	}
}

func TestStitchMigrations(t *testing.T) {
	migs := StitchMigrations(twoReplicaEvents())
	if len(migs) != 3 {
		t.Fatalf("stitched %d migrations, want 3: %+v", len(migs), migs)
	}
	byID := make(map[uint64]Migration)
	for _, m := range migs {
		byID[m.ID] = m
	}
	m1 := byID[1]
	if !m1.Complete || m1.Init == nil || m1.Recv == nil || m1.Ack == nil {
		t.Fatalf("migration 1 should be complete with all phases: %+v", m1)
	}
	if m1.User != "u1" || m1.From != "server-1" || m1.To != "server-2" {
		t.Fatalf("migration 1 endpoints = %+v", m1)
	}
	// init at 1000µs, recv at 1500µs + 0.3ms install.
	if m1.LatencyMS < 0.79 || m1.LatencyMS > 0.81 {
		t.Fatalf("migration 1 latency = %g ms, want 0.8", m1.LatencyMS)
	}
	if m2 := byID[2]; m2.Complete || m2.Init == nil || m2.Recv != nil {
		t.Fatalf("migration 2 (lost transfer) should be incomplete with init only: %+v", m2)
	}
	if m3 := byID[3]; m3.Complete || m3.Recv == nil || m3.Init != nil {
		t.Fatalf("migration 3 (evicted init) should be incomplete with recv only: %+v", m3)
	}
	// Ordered by init (or earliest observation) time: 1 (1000), 2 (2000), 3 (2500).
	for i, want := range []uint64{1, 2, 3} {
		if migs[i].ID != want {
			t.Fatalf("migs[%d].ID = %d, want %d", i, migs[i].ID, want)
		}
	}
}

func TestWriteMigrationChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMigrationChromeTrace(&buf, twoReplicaEvents()); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	// One process row per replica.
	procs := make(map[int]string)
	for _, e := range trace.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			procs[e.PID] = e.Args["name"].(string)
		}
	}
	if len(procs) != 2 {
		t.Fatalf("process rows = %v, want one per replica", procs)
	}
	// The complete migration's init and recv spans sit on different process
	// rows and share the migration ID.
	var initPID, recvPID int
	incomplete := 0
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.Dur <= 0 {
			t.Fatalf("span %q has non-positive dur %g", e.Name, e.Dur)
		}
		id := uint64(e.Args["migration_id"].(float64))
		if id == 1 {
			switch e.Name {
			case "mig_init":
				initPID = e.PID
			case "mig_recv":
				recvPID = e.PID
			}
			if _, flagged := e.Args["incomplete"]; flagged {
				t.Fatalf("complete migration flagged incomplete: %+v", e)
			}
		}
		if _, flagged := e.Args["incomplete"]; flagged {
			incomplete++
		}
	}
	if initPID == 0 || recvPID == 0 || initPID == recvPID {
		t.Fatalf("init pid %d / recv pid %d: spans must land on distinct replica rows", initPID, recvPID)
	}
	if incomplete != 2 {
		t.Fatalf("flagged %d incomplete spans, want 2 (lost transfer + evicted init)", incomplete)
	}
}

func TestWriteMigrationJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMigrationJSONL(&buf, StitchMigrations(twoReplicaEvents())); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var m Migration
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d: %v", lines+1, err)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("jsonl lines = %d, want 3", lines)
	}
}

func TestFleetEventLogJSONL(t *testing.T) {
	var buf bytes.Buffer
	log := NewFleetEventLog(&buf)
	log.FleetEvent(FleetEvent{UnixMicro: 1, Kind: FleetEventSpawn, Zone: 1, Replica: "server-1"})
	log.FleetEvent(FleetEvent{UnixMicro: 2, Kind: FleetEventDrain, Zone: 1, Replica: "server-1", Detail: "on"})
	if log.Events() != 2 || log.Err() != nil {
		t.Fatalf("events = %d err = %v", log.Events(), log.Err())
	}
	var first FleetEvent
	line := strings.SplitN(buf.String(), "\n", 2)[0]
	if err := json.Unmarshal([]byte(line), &first); err != nil {
		t.Fatal(err)
	}
	if first.Kind != FleetEventSpawn || first.Replica != "server-1" {
		t.Fatalf("first event = %+v", first)
	}
}
