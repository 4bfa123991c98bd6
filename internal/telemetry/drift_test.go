package telemetry_test

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"roia/internal/model"
	"roia/internal/params"
	"roia/internal/rtf/monitor"
	"roia/internal/telemetry"
)

// Model drift is read from a recorder's ring, as roiaserver's /metrics and
// the fleet's model_drift rule read it: monitor.ModelDrift over Last(0).
// These tests check that the ring carries what that comparison needs, the
// workload (l, n, m, a) and the task spans of every record, and that the
// drift covers exactly the records the ring still holds.

// constModel is a model whose every per-item cost is c ms.
func constModel(t *testing.T, c float64) *model.Model {
	t.Helper()
	k := params.Constant(c)
	mdl, err := model.New(&params.Set{Name: "const", UADeser: k, UA: k, FADeser: k, FA: k,
		NPC: k, AOI: k, SU: k, MigIni: k, MigRcv: k}, 40, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	return mdl
}

// ringDrift records recs into a fresh recorder and compares its ring with
// the model.
func ringDrift(mdl *model.Model, recs ...telemetry.TickRecord) monitor.Drift {
	fr := telemetry.NewFlightRecorder(telemetry.FlightRecConfig{MinHiccupMS: 1e9})
	for _, r := range recs {
		fr.Record(r)
	}
	return monitor.ModelDrift(mdl, fr.Last(0))
}

func near(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Max(1, math.Abs(want)) }

func TestDriftObserve(t *testing.T) {
	mdl := constModel(t, 0.1)
	// Two ticks at different workloads, each judged at its own: the first
	// ran 25 % over its prediction, the second 20 % under.
	p1, p2 := mdl.TickTimeUneven(1, 20, 40, 20), mdl.TickTimeUneven(2, 60, 40, 30)
	d := ringDrift(mdl,
		telemetry.TickRecord{WallMS: 1.25 * p1, Replicas: 1, Users: 20, ActiveUsers: 20, NPCs: 40},
		telemetry.TickRecord{WallMS: 0.8 * p2, Replicas: 2, Users: 60, ActiveUsers: 30, NPCs: 40},
	).Tick
	meas := 1.25*p1 + 0.8*p2
	if d.Samples != 2 {
		t.Fatalf("Samples = %d, want 2", d.Samples)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"PredictedMS", d.PredictedMS, (p1 + p2) / 2},
		{"MeasuredMS", d.MeasuredMS, meas / 2},
		{"ErrRatio", d.ErrRatio, (p1 + p2 - meas) / meas},
		{"MeanAbsRatio", d.MeanAbsRatio, (0.25/1.25 + 0.2/0.8) / 2},
		{"WorstRatio", d.WorstRatio, 0.2 / 0.8},
	} {
		if !near(c.got, c.want) {
			t.Fatalf("%s = %g, want %g (%+v)", c.name, c.got, c.want, d)
		}
	}

	// Drift is over the ring: wildly wrong ticks that have left it no
	// longer count.
	fr := telemetry.NewFlightRecorder(telemetry.FlightRecConfig{MinHiccupMS: 1e9})
	for i := 0; i < 100; i++ {
		fr.Record(telemetry.TickRecord{WallMS: 10 * p1, Replicas: 1, Users: 20, ActiveUsers: 20, NPCs: 40})
	}
	for i := 0; i < 5000; i++ {
		fr.Record(telemetry.TickRecord{WallMS: p1, Replicas: 1, Users: 20, ActiveUsers: 20, NPCs: 40})
	}
	ring := fr.Last(0)
	if s := monitor.ModelDrift(mdl, ring).Tick; s.Samples != len(ring) || s.WorstRatio != 0 {
		t.Fatalf("drift over the ring = %+v, want %d exact samples", s, len(ring))
	}
}

func TestDriftIgnoresNonFinite(t *testing.T) {
	mdl := constModel(t, 0.1)
	d := ringDrift(mdl,
		telemetry.TickRecord{WallMS: math.NaN(), Replicas: 1, NPCs: 40,
			Tasks: []telemetry.Span{{Name: "t_npc", DurMS: math.Inf(1), Items: 10}}},
		telemetry.TickRecord{WallMS: math.Inf(1), Replicas: 1, NPCs: 40},
	)
	if d.Tick.Samples != 0 || d.Tasks[monitor.NPC].Samples != 0 {
		t.Fatalf("non-finite measurements compared: tick %+v, t_npc %+v", d.Tick, d.Tasks[monitor.NPC])
	}
}

func TestDriftZeroMeasurement(t *testing.T) {
	mdl := constModel(t, 0.1)
	// An idle tick measured at 0 ms: compared, but with no relative error
	// (no division by zero).
	d := ringDrift(mdl, telemetry.TickRecord{WallMS: 0, Replicas: 1, NPCs: 40,
		Tasks: []telemetry.Span{{Name: "t_npc", DurMS: 0, Items: 10}}})
	if want := (monitor.DriftStat{Samples: 1, PredictedMS: 4}); d.Tick != want {
		t.Fatalf("tick drift = %+v, want %+v", d.Tick, want)
	}
	if want := (monitor.DriftStat{Samples: 1, PredictedMS: 0.1}); d.Tasks[monitor.NPC] != want {
		t.Fatalf("t_npc drift = %+v, want %+v", d.Tasks[monitor.NPC], want)
	}
}

func TestDriftWriteMetrics(t *testing.T) {
	mdl := constModel(t, 0.1)
	fr := telemetry.NewFlightRecorder(telemetry.FlightRecConfig{MinHiccupMS: 1e9})
	fr.Record(telemetry.TickRecord{WallMS: 8, Replicas: 1, NPCs: 40,
		Tasks: []telemetry.Span{{Name: "t_npc", DurMS: 2, Items: 10}}})
	srv := httptest.NewServer(telemetry.MetricsHandler(`server="s1"`, fr.WriteMetrics,
		func(w io.Writer, labels string) error {
			return monitor.ModelDrift(mdl, fr.Last(0)).WriteMetrics(w, labels)
		}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"# TYPE roia_model_predicted_tick_ms gauge",
		`roia_model_predicted_tick_ms{server="s1"} 4`,
		`roia_model_measured_tick_ms{server="s1"} 8`,
		`roia_model_tick_error_ms{server="s1"} -4`,
		`roia_model_tick_error_ratio{server="s1"} -0.5`,
		`roia_model_drift_samples{server="s1"} 1`,
		`roia_model_task_measured_ms{server="s1",task="t_npc"} 0.2`,
		`roia_tick_wall_q_ms{server="s1",q="p50"} 8`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestTaskDrift(t *testing.T) {
	mdl := constModel(t, 0.1)
	// Every task runs at the model's 0.1 ms per item except t_npc, which
	// costs twice that; t_su does no work and t_fa runs without items.
	var recs []telemetry.TickRecord
	for i := 1; i <= 3; i++ {
		recs = append(recs, telemetry.TickRecord{Replicas: 1, Users: 10 * i, ActiveUsers: 10 * i, NPCs: 40,
			Tasks: []telemetry.Span{
				{Name: "t_ua", DurMS: 0.1 * float64(i), Items: i},
				{Name: "t_fa", DurMS: 0.5},
				{Name: "t_npc", DurMS: 0.2 * 40, Items: 40},
				{Name: "t_aoi", DurMS: 0.1 * 40, Items: 40},
			}})
	}
	d := ringDrift(mdl, recs...)
	worst, worstRatio := monitor.Task(-1), 0.0
	for _, task := range monitor.Tasks() {
		s := d.Tasks[task]
		switch task {
		case monitor.UA, monitor.NPC, monitor.AOI:
			if s.Samples != 3 {
				t.Fatalf("%s compared %d records, want 3", task, s.Samples)
			}
		default:
			if s.Samples != 0 {
				t.Fatalf("%s did no itemised work but was compared: %+v", task, s)
			}
		}
		if s.Samples > 0 && s.MeanAbsRatio > worstRatio {
			worst, worstRatio = task, s.MeanAbsRatio
		}
	}
	if worst != monitor.NPC || !near(d.Tasks[monitor.NPC].ErrRatio, -0.5) {
		t.Fatalf("worst task = %s (%g), t_npc %+v; want t_npc at -50 %%", worst, worstRatio, d.Tasks[monitor.NPC])
	}
	for _, task := range []monitor.Task{monitor.UA, monitor.AOI} {
		if s := d.Tasks[task]; !near(s.ErrRatio, 0) || !near(s.WorstRatio, 0) {
			t.Fatalf("%s drift = %+v, want none", task, s)
		}
	}
}
