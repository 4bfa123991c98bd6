package monitor

import (
	"math"
	"regexp"
	"strings"
	"testing"

	"roia/internal/model"
	"roia/internal/params"
	"roia/internal/telemetry"
)

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

// seededDrift compares two single-replica ticks with 10 NPCs against a
// model charging 0.1 ms per item (so T = 4 ms for 40 NPCs on one replica):
// one tick ran 2 ms, one 8 ms, and each NPC cost 0.2 ms.
func seededDrift(t *testing.T) Drift {
	t.Helper()
	var recs []telemetry.TickRecord
	for _, wall := range []float64{2, 8} {
		recs = append(recs, telemetry.TickRecord{
			WallMS: wall, Replicas: 1, NPCs: 40,
			Tasks: []telemetry.Span{{Name: "t_npc", DurMS: 2, Items: 10}, {Name: "t_fa", DurMS: 1}},
		})
	}
	return ModelDrift(constModel(t, 0.1), recs)
}

// TestModelDriftExactModelWhileUsersRamp synthesises records from the
// model's own curves while n ramps from 100 to 600 users: every record is
// compared at its own (l, n, m, a), so an exact model reads no drift, in
// total or on any task, however far n moved within the ring.
func TestModelDriftExactModelWhileUsersRamp(t *testing.T) {
	mdl, err := model.New(params.RTFDemo(), 40, params.CDefault)
	if err != nil {
		t.Fatal(err)
	}
	const l, m = 2, 30
	var recs []telemetry.TickRecord
	for n := 100; n <= 600; n += 5 {
		a := n / l
		rec := telemetry.TickRecord{Users: n, ActiveUsers: a, NPCs: m, Replicas: l,
			WallMS: mdl.TickTimeUneven(l, n, m, a)}
		for task := Task(0); task < numTasks; task++ {
			items := 1 + (n+int(task))%7
			rec.Tasks = append(rec.Tasks, telemetry.Span{Name: task.String(), DurMS: task.cost(mdl.Cost, n, m) * float64(items), Items: items})
		}
		recs = append(recs, rec)
	}
	d := ModelDrift(mdl, recs)
	check := func(name string, s DriftStat) {
		if s.Samples != len(recs) {
			t.Fatalf("%s compared %d records, want %d", name, s.Samples, len(recs))
		}
		for _, v := range []float64{s.ErrRatio, s.MeanAbsRatio, s.WorstRatio} {
			if math.Abs(v) > 1e-9 {
				t.Fatalf("%s drift = %+v, want |error| <= 1e-9 for an exact model", name, s)
			}
		}
	}
	check("tick", d.Tick)
	for task, s := range d.Tasks {
		check(Task(task).String(), s)
	}
}

// TestModelDriftSkipsIdleRecords: an empty zone (n = 0, m = 0) predicts
// T = 0, so its ticks would read −100 % drift against any measured wall.
// 25 idle records ahead of records that match the model read zero drift,
// and a ring of idle records alone compares nothing.
func TestModelDriftSkipsIdleRecords(t *testing.T) {
	mdl, err := model.New(params.RTFDemo(), 40, params.CDefault)
	if err != nil {
		t.Fatal(err)
	}
	var recs []telemetry.TickRecord
	for i := 0; i < 25; i++ {
		recs = append(recs, telemetry.TickRecord{Replicas: 1, WallMS: 0.01,
			Tasks: []telemetry.Span{{Name: "t_su", DurMS: 0.001, Items: 1}}})
	}
	if d := ModelDrift(mdl, recs); d.Tick.Samples != 0 || d.Tasks[SU].Samples != 0 {
		t.Fatalf("idle records compared: tick %+v, t_su %+v", d.Tick, d.Tasks[SU])
	}
	const l, m = 1, 20
	for n := 10; n <= 200; n += 10 {
		recs = append(recs, telemetry.TickRecord{Users: n, ActiveUsers: n, NPCs: m, Replicas: l,
			WallMS: mdl.TickTimeUneven(l, n, m, n),
			Tasks:  []telemetry.Span{{Name: "t_su", DurMS: SU.cost(mdl.Cost, n, m) * 3, Items: 3}}})
	}
	d := ModelDrift(mdl, recs)
	for name, s := range map[string]DriftStat{"tick": d.Tick, "t_su": d.Tasks[SU]} {
		if s.Samples != 20 {
			t.Fatalf("%s compared %d records, want the 20 busy ones", name, s.Samples)
		}
		if math.Abs(s.ErrRatio) > 1e-9 || s.WorstRatio > 1e-9 {
			t.Fatalf("%s drift = %+v, want 0 for records that match the model", name, s)
		}
	}
}

func TestModelDriftComparesEachRecord(t *testing.T) {
	d := seededDrift(t)
	if want := (DriftStat{Samples: 2, PredictedMS: 4, MeasuredMS: 5, ErrRatio: -0.2, MeanAbsRatio: 0.75, WorstRatio: 1}); d.Tick != want {
		t.Fatalf("tick drift = %+v, want %+v", d.Tick, want)
	}
	if s := d.Tasks[NPC]; s.Samples != 2 || s.PredictedMS != 0.1 || s.MeasuredMS != 0.2 || s.ErrRatio != -0.5 {
		t.Fatalf("t_npc drift = %+v", s)
	}
	if s := d.Tasks[FA]; s.Samples != 0 {
		t.Fatalf("a span without items was compared: %+v", s)
	}
	// Records without a replica count, non-finite and zero measurements.
	d = ModelDrift(constModel(t, 0.1), []telemetry.TickRecord{
		{WallMS: 3},
		{WallMS: math.NaN(), Replicas: 1},
		{WallMS: 0, Replicas: 1, NPCs: 10},
	})
	if want := (DriftStat{Samples: 1, PredictedMS: 0.1 * 10, MeasuredMS: 0}); d.Tick != want {
		t.Fatalf("edge-case drift = %+v, want %+v", d.Tick, want)
	}
}

func TestWriteMetricsExposition(t *testing.T) {
	d := seededDrift(t)
	var sb strings.Builder
	if err := d.WriteMetrics(&sb, `server="s1"`); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`roia_model_predicted_tick_ms{server="s1"} 4`,
		`roia_model_measured_tick_ms{server="s1"} 5`,
		`roia_model_tick_error_ms{server="s1"} -1`,
		`roia_model_tick_error_ratio{server="s1"} -0.2`,
		`roia_model_tick_error_ratio_mean{server="s1"} 0.75`,
		`roia_model_tick_error_ratio_worst{server="s1"} 1`,
		`roia_model_drift_samples{server="s1"} 2`,
		`roia_model_task_predicted_ms{server="s1",task="t_npc"} 0.1`,
		`roia_model_task_measured_ms{server="s1",task="t_npc"} 0.2`,
		`roia_model_task_error_ratio{server="s1",task="t_npc"} -0.5`,
		`roia_model_task_drift_samples{server="s1",task="t_npc"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
	// Tasks that processed no items export no sample.
	if strings.Contains(out, `task="t_fa"`) {
		t.Fatalf("idle task exported:\n%s", out)
	}
	// Prometheus exposition needs TYPE headers.
	if !strings.Contains(out, "# TYPE roia_model_task_error_ratio gauge") {
		t.Fatal("missing TYPE header")
	}
}

var (
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.e+-]+|NaN)$`)
	labelPair  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)
	typeLine   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
)

// TestWriteMetricsExpositionGrammar parses the exposition line by line:
// every sample must follow the text-format grammar, carry well-formed
// quoted labels, and belong to a declared # TYPE family.
func TestWriteMetricsExpositionGrammar(t *testing.T) {
	d := seededDrift(t)
	var sb strings.Builder
	if err := d.WriteMetrics(&sb, `server="s1",zone="1"`); err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{} // family -> kind
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			tm := typeLine.FindStringSubmatch(line)
			if tm == nil {
				t.Fatalf("malformed comment line %q", line)
			}
			if _, dup := declared[tm[1]]; dup {
				t.Fatalf("family %q declared twice", tm[1])
			}
			declared[tm[1]] = tm[2]
			continue
		}
		sm := sampleLine.FindStringSubmatch(line)
		if sm == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		name, labels := sm[1], sm[2]
		if _, ok := declared[name]; !ok {
			t.Fatalf("sample %q has no # TYPE declaration", name)
		}
		if labels != "" {
			for _, pair := range strings.Split(strings.Trim(labels, "{}"), ",") {
				if !labelPair.MatchString(pair) {
					t.Fatalf("malformed label pair %q in %q", pair, line)
				}
			}
		}
	}
}

func TestWriteMetricsNoLabels(t *testing.T) {
	d := seededDrift(t)
	var sb strings.Builder
	if err := d.WriteMetrics(&sb, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "roia_model_drift_samples 2") {
		t.Fatalf("unlabeled sample missing:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), `roia_model_task_measured_ms{task="t_npc"} 0.2`) {
		t.Fatalf("unlabeled task gauge missing:\n%s", sb.String())
	}
}
