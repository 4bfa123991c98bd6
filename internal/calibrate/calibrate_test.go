package calibrate

import (
	"math"
	"reflect"
	"testing"

	"roia/internal/model"
	"roia/internal/params"
	"roia/internal/rtf/monitor"
)

func TestFitTaskRecoversLine(t *testing.T) {
	var samples []monitor.Sample
	for n := 10; n <= 300; n += 10 {
		samples = append(samples, monitor.Sample{Task: monitor.SU, X: float64(n), Y: 0.012 + 0.00008*float64(n)})
	}
	curve, res, err := FitTask(samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(curve.Coeffs[0]-0.012) > 1e-9 || math.Abs(curve.Coeffs[1]-0.00008) > 1e-12 {
		t.Fatalf("coeffs = %v", curve.Coeffs)
	}
	if res.SSR > 1e-15 {
		t.Fatalf("SSR = %g", res.SSR)
	}
}

func TestFitTaskInsufficientSamples(t *testing.T) {
	s := []monitor.Sample{{X: 1, Y: 1}, {X: 2, Y: 2}}
	if _, _, err := FitTask(s, 2); err == nil {
		t.Fatal("underdetermined fit accepted")
	}
}

func TestSynthesizeAndRecoverFullProfile(t *testing.T) {
	truth := params.RTFDemo()
	var counts []int
	for n := 10; n <= 300; n += 5 {
		counts = append(counts, n)
	}
	samples := Synthesize(truth, monitor.Tasks(), counts, 5, 0.05, 42)
	res, err := FromSamples("recovered", samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 0 {
		t.Fatalf("missing tasks: %v", res.Missing)
	}
	// The recovered profile must predict per-task costs within a few
	// percent of the truth across the measured range.
	for _, n := range []int{50, 150, 235, 300} {
		for name, pair := range map[string][2]float64{
			"active": {truth.ActivePerUser(n, 0), res.Set.ActivePerUser(n, 0)},
			"shadow": {truth.ShadowPerUser(n, 0), res.Set.ShadowPerUser(n, 0)},
			"migIni": {truth.MigIniAt(n), res.Set.MigIniAt(n)},
			"migRcv": {truth.MigRcvAt(n), res.Set.MigRcvAt(n)},
		} {
			want, got := pair[0], pair[1]
			if math.Abs(got-want) > 0.05*want {
				t.Fatalf("%s(%d) = %g, truth %g (drift > 5%%)", name, n, got, want)
			}
		}
	}
	// Crucially, the recovered model reproduces the capacity threshold
	// within a tight band — this is the end-to-end calibration check.
	mdl, err := model.New(res.Set, params.UFirstPersonShooter, params.CDefault)
	if err != nil {
		t.Fatal(err)
	}
	nmax, ok := mdl.MaxUsers(1, 0)
	if !ok || nmax < 225 || nmax > 245 {
		t.Fatalf("recovered n_max(1) = %d, want ≈235", nmax)
	}
}

func TestFromSamplesMandatoryTasks(t *testing.T) {
	truth := params.RTFDemo()
	// Leave out t_ua: must fail.
	tasks := []monitor.Task{monitor.UADeser, monitor.AOI, monitor.SU}
	samples := Synthesize(truth, tasks, []int{10, 50, 100, 200}, 3, 0, 1)
	if _, err := FromSamples("x", samples, nil); err == nil {
		t.Fatal("missing mandatory t_ua accepted")
	}
}

func TestFromSamplesOptionalTasksReportedMissing(t *testing.T) {
	truth := params.RTFDemo()
	tasks := []monitor.Task{monitor.UADeser, monitor.UA, monitor.AOI, monitor.SU}
	samples := Synthesize(truth, tasks, []int{10, 50, 100, 150, 200}, 3, 0, 1)
	res, err := FromSamples("partial", samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 5 {
		t.Fatalf("missing = %v, want 5 optional tasks", res.Missing)
	}
	// Zero curves for the missing parameters.
	if res.Set.MigIniAt(100) != 0 || res.Set.FAAt(100, 0) != 0 {
		t.Fatal("missing tasks have non-zero curves")
	}
	// Mandatory curves still fitted.
	if res.Set.UAAt(100, 0) <= 0 {
		t.Fatal("t_ua not fitted")
	}
}

func TestFromMonitorEndToEnd(t *testing.T) {
	// Feed monitors synthetic per-tick breakdowns and calibrate from them. A
	// live server runs this repository's game, whose t_ua is linear
	// (GameDegrees); t_aoi keeps RTFDemo's quadratic.
	truth := params.RTFDemo()
	truth.UA = params.Linear(8e-4, 3e-7)
	feed := func(from, to, step int) *monitor.Monitor {
		m := monitor.New()
		m.SetCollecting(true)
		for n := from; n <= to; n += step {
			for rep := 0; rep < 3; rep++ {
				var b monitor.Breakdown
				b.Users = n
				items := n
				b.Add(monitor.UADeser, truth.UADeserAt(n, 0)*float64(items), items)
				b.Add(monitor.UA, truth.UAAt(n, 0)*float64(items), items)
				b.Add(monitor.AOI, truth.AOIAt(n, 0)*float64(items), items)
				b.Add(monitor.SU, truth.SUAt(n, 0)*float64(items), items)
				m.RecordTick(b)
			}
		}
		return m
	}
	m := feed(20, 300, 20)
	res, err := FromMonitor("live", m)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Set.UAAt(200, 0); math.Abs(got-truth.UAAt(200, 0)) > 1e-6 {
		t.Fatalf("t_ua(200) = %g, truth %g", got, truth.UAAt(200, 0))
	}
	if res.Set.UA.Degree() != 1 {
		t.Fatalf("t_ua fitted with degree %d, want 1", res.Set.UA.Degree())
	}
	if got := res.Set.AOIAt(200, 0); math.Abs(got-truth.AOIAt(200, 0)) > 1e-6 {
		t.Fatalf("t_aoi(200) = %g, truth %g", got, truth.AOIAt(200, 0))
	}
	// One monitor: exactly the fit of its own sample log.
	want, err := FromSamples("live", m.Samples(), GameDegrees())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("FromMonitor(m) = %+v, want FromSamples(m.Samples()) = %+v", res, want)
	}
	// Two monitors (two replicas of one zone): the fit of the pooled logs.
	m2 := feed(30, 270, 40)
	pooled, err := FromMonitor("live", m, m2)
	if err != nil {
		t.Fatal(err)
	}
	want, err = FromSamples("live", append(m.Samples(), m2.Samples()...), GameDegrees())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pooled, want) {
		t.Fatalf("FromMonitor(m, m2) = %+v, want FromSamples over both logs = %+v", pooled, want)
	}
	if reflect.DeepEqual(pooled.Fits, res.Fits) {
		t.Fatal("second monitor's samples left the fit untouched")
	}
}

// TestFromMonitorReportsDroppedSamples fills one monitor's sample log past
// monitor.DefaultSampleLimit: the result reports the refused observations,
// summed over the monitors, and the fit is the fit of what was kept.
func TestFromMonitorReportsDroppedSamples(t *testing.T) {
	truth := params.RTFDemo()
	truth.UA = params.Linear(8e-4, 3e-7) // the live game's t_ua (GameDegrees)
	feed := func(ticks int) *monitor.Monitor {
		m := monitor.New()
		m.SetCollecting(true)
		for i := 0; i < ticks; i++ {
			n := 20 + i%280
			var b monitor.Breakdown
			b.Users = n
			b.Add(monitor.UADeser, truth.UADeserAt(n, 0)*float64(n), n)
			b.Add(monitor.UA, truth.UAAt(n, 0)*float64(n), n)
			b.Add(monitor.AOI, truth.AOIAt(n, 0)*float64(n), n)
			b.Add(monitor.SU, truth.SUAt(n, 0)*float64(n), n)
			m.RecordTick(b)
		}
		return m
	}
	// Four samples per tick: five ticks past the cap drop 20 samples.
	full := feed(monitor.DefaultSampleLimit/4 + 5)
	small := feed(50)
	res, err := FromMonitor("live", full, small)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedSamples != 20 {
		t.Fatalf("DroppedSamples = %d, want 20", res.DroppedSamples)
	}
	if full.DroppedSamples() != 20 || small.DroppedSamples() != 0 {
		t.Fatalf("monitor drops = %d, %d, want 20, 0", full.DroppedSamples(), small.DroppedSamples())
	}
	if got := res.Set.UAAt(200, 0); math.Abs(got-truth.UAAt(200, 0)) > 1e-6 {
		t.Fatalf("t_ua(200) = %g, truth %g", got, truth.UAAt(200, 0))
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	truth := params.RTFDemo()
	a := Synthesize(truth, []monitor.Task{monitor.UA}, []int{10, 20}, 2, 0.1, 9)
	b := Synthesize(truth, []monitor.Task{monitor.UA}, []int{10, 20}, 2, 0.1, 9)
	if len(a) != len(b) || len(a) != 4 {
		t.Fatalf("lengths: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("synthesis not deterministic")
		}
	}
	// Noise must never produce negative CPU times.
	noisy := Synthesize(truth, monitor.Tasks(), []int{1, 5}, 50, 3.0, 11)
	for _, s := range noisy {
		if s.Y < 0 {
			t.Fatalf("negative sample: %+v", s)
		}
	}
}
