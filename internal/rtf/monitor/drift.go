package monitor

import (
	"fmt"
	"io"
	"math"
	"strings"

	"roia/internal/model"
	"roia/internal/telemetry"
)

// DriftStat compares the model's predictions with measurements over a set
// of tick records. All times are in milliseconds.
type DriftStat struct {
	// Samples is how many records were compared.
	Samples int
	// PredictedMS and MeasuredMS are the mean prediction and measurement.
	PredictedMS, MeasuredMS float64
	// ErrRatio is the signed relative error of the means,
	// (PredictedMS − MeasuredMS) / MeasuredMS (0 without a measurement).
	ErrRatio float64
	// MeanAbsRatio and WorstRatio are the mean and the largest per-record
	// |relative error|.
	MeanAbsRatio, WorstRatio float64
}

// Drift is live model drift, read from tick records: the live counterpart
// of the paper's offline Fig. 4/6 validation. A growing error means the
// calibration no longer matches the deployed workload, so the thresholds
// derived from it are stale, and the per-task rows name the curve that is
// wrong.
type Drift struct {
	// Tick compares the predicted tick duration T(l,n,m,a) (Eq. 4) with
	// the measured wall time.
	Tick DriftStat
	// Tasks compares each task's fitted per-item curve with its measured
	// per-item cost, indexed by Task.
	Tasks [numTasks]DriftStat
}

// ModelDrift compares every record with the model at that record's own
// workload: the tick at (l, n, m, a) against its WallMS, and each task
// span that processed items at (n, m) against its per-item cost. Because
// no record is compared with the model at another record's workload, a
// model that is exactly right reads zero drift while n changes. Records of
// several replicas may be pooled. An idle record (n = 0 and m = 0, where
// the model predicts T = 0) is not compared, so an empty zone cannot read
// as −100 % drift; a record without a replica count l is not compared in
// total.
func ModelDrift(mdl *model.Model, recs []telemetry.TickRecord) Drift {
	var tick driftAcc
	var tasks [numTasks]driftAcc
	for i := range recs {
		r := &recs[i]
		if r.Users == 0 && r.NPCs == 0 {
			continue
		}
		if r.Replicas > 0 {
			tick.add(mdl.TickTimeUneven(r.Replicas, r.Users, r.NPCs, r.ActiveUsers), r.WallMS)
		}
		for _, sp := range r.Tasks {
			t, ok := taskByName[sp.Name]
			if !ok || sp.Items == 0 {
				continue
			}
			tasks[t].add(t.cost(mdl.Cost, r.Users, r.NPCs), sp.DurMS/float64(sp.Items))
		}
	}
	d := Drift{Tick: tick.stat()}
	for t := range tasks {
		d.Tasks[t] = tasks[t].stat()
	}
	return d
}

// taskByName maps span names (Task.String) back to tasks.
var taskByName = func() map[string]Task {
	m := make(map[string]Task, numTasks)
	for t := Task(0); t < numTasks; t++ {
		m[t.String()] = t
	}
	return m
}()

// cost is the model's per-item cost of task t at workload (n, m).
func (t Task) cost(c model.CostModel, n, m int) float64 {
	switch t {
	case UADeser:
		return c.UADeserAt(n, m)
	case UA:
		return c.UAAt(n, m)
	case FADeser:
		return c.FADeserAt(n, m)
	case FA:
		return c.FAAt(n, m)
	case NPC:
		return c.NPCAt(n, m)
	case AOI:
		return c.AOIAt(n, m)
	case SU:
		return c.SUAt(n, m)
	case MigIni:
		return c.MigIniAt(n)
	case MigRcv:
		return c.MigRcvAt(n)
	}
	return 0
}

// driftAcc accumulates prediction/measurement pairs into a DriftStat.
type driftAcc struct {
	n                         int
	pred, meas, absRel, worst float64
}

func (a *driftAcc) add(pred, meas float64) {
	if math.IsNaN(pred) || math.IsInf(pred, 0) || math.IsNaN(meas) || math.IsInf(meas, 0) {
		return
	}
	a.n++
	a.pred += pred
	a.meas += meas
	if meas > 0 {
		rel := math.Abs(pred-meas) / meas
		a.absRel += rel
		a.worst = max(a.worst, rel)
	}
}

func (a *driftAcc) stat() DriftStat {
	if a.n == 0 {
		return DriftStat{}
	}
	n := float64(a.n)
	s := DriftStat{
		Samples:      a.n,
		PredictedMS:  a.pred / n,
		MeasuredMS:   a.meas / n,
		MeanAbsRatio: a.absRel / n,
		WorstRatio:   a.worst,
	}
	if a.meas > 0 {
		s.ErrRatio = (a.pred - a.meas) / a.meas
	}
	return s
}

// WriteMetrics writes the drift gauges in the Prometheus text exposition
// format; it matches telemetry.MetricsWriter once bound to a Drift.
//
// Exported families, over the compared records (a recorder's ring):
//
//	roia_model_predicted_tick_ms        mean model prediction T(l,n,m,a)
//	roia_model_measured_tick_ms         mean measured tick wall time
//	roia_model_tick_error_ms            signed error of the means
//	roia_model_tick_error_ratio         signed relative error of the means
//	roia_model_tick_error_ratio_mean    mean per-record |relative error|
//	roia_model_tick_error_ratio_worst   worst per-record |relative error|
//	roia_model_drift_samples            records compared
//
// and per task that processed items, labeled {task="t_ua",...}:
//
//	roia_model_task_predicted_ms        mean per-item prediction
//	roia_model_task_measured_ms         mean measured per-item cost
//	roia_model_task_error_ratio         signed relative error of the means
//	roia_model_task_error_ratio_mean    mean per-record |relative error|
//	roia_model_task_error_ratio_worst   worst per-record |relative error|
//	roia_model_task_drift_samples       records compared
func (d Drift) WriteMetrics(w io.Writer, labels string) error {
	lbl := func(extra string) string { return telemetry.FormatLabels(labels, extra) }
	var b strings.Builder
	s := d.Tick
	for _, fam := range []struct {
		name string
		v    float64
	}{
		{"roia_model_predicted_tick_ms", s.PredictedMS},
		{"roia_model_measured_tick_ms", s.MeasuredMS},
		{"roia_model_tick_error_ms", s.PredictedMS - s.MeasuredMS},
		{"roia_model_tick_error_ratio", s.ErrRatio},
		{"roia_model_tick_error_ratio_mean", s.MeanAbsRatio},
		{"roia_model_tick_error_ratio_worst", s.WorstRatio},
		{"roia_model_drift_samples", float64(s.Samples)},
	} {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s%s %g\n", fam.name, fam.name, lbl(""), fam.v)
	}
	for _, fam := range []struct {
		name string
		v    func(DriftStat) float64
	}{
		{"roia_model_task_predicted_ms", func(s DriftStat) float64 { return s.PredictedMS }},
		{"roia_model_task_measured_ms", func(s DriftStat) float64 { return s.MeasuredMS }},
		{"roia_model_task_error_ratio", func(s DriftStat) float64 { return s.ErrRatio }},
		{"roia_model_task_error_ratio_mean", func(s DriftStat) float64 { return s.MeanAbsRatio }},
		{"roia_model_task_error_ratio_worst", func(s DriftStat) float64 { return s.WorstRatio }},
		{"roia_model_task_drift_samples", func(s DriftStat) float64 { return float64(s.Samples) }},
	} {
		fmt.Fprintf(&b, "# TYPE %s gauge\n", fam.name)
		for t, s := range d.Tasks {
			if s.Samples > 0 {
				fmt.Fprintf(&b, "%s%s %g\n", fam.name, lbl(fmt.Sprintf("task=%q", Task(t))), fam.v(s))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
