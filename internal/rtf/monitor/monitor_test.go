package monitor

import (
	"sync"
	"testing"
)

func TestTaskNamesMatchPaper(t *testing.T) {
	want := map[Task]string{
		UADeser: "t_ua_dser", UA: "t_ua", FADeser: "t_fa_dser", FA: "t_fa",
		NPC: "t_npc", AOI: "t_aoi", SU: "t_su", MigIni: "t_mig_ini", MigRcv: "t_mig_rcv",
	}
	for task, name := range want {
		if task.String() != name {
			t.Fatalf("%d.String() = %q, want %q", task, task.String(), name)
		}
	}
	if Task(99).String() != "t_unknown" {
		t.Fatal("unknown task name")
	}
	if len(Tasks()) != int(numTasks) {
		t.Fatalf("Tasks() returned %d, want %d", len(Tasks()), numTasks)
	}
}

func TestBreakdownTotals(t *testing.T) {
	var b Breakdown
	b.Add(UA, 2.0, 10)
	b.Add(UA, 1.0, 5)
	b.Add(AOI, 3.0, 15)
	if got := b.Total(); got != 6.0 {
		t.Fatalf("Total = %g, want 6", got)
	}
	per, ok := b.PerItem(UA)
	if !ok || per != 0.2 {
		t.Fatalf("PerItem(UA) = %g ok=%v, want 0.2 true", per, ok)
	}
	if _, ok := b.PerItem(SU); ok {
		t.Fatal("PerItem with zero items reported ok")
	}
}

func TestMonitorRecordTick(t *testing.T) {
	m := New()
	for i := 1; i <= 3; i++ {
		var b Breakdown
		b.Users = 100 * i
		b.Add(UA, float64(i), i)
		m.RecordTick(b)
	}
	if lb := m.LastBreakdown(); lb.Users != 300 || lb.TimeMS[UA] != 3 {
		t.Fatalf("LastBreakdown = %+v, want the third tick", lb)
	}
	if got := m.Samples(); len(got) != 0 {
		t.Fatalf("samples recorded while not collecting: %v", got)
	}
}

func TestMonitorSampleCollection(t *testing.T) {
	m := New()
	var b Breakdown
	b.Users = 50
	b.Add(UA, 5, 10)
	m.RecordTick(b) // collection off: no samples
	if got := m.Samples(); len(got) != 0 {
		t.Fatalf("samples recorded while disabled: %v", got)
	}
	m.SetCollecting(true)
	m.RecordTick(b)
	samples := m.Samples()
	if len(samples) != 1 {
		t.Fatalf("samples = %v", samples)
	}
	if s := samples[0]; s.Task != UA || s.X != 50 || s.Y != 0.5 {
		t.Fatalf("sample = %+v", s)
	}
}

func TestMonitorConcurrentAccess(t *testing.T) {
	m := New()
	m.SetCollecting(true)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var b Breakdown
				b.Users = i
				b.Add(UA, 1, 1)
				m.RecordTick(b)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = m.Samples()
				_ = m.LastBreakdown()
			}
		}()
	}
	wg.Wait()
	if got := len(m.Samples()); got != 800 {
		t.Fatalf("samples = %d, want 800", got)
	}
}

// TestMonitorSampleLimit fills both logs to DefaultSampleLimit: what
// arrives after is counted by DroppedSamples, not stored.
func TestMonitorSampleLimit(t *testing.T) {
	m := New()
	m.SetCollecting(true)
	// Nine calibration samples per tick, one per task.
	var b Breakdown
	for task := Task(0); task < numTasks; task++ {
		b.Add(task, 1, 1)
	}
	ticks := DefaultSampleLimit/int(numTasks) + 2
	for i := 0; i < ticks; i++ {
		m.RecordTick(b)
	}
	if got := len(m.Samples()); got != DefaultSampleLimit {
		t.Fatalf("samples = %d, want %d (capped)", got, DefaultSampleLimit)
	}
	wantDropped := uint64(ticks*int(numTasks) - DefaultSampleLimit)
	if got := m.DroppedSamples(); got != wantDropped {
		t.Fatalf("dropped = %d, want %d", got, wantDropped)
	}
	// The traffic log has its own cap at the same limit.
	var tb Breakdown
	tb.BytesIn = 100
	for i := 0; i < DefaultSampleLimit+3; i++ {
		m.RecordTick(tb)
	}
	if got := len(m.TrafficSamples()); got != DefaultSampleLimit {
		t.Fatalf("traffic samples = %d, want %d (capped)", got, DefaultSampleLimit)
	}
	if got := m.DroppedSamples(); got != wantDropped+3 {
		t.Fatalf("dropped = %d, want %d (task + 3 traffic)", got, wantDropped+3)
	}
}

func TestMonitorSampleLimitDefault(t *testing.T) {
	m := New()
	m.SetCollecting(true)
	var b Breakdown
	b.Add(UA, 1, 1)
	m.RecordTick(b)
	if got := len(m.Samples()); got != 1 {
		t.Fatalf("samples = %d, want 1", got)
	}
	if m.DroppedSamples() != 0 {
		t.Fatal("default limit dropped samples")
	}
}

// TestCPUWallSplit pins the two-axis accounting of a Breakdown: the wall
// time is what the deadline judges, per-item curves follow the TimeMS sums
// (and so do the calibration samples), and a breakdown without WallMS
// falls back to the CPU sum (the pre-pipeline behaviour simulations rely
// on).
func TestCPUWallSplit(t *testing.T) {
	m := New()
	m.SetCollecting(true)

	// Parallel-looking tick: 16 ms of CPU across workers, 6 ms of wall.
	var b Breakdown
	b.Add(AOI, 12, 4)
	b.Add(SU, 4, 4)
	b.WallMS = 6
	m.RecordTick(b)
	if b.Wall() != 6 || b.Total() != 16 {
		t.Fatalf("Wall = %v, Total = %v, want 6 and 16", b.Wall(), b.Total())
	}
	last := m.LastBreakdown()
	if per, ok := last.PerItem(AOI); !ok || per != 3 {
		t.Fatalf("PerItem(AOI) = %v, %v; per-item cost must stay CPU-based", per, ok)
	}
	if got := m.Samples(); len(got) != 2 || got[0].Task != AOI || got[0].Y != 3 || got[1].Task != SU || got[1].Y != 1 {
		t.Fatalf("calibration samples = %+v, want CPU-based per-item costs AOI 3 and SU 1", got)
	}

	// Legacy breakdown without WallMS: Wall() falls back to Total().
	var b3 Breakdown
	b3.Add(NPC, 11, 3)
	if b3.Wall() != b3.Total() {
		t.Fatalf("Wall fallback = %v, want Total %v", b3.Wall(), b3.Total())
	}
}

// TestBreakdownMerge pins the executor's per-worker reduction.
func TestBreakdownMerge(t *testing.T) {
	var total, w1, w2 Breakdown
	total.WallMS = 5
	total.Users = 10
	w1.Add(AOI, 2, 3)
	w1.Add(SU, 1, 3)
	w2.Add(AOI, 4, 7)
	total.Merge(&w1)
	total.Merge(&w2)
	if total.TimeMS[AOI] != 6 || total.Items[AOI] != 10 {
		t.Fatalf("merged AOI = %v ms / %d items, want 6 / 10", total.TimeMS[AOI], total.Items[AOI])
	}
	if total.TimeMS[SU] != 1 || total.Items[SU] != 3 {
		t.Fatalf("merged SU = %v ms / %d items, want 1 / 3", total.TimeMS[SU], total.Items[SU])
	}
	if total.WallMS != 5 || total.Users != 10 {
		t.Fatal("Merge must not touch wall time or workload gauges")
	}
}
