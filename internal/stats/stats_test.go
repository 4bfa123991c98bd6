package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.Count != 5 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("count/min/max wrong: %+v", s)
	}
	if s.Mean != 3 {
		t.Fatalf("mean = %g, want 3", s.Mean)
	}
	if s.P50 != 3 {
		t.Fatalf("p50 = %g, want 3", s.P50)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("stddev = %g, want sqrt(2)", s.StdDev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {10, 10}, {50, 50}, {90, 90}, {95, 100}, {100, 100}, {-5, 10}, {150, 100},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); got != c.want {
			t.Fatalf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("Percentile(empty) = %g, want 0", got)
	}
}

func TestSummaryPercentileOrderProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
		}
		s := Summarize(raw)
		if len(raw) == 0 {
			return s.Count == 0
		}
		return s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesAndTableCSV(t *testing.T) {
	var tbl Table
	tbl.Title = "test fig"
	tbl.XLabel = "users"
	tbl.YLabel = "ms"
	s := tbl.AddSeries("curve-a")
	s.Add(1, 10)
	s.Add(2, 20)
	tbl.AddSeries("curve-b").Add(1, 5)

	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"# test fig", "series,users,ms", "curve-a,1,10", "curve-a,2,20", "curve-b,1,5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("series len = %d, want 2", s.Len())
	}
}

func TestRenderASCIIContainsMarksAndLegend(t *testing.T) {
	var tbl Table
	tbl.Title = "shape"
	s := tbl.AddSeries("line")
	for i := 0; i <= 10; i++ {
		s.Add(float64(i), float64(i*i))
	}
	out := tbl.RenderASCII(40, 10)
	if !strings.Contains(out, "*") {
		t.Fatalf("chart has no data marks:\n%s", out)
	}
	if !strings.Contains(out, "line") {
		t.Fatalf("chart has no legend:\n%s", out)
	}
}

func TestRenderASCIIEmptyAndDegenerate(t *testing.T) {
	var tbl Table
	tbl.Title = "empty"
	if out := tbl.RenderASCII(20, 8); !strings.Contains(out, "no data") {
		t.Fatalf("empty table rendering:\n%s", out)
	}
	tbl.AddSeries("point").Add(1, 1) // single point: min==max on both axes
	if out := tbl.RenderASCII(20, 8); !strings.Contains(out, "*") {
		t.Fatalf("degenerate table rendering lost the point:\n%s", out)
	}
}
