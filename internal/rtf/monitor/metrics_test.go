package monitor

import (
	"io"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

func seededMonitor() *Monitor {
	m := New()
	var b Breakdown
	b.Users = 120
	b.ActiveUsers = 60
	b.NPCs = 10
	b.Replicas = 2
	b.BytesIn = 512
	b.BytesOut = 4096
	b.Add(UA, 6.0, 60)
	b.Add(AOI, 3.0, 60)
	m.RecordTick(b)
	return m
}

func TestWriteMetricsExposition(t *testing.T) {
	m := seededMonitor()
	var sb strings.Builder
	if err := m.WriteMetrics(&sb, `server="s1"`); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`roia_ticks_total{server="s1"} 1`,
		`roia_tick_stat_ms{server="s1",stat="mean"} 9`,
		`roia_tick_wall_q_ms{server="s1",q="p50"} 9`,
		`roia_task_ms{server="s1",task="t_ua",stat="mean"} 0.1`,
		`roia_task_ms{server="s1",task="t_aoi",stat="mean"} 0.05`,
		`roia_zone_users{server="s1"} 120`,
		`roia_active_users{server="s1"} 60`,
		`roia_npcs{server="s1"} 10`,
		`roia_replicas{server="s1"} 2`,
		`roia_tick_bytes{server="s1",direction="in"} 512`,
		`roia_tick_bytes{server="s1",direction="out"} 4096`,
		`roia_monitor_dropped_samples_total{server="s1"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
	// Prometheus exposition needs TYPE headers.
	if !strings.Contains(out, "# TYPE roia_tick_stat_ms gauge") {
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
	m := seededMonitor()
	var sb strings.Builder
	if err := m.WriteMetrics(&sb, `server="s1",zone="1"`); err != nil {
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
	m := seededMonitor()
	var sb strings.Builder
	if err := m.WriteMetrics(&sb, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "roia_ticks_total 1") {
		t.Fatalf("unlabeled sample missing:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), `roia_tick_wall_q_ms{q="p50"} 9`) {
		t.Fatalf("unlabeled tail gauge missing:\n%s", sb.String())
	}
}

func TestMetricsHandler(t *testing.T) {
	m := seededMonitor()
	srv := httptest.NewServer(MetricsHandler(m, `zone="1"`))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `roia_zone_users{zone="1"} 120`) {
		t.Fatalf("handler body:\n%s", body)
	}
}
