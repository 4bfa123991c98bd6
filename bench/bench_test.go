package main

import (
	"math"
	"slices"
	"testing"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
)

// testOptions runs a workload at 1/20 scale for a fixed number of periods.
func testOptions(seed int64, trace bool) options {
	return options{seed: seed, periods: 40, trace: trace, scale: 20}
}

func mustRun(t *testing.T, s spec, o options) *result {
	t.Helper()
	res, err := runWorkload(s, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: %d of %d operations failed", s.name, res.Failed, res.Attempted)
	}
	return res
}

func sortedNames(ms []contractMetric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	slices.Sort(names)
	return names
}

// TestDeclaredNames checks that every workload emits exactly the workload
// and metric names BENCHMARK.json declares, untraced and traced.
func TestDeclaredNames(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	var declared, have []string
	for _, wl := range c.Workloads {
		declared = append(declared, wl.Name)
	}
	for _, s := range workloads() {
		have = append(have, s.name)
	}
	if !slices.Equal(declared, have) {
		t.Fatalf("workloads: BENCHMARK.json has %v, the command has %v", declared, have)
	}
	for _, s := range workloads() {
		for _, traced := range []bool{false, true} {
			want := sortedNames(c.EndToEnd)
			if traced {
				want = sortedNames(c.PerLayer)
			}
			res := mustRun(t, s, testOptions(1, traced))
			got := slices.Clone(res.names)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v:\n got %v\nwant %v", s.name, traced, got, want)
			}
			for _, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: a metric is %v", s.name, traced, m.Value)
				}
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", s.name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestSpanTree checks the spans of a traced run: every span lies inside its
// parent, in the same period, and a tick's children never add up to more
// than the tick. The reported self time plus the child layers is the tick.
func TestSpanTree(t *testing.T) {
	s, err := findWorkload("replica-2x150")
	if err != nil {
		t.Fatal(err)
	}
	s = s.scaled(20)
	tr := newTracer()
	w, err := newWorld(s, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	win, err := w.measure(0, 2*spanEvery)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) == 0 {
		t.Fatal("no spans kept")
	}
	children := make(map[int32]int64)
	names := make(map[string]bool)
	for i, sp := range tr.spans {
		names[sp.Name] = true
		if sp.End < sp.Start {
			t.Fatalf("span %d %s ends before it starts", i, sp.Name)
		}
		if sp.Parent < 0 {
			if sp.Name != "period" {
				t.Errorf("root span %d is %s", i, sp.Name)
			}
			continue
		}
		if int(sp.Parent) >= i {
			t.Fatalf("span %d has parent %d", i, sp.Parent)
		}
		p := tr.spans[sp.Parent]
		if p.Period != sp.Period || sp.Start < p.Start || sp.End > p.End {
			t.Errorf("span %d %s [%d,%d] period %d is outside its parent %s [%d,%d] period %d",
				i, sp.Name, sp.Start, sp.End, sp.Period, p.Name, p.Start, p.End, p.Period)
		}
		children[sp.Parent] += sp.End - sp.Start
	}
	for i, sp := range tr.spans {
		if sp.Name == "server.tick" && children[int32(i)] > sp.End-sp.Start {
			t.Errorf("tick span %d: children %d ns exceed the tick's %d ns", i, children[int32(i)], sp.End-sp.Start)
		}
	}
	for _, want := range []string{"period", "bots.step", "transport.ingest_wait", "server.tick",
		"game.apply_input", "game.update_npc", "transport.server_send", "transport.deliver_wait", "client.poll"} {
		if !names[want] {
			t.Errorf("no %s span", want)
		}
	}

	res := &result{Metrics: make(map[string]metric)}
	w.layerMetrics(res, win, nil, 0, gateResult{})
	v := func(name string) float64 { return res.Metrics[name].Value }
	childUS := v("game.apply_input_us_per_tick") + v("game.update_npc_us_per_tick") +
		v("game.apply_forwarded_us_per_tick") + v("transport.server_send_us_per_tick")
	// user_state is reported per migration, so take it from the sums.
	var stateNS int64
	for _, tk := range tr.ticks {
		stateNS += tk.stateNS
	}
	childMS := childUS/1e3 + float64(stateNS)/1e6/float64(len(tr.ticks))
	if got, want := v("server.self_ms")+childMS, v("server.tick_wall_mean_ms"); math.Abs(got-want) > 1e-9*want {
		t.Errorf("self + children = %v ms, tick = %v ms", got, want)
	}
}

// TestSeeds checks that a seed fixes the inputs: on the loopback workloads
// the same seed gives the same input count and egress bytes (and heap
// objects within 1 %), and another seed gives other inputs.
func TestSeeds(t *testing.T) {
	for _, s := range workloads() {
		if s.tcp {
			continue
		}
		a := mustRun(t, s, testOptions(1, false))
		b := mustRun(t, s, testOptions(1, false))
		c := mustRun(t, s, testOptions(2, false))
		const egress, allocs = "egress_bytes_per_user_tick", "allocs_per_user_tick"
		if a.Inputs != b.Inputs || a.Metrics[egress] != b.Metrics[egress] {
			t.Errorf("%s: same seed, inputs %d and %d, egress %v and %v", s.name,
				a.Inputs, b.Inputs, a.Metrics[egress].Value, b.Metrics[egress].Value)
		}
		if x, y := a.Metrics[allocs].Value, b.Metrics[allocs].Value; math.Abs(x-y) > 0.01*x {
			t.Errorf("%s: same seed, allocs_per_user_tick %v and %v", s.name, x, y)
		}
		if a.Inputs == c.Inputs && a.Metrics[egress] == c.Metrics[egress] {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", s.name)
		}
	}
}

// fakeNode records the calls that reach it.
type fakeNode struct {
	calls []string
	inbox chan transport.Frame
}

func (f *fakeNode) ID() string { f.calls = append(f.calls, "ID"); return "fake" }
func (f *fakeNode) Send(to string, p []byte) error {
	f.calls = append(f.calls, "Send:"+to+":"+string(p))
	return transport.ErrInboxFull
}
func (f *fakeNode) Inbox() <-chan transport.Frame { f.calls = append(f.calls, "Inbox"); return f.inbox }
func (f *fakeNode) Close() error                  { f.calls = append(f.calls, "Close"); return transport.ErrClosed }

type fakeBatchNode struct{ fakeNode }

func (f *fakeBatchNode) SendBatch(to string, ps [][]byte) error {
	f.calls = append(f.calls, "SendBatch:"+to)
	return transport.ErrUnknownTarget
}

// TestNodeDecoratorForwards checks that the node decorator passes every
// call through, traced or not, and offers SendBatch exactly when the inner
// node does: hiding it would turn off the server's vectored-write path.
func TestNodeDecoratorForwards(t *testing.T) {
	for _, tr := range []*tracer{nil, {on: true}} {
		plain := &fakeNode{inbox: make(chan transport.Frame)}
		n := wrapNode(plain, &countingNode{tr: tr})
		if _, ok := n.(transport.BatchSender); ok {
			t.Error("decorator adds SendBatch to a node without it")
		}
		if n.ID() != "fake" || n.Inbox() != (<-chan transport.Frame)(plain.inbox) {
			t.Error("ID or Inbox not forwarded")
		}
		if err := n.Send("c1", []byte("x")); err != transport.ErrInboxFull {
			t.Errorf("Send returned %v", err)
		}
		if err := n.Close(); err != transport.ErrClosed {
			t.Errorf("Close returned %v", err)
		}
		if !slices.Contains(plain.calls, "Send:c1:x") || !slices.Contains(plain.calls, "Close") {
			t.Errorf("calls reaching the inner node: %v", plain.calls)
		}

		batch := &fakeBatchNode{}
		counts := &countingNode{tr: tr, peers: map[string]bool{"s2": true}}
		bs, ok := wrapNode(batch, counts).(transport.BatchSender)
		if !ok {
			t.Fatal("decorator hides SendBatch")
		}
		if err := bs.SendBatch("c1", [][]byte{[]byte("ab"), []byte("c")}); err != transport.ErrUnknownTarget {
			t.Errorf("SendBatch returned %v", err)
		}
		_ = bs.SendBatch("s2", [][]byte{[]byte("peer")})
		if !slices.Contains(batch.calls, "SendBatch:c1") {
			t.Errorf("calls reaching the inner node: %v", batch.calls)
		}
		want := int64(transport.FrameWireBytes("fake", "c1", 2) + transport.FrameWireBytes("fake", "c1", 1))
		if counts.clientBytes != want {
			t.Errorf("counted %d bytes to clients, want %d", counts.clientBytes, want)
		}
	}
}

// fakeApp records the callbacks that reach it and returns marked values.
type fakeApp struct{ calls []string }

func (f *fakeApp) SpawnAvatar(_ *server.Env, id entity.ID, _ entity.Vec2, _ uint32) *entity.Entity {
	f.calls = append(f.calls, "SpawnAvatar")
	return &entity.Entity{ID: id, Health: 7}
}
func (f *fakeApp) ApplyInput(_ *server.Env, _ *entity.Entity, p []byte) ([]server.Forward, error) {
	f.calls = append(f.calls, "ApplyInput:"+string(p))
	return []server.Forward{{Target: 9}}, transport.ErrClosed
}
func (f *fakeApp) ApplyForwarded(_ *server.Env, _ entity.ID, _ *entity.Entity, p []byte) error {
	f.calls = append(f.calls, "ApplyForwarded:"+string(p))
	return transport.ErrClosed
}
func (f *fakeApp) UpdateNPC(*server.Env, *entity.Entity) []server.Forward {
	f.calls = append(f.calls, "UpdateNPC")
	return []server.Forward{{Target: 8}}
}
func (f *fakeApp) DrainEvents(*server.Env, entity.ID) []byte {
	f.calls = append(f.calls, "DrainEvents")
	return []byte("ev")
}
func (f *fakeApp) EncodeUserState(*server.Env, entity.ID) []byte {
	f.calls = append(f.calls, "EncodeUserState")
	return []byte("st")
}
func (f *fakeApp) ApplyUserState(_ *server.Env, _ entity.ID, d []byte) {
	f.calls = append(f.calls, "ApplyUserState:"+string(d))
}
func (f *fakeApp) ConcurrentNPCUpdates() bool { return true }

// TestAppDecoratorForwards checks that the application decorator passes
// every callback, its results and the optional capability through.
func TestAppDecoratorForwards(t *testing.T) {
	for _, on := range []bool{false, true} {
		inner := &fakeApp{}
		tr := &tracer{on: on}
		app := &tracedApp{inner: inner, tr: tr}
		env := &server.Env{ServerID: "s1", Store: entity.NewStore()}
		e := &entity.Entity{ID: 1}
		if av := app.SpawnAvatar(env, 5, entity.Vec2{}, 1); av.ID != 5 || av.Health != 7 {
			t.Errorf("SpawnAvatar returned %+v", av)
		}
		if fw, err := app.ApplyInput(env, e, []byte("in")); len(fw) != 1 || fw[0].Target != 9 || err != transport.ErrClosed {
			t.Errorf("ApplyInput returned %v, %v", fw, err)
		}
		if err := app.ApplyForwarded(env, 1, e, []byte("fw")); err != transport.ErrClosed {
			t.Errorf("ApplyForwarded returned %v", err)
		}
		if fw := app.UpdateNPC(env, e); len(fw) != 1 || fw[0].Target != 8 {
			t.Errorf("UpdateNPC returned %v", fw)
		}
		if string(app.DrainEvents(env, 1)) != "ev" || string(app.EncodeUserState(env, 1)) != "st" {
			t.Error("DrainEvents or EncodeUserState result lost")
		}
		app.ApplyUserState(env, 1, []byte("us"))
		if !app.ConcurrentNPCUpdates() {
			t.Error("ConcurrentSimulator capability lost")
		}
		want := []string{"SpawnAvatar", "ApplyInput:in", "ApplyForwarded:fw", "UpdateNPC",
			"DrainEvents", "EncodeUserState", "ApplyUserState:us"}
		if !slices.Equal(inner.calls, want) {
			t.Errorf("on=%v: calls reaching the application: %v", on, inner.calls)
		}
		if on && (tr.tick.inputCalls != 1 || tr.tick.inputErrs != 1 || tr.tick.stateCalls != 2 || tr.tick.forwards != 2) {
			t.Errorf("counts %+v", tr.tick)
		}
	}
	if (&tracedApp{inner: plainApp{}, tr: &tracer{}}).ConcurrentNPCUpdates() {
		t.Error("decorator claims a capability the application lacks")
	}
}

// plainApp is an application without the ConcurrentSimulator capability.
type plainApp struct{ server.Application }

// TestUsersInDeadline checks the interpolation that reads the capacity.
func TestUsersInDeadline(t *testing.T) {
	for _, tc := range []struct {
		steps  []rampStepResult
		want   float64
		capped bool
	}{
		{[]rampStepResult{{100, 5, 10, 99}}, 100, true},
		{[]rampStepResult{{100, 5, 80, 99}}, 50, false},
		{[]rampStepResult{{100, 5, 20, 99}, {200, 30, 60, 99}}, 150, false},
		{[]rampStepResult{{100, 5, 20, 99}, {200, 30, 39, 99}}, 200, true},
	} {
		got, capped := usersInDeadline(tc.steps, tickP75)
		if math.Abs(got-tc.want) > 1e-9 || capped != tc.capped {
			t.Errorf("%v: got %v capped=%v, want %v capped=%v", tc.steps, got, capped, tc.want, tc.capped)
		}
	}
}
