package fleet_test

import (
	"fmt"
	"testing"

	"roia/internal/bots"
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
)

type harness struct {
	net   *transport.Loopback
	fl    *fleet.Fleet
	bots  []*bots.Bot
	nextC int
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	fl, err := fleet.New(fleet.Config{
		Network:    net,
		Zone:       1,
		Assignment: zone.NewAssignment(),
		NewApp:     func() server.Application { return game.New(game.DefaultConfig()) },
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.AddReplica(); err != nil {
		t.Fatal(err)
	}
	return &harness{net: net, fl: fl}
}

func (h *harness) addBot(t *testing.T, srvID string) *bots.Bot {
	t.Helper()
	h.nextC++
	node, err := h.net.Attach(fmt.Sprintf("bot-%d", h.nextC), 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(node, srvID)
	if err := cl.Join(1, entity.Vec2{X: float64(100 + h.nextC), Y: 100}, node.ID()); err != nil {
		t.Fatal(err)
	}
	b := bots.New(cl, bots.DefaultProfile(), int64(h.nextC))
	h.bots = append(h.bots, b)
	return b
}

func (h *harness) step() {
	h.fl.TickAll()
	for _, b := range h.bots {
		b.Step()
	}
}

func TestFleetSpawnsAndTracksServers(t *testing.T) {
	h := newHarness(t)
	if got := h.fl.IDs(); len(got) != 1 || got[0] != "server-1" {
		t.Fatalf("ids = %v", got)
	}
	id2, err := h.fl.AddReplica()
	if err != nil {
		t.Fatal(err)
	}
	states := h.fl.Servers()
	if len(states) != 2 || !states[1].Ready || states[1].ID != id2 {
		t.Fatalf("states = %+v", states)
	}
	if _, ok := h.fl.Server(id2); !ok {
		t.Fatal("Server lookup failed")
	}
}

func TestFleetBotsGenerateLoadAndState(t *testing.T) {
	h := newHarness(t)
	for i := 0; i < 8; i++ {
		h.addBot(t, "server-1")
	}
	for i := 0; i < 20; i++ {
		h.step()
	}
	if got := h.fl.ZoneUsers(); got != 8 {
		t.Fatalf("zone users = %d", got)
	}
	for _, b := range h.bots {
		if !b.Client().Joined() {
			t.Fatal("bot never joined")
		}
		if b.InputsSent() == 0 {
			t.Fatal("bot never sent inputs")
		}
		if b.Client().Updates() == 0 {
			t.Fatal("bot never received updates")
		}
	}
	srv, _ := h.fl.Server("server-1")
	sum := srv.FlightRecorder().Summary()
	if sum.Ticks == 0 {
		t.Fatal("no ticks recorded")
	}
	if sum.Wall.Mean <= 0 {
		t.Fatal("no tick time measured")
	}
}

func TestManagerDrivesLiveFleet(t *testing.T) {
	// The same RMS manager used against the simulator manages a live RTF
	// fleet: force an imbalance and watch Listing-1 migrations repair it.
	h := newHarness(t)
	id2, err := h.fl.AddReplica()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		h.addBot(t, "server-1") // all load on server-1
	}
	for i := 0; i < 5; i++ {
		h.step()
	}
	mdl, err := model.New(params.RTFDemo(), params.UFirstPersonShooter, params.CDefault)
	if err != nil {
		t.Fatal(err)
	}
	mgr := rms.NewManager(h.fl, rms.Config{Model: mdl})

	migrated := false
	for sec := 0; sec < 20 && !migrated; sec++ {
		actions := mgr.Step(float64(sec))
		for _, a := range actions {
			if a.Kind == rms.ActMigrate && a.Err == nil {
				migrated = true
			}
		}
		for i := 0; i < 5; i++ {
			h.step()
		}
	}
	if !migrated {
		t.Fatal("manager never migrated users on the live fleet")
	}
	s2, _ := h.fl.Server(id2)
	if s2.UserCount() == 0 {
		t.Fatal("second replica received no users")
	}
	// Bots keep playing after migration (clients followed the handoff).
	before := h.bots[0].Client().Updates()
	for i := 0; i < 10; i++ {
		h.step()
	}
	for _, b := range h.bots {
		if b.Client().Updates() <= before && b.Client().Server() != "server-1" {
			t.Fatal("migrated bot stopped receiving updates")
		}
	}
}

func TestFleetRemoveGuards(t *testing.T) {
	h := newHarness(t)
	if err := h.fl.RemoveReplica("server-1"); err == nil {
		t.Fatal("removed the last replica")
	}
	id2, _ := h.fl.AddReplica()
	if err := h.fl.RemoveReplica("ghost"); err == nil {
		t.Fatal("removed unknown server")
	}
	h.addBot(t, id2)
	for i := 0; i < 4; i++ {
		h.step()
	}
	if err := h.fl.RemoveReplica(id2); err == nil {
		t.Fatal("removed a populated server")
	}
	if err := h.fl.RemoveReplica("server-1"); err != nil {
		t.Fatalf("removing empty server: %v", err)
	}
	if got := h.fl.IDs(); len(got) != 1 || got[0] != id2 {
		t.Fatalf("ids after removal = %v", got)
	}
}

func TestBalanceNPCsEqualizesOwnership(t *testing.T) {
	h := newHarness(t)
	s1, _ := h.fl.Server("server-1")
	for i := 0; i < 9; i++ {
		s1.SpawnNPC(entity.Vec2{X: float64(100 + i*10), Y: 100})
	}
	id2, err := h.fl.AddReplica()
	if err != nil {
		t.Fatal(err)
	}
	id3, err := h.fl.AddReplica()
	if err != nil {
		t.Fatal(err)
	}
	if got := h.fl.BalanceNPCs(); got != 6 {
		t.Fatalf("moved %d NPCs, want 6 (9 split 3/3/3)", got)
	}
	// Ticks propagate the handoffs; every server then actively processes
	// its share.
	for i := 0; i < 4; i++ {
		h.fl.TickAll()
	}
	for _, id := range []string{"server-1", id2, id3} {
		srv, _ := h.fl.Server(id)
		if got := srv.NPCCount(); got != 3 {
			t.Fatalf("%s processes %d NPCs, want 3", id, got)
		}
		// Each replica still sees all 9 NPCs (shadow copies included).
		b := srv.Monitor().LastBreakdown()
		if b.NPCs != 9 {
			t.Fatalf("%s sees %d NPCs in the zone, want 9", id, b.NPCs)
		}
	}
	// Balanced fleet: a second call is a no-op.
	if got := h.fl.BalanceNPCs(); got != 0 {
		t.Fatalf("re-balance moved %d NPCs", got)
	}
}

func TestTransferNPCsGuards(t *testing.T) {
	h := newHarness(t)
	s1, _ := h.fl.Server("server-1")
	s1.SpawnNPC(entity.Vec2{X: 1, Y: 1})
	if got := s1.TransferNPCs("server-1", 1); got != 0 {
		t.Fatal("transferred NPC to itself")
	}
	if got := s1.TransferNPCs("ghost", 1); got != 0 {
		t.Fatal("transferred NPC to non-replica")
	}
	if got := s1.TransferNPCs("server-1", 0); got != 0 {
		t.Fatal("zero-count transfer moved NPCs")
	}
}

func TestFleetSubstituteReportsSaturation(t *testing.T) {
	h := newHarness(t)
	if _, err := h.fl.Substitute("server-1"); err == nil {
		t.Fatal("substitution succeeded on a homogeneous fleet")
	}
}

func TestFleetDraining(t *testing.T) {
	h := newHarness(t)
	if err := h.fl.SetDraining("server-1", true); err != nil {
		t.Fatal(err)
	}
	if !h.fl.Servers()[0].Draining {
		t.Fatal("draining flag not visible")
	}
	if err := h.fl.SetDraining("ghost", true); err == nil {
		t.Fatal("drained unknown server")
	}
}
