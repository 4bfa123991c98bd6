package server

import (
	"math/rand"

	"roia/internal/rtf/aoi"
	"roia/internal/rtf/entity"
)

// NewIndexedEnv returns an Env over store whose Near runs through a spatial
// index, as a server with the default interest manager hands one to the
// simulate-stage callbacks — after BeginSimulate, and with Moved told of
// every displacement, which is the server's part.
func NewIndexedEnv(serverID string, store *entity.Store, rng *rand.Rand) *Env {
	return &Env{ServerID: serverID, Store: store, Rand: rng, index: aoi.NewIncremental(DefaultAOIRadius)}
}

func (env *Env) BeginSimulate()                          { env.beginSimulate() }
func (env *Env) Moved(e *entity.Entity, was entity.Vec2) { env.moved(e, was) }

// NearIndexed reports whether the server's Env answers Near from an index.
func (s *Server) NearIndexed() bool { return s.env.index != nil }

// Entities returns a copy of every entity the server holds, in ID order.
func (s *Server) Entities() []entity.Entity {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]entity.Entity, 0, s.store.Len())
	for _, e := range s.store.All() {
		out = append(out, *e)
	}
	return out
}
