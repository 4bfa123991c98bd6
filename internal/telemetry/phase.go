package telemetry

import "fmt"

// Phase identifies one of the four computational tasks of the real-time
// loop from the scalability model. Deserialization is folded into the task
// that consumes the payload (the paper's t_ua/t_fa terms include it), and
// state-update serialization into the AoI task, so the four phases
// partition the whole tick body.
type Phase int

const (
	// PhaseUserInput covers deserializing and applying the inputs of
	// locally-hosted users (t_ua_deser + t_ua).
	PhaseUserInput Phase = iota
	// PhaseForwardedInput covers deserializing and applying inputs
	// forwarded for shadow entities (t_fa_deser + t_fa).
	PhaseForwardedInput
	// PhaseNPCUpdate covers NPC behaviour updates (t_npc).
	PhaseNPCUpdate
	// PhaseAOISU covers area-of-interest resolution and state-update
	// serialization (t_aoi + t_su).
	PhaseAOISU

	// NumPhases is the number of phases; usable as an array length.
	NumPhases = int(PhaseAOISU) + 1
)

var phaseNames = [NumPhases]string{
	"user_input",
	"forwarded_input",
	"npc_update",
	"aoi_su",
}

// String returns the stable snake_case phase name used in metric labels.
func (p Phase) String() string {
	if p < 0 || int(p) >= NumPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// PhaseNames returns the phase names in phase order.
func PhaseNames() [NumPhases]string { return phaseNames }
