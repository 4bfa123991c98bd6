package params

// Default tick-duration thresholds (ms) for the application classes the
// paper discusses in Section III-C.
const (
	// UFirstPersonShooter is the threshold for fast-paced action games:
	// 25 state updates per second, i.e. a 40 ms tick (Section V, RTFDemo).
	UFirstPersonShooter = 40.0
	// URolePlaying is the upper bound the paper cites for online
	// role-playing games, which tolerate response times up to 1.5 s.
	URolePlaying = 1500.0
	// CDefault is the "compromise" minimum-improvement factor chosen for
	// RTFDemo in Section V-A (yields l_max = 8).
	CDefault = 0.15
)

// RTFDemo returns the calibrated parameter profile of the RTFDemo
// first-person shooter, the paper's case-study application.
//
// The coefficients come from a one-off search over the curve coefficients,
// deleted since (`git show fc8f5f2:tools/` lists it), chosen so that, at
// U = 40 ms, c = 0.15 and m = 0, the profile reproduces the paper's anchor
// numbers exactly:
//
//	n_max(1)          = 235 users      (§V-A)
//	replication trig. = 188 users      (80 % of n_max)
//	l_max(c = 0.15)   = 8 replicas     (§V-A)
//	l_max(c = 0.05)   = 48 replicas    (§V-A)
//	l_max(c = 1.0)    = 1 replica      (§V-A)
//	t_mig_ini(180)    = 1.4 ms  → 3 migrations/s of 5 ms headroom (§V-A)
//	t_mig_rcv(80)     = 0.73 ms → 34 migrations/s of 25 ms headroom (§V-A)
//
// Curve shapes follow Section V-A: quadratic t_ua and t_aoi (attack
// processing and the Euclidean-distance interest management both iterate
// over all users), linear t_ua_dser, t_su, t_fa, t_fa_dser, t_mig_ini and
// t_mig_rcv, and t_mig_ini > t_mig_rcv. Absolute magnitudes are anchored to
// the thresholds above rather than to the authors' Core Duo testbed.
// The anchor tests in this package pin the search's result.
func RTFDemo() *Set {
	return &Set{
		Name:    "rtfdemo-fps",
		UADeser: Linear(0.005, 0.00004),
		UA:      Quadratic(0.004589, 0.0002394442316181948, 9e-8),
		FADeser: Linear(0.0024085530, 2e-7),
		FA:      Linear(0.0036128296, 3e-7),
		NPC:     Linear(0.02, 0.00005),
		AOI:     Quadratic(0.006, 0.00019590891677852298, 1.1e-7),
		SU:      Linear(0.012, 0.00008),
		MigIni:  Linear(0.5, 0.005),
		MigRcv:  Linear(0.33, 0.005),
		// Modest contention with a small coherency tail: the tick
		// pipeline's merge points serialize ~8 % of the parallel work and
		// worker crosstalk grows slowly. Placeholder magnitudes until a
		// multi-core calibration sweep (calibrate.FitParallel) replaces
		// them; w = 1 predictions are unaffected, so every paper anchor
		// above still holds exactly.
		Parallel: USL{Sigma: 0.08, Kappa: 0.002},
	}
}

// RPG returns a parameter profile representative of an online role-playing
// game (Section III-C): explicit target selection and a fixed interaction
// set make input application cheap and linear, state updates are smaller,
// and the tolerable tick duration is far higher. With U = URolePlaying this
// profile yields thresholds orders of magnitude above the FPS profile,
// matching the paper's qualitative comparison.
func RPG() *Set {
	return &Set{
		Name:    "rpg",
		UADeser: Linear(0.004, 0.00002),
		UA:      Linear(0.02, 0.00006),
		FADeser: Linear(0.002, 1e-7),
		FA:      Linear(0.003, 2e-7),
		NPC:     Linear(0.05, 0.00002),
		AOI:     Quadratic(0.01, 0.0001, 2e-8),
		SU:      Linear(0.02, 0.00004),
		MigIni:  Linear(0.8, 0.004),
		MigRcv:  Linear(0.5, 0.003),
	}
}
