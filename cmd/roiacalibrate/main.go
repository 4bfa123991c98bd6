// Command roiacalibrate determines the scalability-model parameters for
// the shooter application by measurement, reproducing the procedure of
// Section V-A: it runs a live in-process RTF cluster (two replicas of one
// zone, as in the paper), ramps bot load up to -maxbots, collects the
// per-task CPU times from the RTF monitoring hooks at each load level, and
// fits the approximation functions with least squares / Levenberg–
// Marquardt. The calibrated parameter set is written as JSON, ready to be
// loaded into the scalability model.
//
// Absolute coefficients depend on the machine this runs on — exactly as
// the paper's depend on its Core Duo testbed. The curve shapes
// (calibrate.GameDegrees: quadratic t_aoi, linear rest) are
// machine-independent.
package main

import (
	"flag"
	"fmt"
	"os"

	"roia/internal/bots"
	"roia/internal/calibrate"
	"roia/internal/fit"
	"roia/internal/game"
	"roia/internal/model"
	"roia/internal/rtf/fleet"
	"roia/internal/rtf/monitor"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
)

var (
	maxBots  = flag.Int("maxbots", 300, "peak bot count (paper: up to 300)")
	levels   = flag.Int("levels", 15, "number of load levels to sample")
	ticksPer = flag.Int("ticks", 50, "ticks to run (and sample) per load level")
	outFlag  = flag.String("o", "", "write the calibrated parameter set JSON to this file (default stdout)")
	uFlag    = flag.Float64("u", 40, "tick-duration threshold U in ms for the threshold report")
	seedFlag = flag.Int64("seed", 1, "random seed")
	validate = flag.Bool("validate", false, "after fitting, measure held-out load levels and report predicted vs measured ticks")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "roiacalibrate:", err)
		os.Exit(1)
	}
}

func run() error {
	net := transport.NewLoopback()
	defer net.Close()
	fl, err := fleet.New(fleet.Config{
		Network:    net,
		Zone:       1,
		Assignment: zone.NewAssignment(),
		NewApp:     func() server.Application { return game.New(game.DefaultConfig()) },
		Seed:       *seedFlag,
	})
	if err != nil {
		return err
	}
	// Two replicas, bots split across both — "we distribute bots equally
	// on both servers, in order to simulate a high amount of inter-server
	// communication" (Section V-A).
	for i := 0; i < 2; i++ {
		if _, err := fl.AddReplica(); err != nil {
			return err
		}
	}
	var monitors []*monitor.Monitor
	for _, id := range fl.IDs() {
		srv, _ := fl.Server(id)
		srv.Monitor().SetCollecting(true)
		monitors = append(monitors, srv.Monitor())
	}

	driver := bots.NewFleetDriver(fl, net, *seedFlag)
	for level := 1; level <= *levels; level++ {
		target := *maxBots * level / *levels
		if err := driver.SetBots(target); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "level %2d/%d: %3d bots, mean tick %.3f ms\n",
			level, *levels, target, stepMeanTick(driver, monitors))
	}

	res, err := calibrate.FromMonitor("calibrated-shooter", monitors...)
	if err != nil {
		return err
	}
	if res.DroppedSamples > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d calibration samples dropped at the %d-entry log cap; the fit used the samples collected before it\n",
			res.DroppedSamples, monitor.DefaultSampleLimit)
	}
	report(res)
	if *validate {
		if err := validateModel(res, driver, monitors); err != nil {
			return err
		}
	}

	data, err := res.Set.Encode()
	if err != nil {
		return err
	}
	if *outFlag == "" {
		fmt.Println(string(data))
		return nil
	}
	return os.WriteFile(*outFlag, data, 0o644)
}

// validateModel measures held-out load levels (between the training
// levels) and compares the live mean tick against the fitted model's
// Eq. (4) prediction — the accuracy check a provider runs before trusting
// the thresholds.
func validateModel(res *calibrate.Result, driver *bots.FleetDriver, monitors []*monitor.Monitor) error {
	mdl, err := model.New(res.Set, *uFlag, 0.15)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "\nvalidation (held-out load levels):")
	fmt.Fprintf(os.Stderr, "  %6s %14s %14s %8s\n", "bots", "predicted[ms]", "measured[ms]", "error")
	for _, frac := range []float64{0.3, 0.55, 0.85} {
		n := int(float64(*maxBots) * frac)
		if n < 2 {
			continue
		}
		if err := driver.SetBots(n); err != nil {
			return err
		}
		measured := stepMeanTick(driver, monitors)
		// Two replicas with an even split: a = n/2.
		predicted := mdl.TickTimeUneven(2, n, 0, n/2)
		errPct := 0.0
		if predicted > 0 {
			errPct = (measured - predicted) / predicted * 100
		}
		fmt.Fprintf(os.Stderr, "  %6d %14.4f %14.4f %7.1f%%\n", n, predicted, measured, errPct)
	}
	return nil
}

// stepMeanTick runs -ticks ticks and returns their mean wall time (ms) over
// every replica: the ticks of this load level only, where the recorders'
// 512-record mean would span several levels.
func stepMeanTick(driver *bots.FleetDriver, monitors []*monitor.Monitor) float64 {
	sum, n := 0.0, 0
	for tick := 0; tick < *ticksPer; tick++ {
		driver.Step()
		for _, m := range monitors {
			bd := m.LastBreakdown()
			sum += bd.Wall()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func report(res *calibrate.Result) {
	fmt.Fprintln(os.Stderr, "\nfitted approximation functions:")
	show := func(t monitor.Task, c fmt.Stringer, fr fit.Result, fitted bool) {
		if !fitted {
			fmt.Fprintf(os.Stderr, "  %-10s (no samples)\n", t)
			return
		}
		fmt.Fprintf(os.Stderr, "  %-10s = %-40s  rmse=%.5f\n", t, c, fr.RMSE)
	}
	set := res.Set
	curves := map[monitor.Task]fmt.Stringer{
		monitor.UADeser: set.UADeser, monitor.UA: set.UA, monitor.FADeser: set.FADeser,
		monitor.FA: set.FA, monitor.NPC: set.NPC, monitor.AOI: set.AOI, monitor.SU: set.SU,
		monitor.MigIni: set.MigIni, monitor.MigRcv: set.MigRcv,
	}
	for _, task := range monitor.Tasks() {
		fr, ok := res.Fits[task]
		show(task, curves[task], fr, ok)
	}

	mdl, err := model.New(set, *uFlag, 0.15)
	if err != nil {
		fmt.Fprintln(os.Stderr, "model:", err)
		return
	}
	nmax, bounded := mdl.MaxUsers(1, 0)
	lmax, _ := mdl.MaxReplicas(0)
	fmt.Fprintf(os.Stderr, "\nthresholds on THIS machine at U=%.0fms, c=0.15:\n", *uFlag)
	if bounded {
		fmt.Fprintf(os.Stderr, "  n_max(1) = %d users, replication trigger = %d, l_max = %d\n",
			nmax, model.ReplicationTrigger(nmax, 0.8), lmax)
	} else {
		fmt.Fprintf(os.Stderr, "  n_max(1) > %d users (machine faster than the search cap is wide)\n", nmax)
	}
}
