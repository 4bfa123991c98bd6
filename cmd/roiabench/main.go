// Command roiabench regenerates every evaluation artifact of the paper:
// Figures 4–8, the in-text threshold anchors of Section V-A, the
// baseline-strategy comparison, the FPS-vs-RPG profile comparison of
// Section III-C, and the simulator's ablations. Measurements of the live
// middleware over real sockets live in the separate bench/ module.
//
// Usage:
//
//	roiabench                  # everything, ASCII charts to stdout
//	roiabench -fig 5           # one figure
//	roiabench -fig 8 -csv out  # also write out/fig8.csv
//	roiabench -seed 3          # change the deterministic seed
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"roia/internal/experiments"
	"roia/internal/record"
	"roia/internal/stats"
)

var (
	figFlag  = flag.String("fig", "all", "artifact to regenerate: 4,5,6,7,8,anchors,baselines,traffic,heavy,pacing,flash,npcs,csweep,profiles,speedup,all")
	csvDir   = flag.String("csv", "", "directory to write CSV datasets into (created if missing)")
	seedFlag = flag.Int64("seed", 1, "seed for the deterministic runs")
	recFlag  = flag.String("record", "", "write the Fig. 8 session time series to this CSV (replayable via cmd/roiareplay)")
	width    = flag.Int("width", 72, "ASCII chart width")
	height   = flag.Int("height", 16, "ASCII chart height")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "roiabench:", err)
		os.Exit(1)
	}
}

func run() error {
	want := func(name string) bool { return *figFlag == "all" || *figFlag == name }
	any := false

	if want("4") {
		any = true
		res, err := experiments.Fig4(*seedFlag)
		if err != nil {
			return err
		}
		emit(res.Table)
		fmt.Printf("fit quality: worst relative error vs ground truth = %.2f%%\n\n", res.MaxRelErr*100)
	}
	if want("5") {
		any = true
		res := experiments.Fig5()
		emit(res.Table)
		fmt.Printf("l_max = %d (paper: 8); n_max(1) = %d (paper: 235); trigger(1) = %d (paper: 188)\n",
			res.LMax, res.MaxUsers[0], res.Triggers[0])
		fmt.Printf("%-10s", "replicas:")
		for l := range res.MaxUsers {
			fmt.Printf("%7d", l+1)
		}
		fmt.Printf("\n%-10s", "max users:")
		for _, n := range res.MaxUsers {
			fmt.Printf("%7d", n)
		}
		fmt.Printf("\n%-10s", "trigger:")
		for _, n := range res.Triggers {
			fmt.Printf("%7d", n)
		}
		fmt.Print("\n\n")
	}
	if want("6") {
		any = true
		res, err := experiments.Fig6(*seedFlag)
		if err != nil {
			return err
		}
		emit(res.Table)
		fmt.Printf("t_mig_ini = %s\nt_mig_rcv = %s\n\n", res.IniCurve, res.RcvCurve)
	}
	if want("7") {
		any = true
		res := experiments.Fig7()
		emit(res.Table)
		fmt.Printf("examples: x_ini@35ms=%d (paper worked example: 3)  x_rcv@15ms=%d\n\n",
			res.IniAt[35], res.RcvAt[15])
	}
	if want("8") {
		any = true
		res, err := experiments.Fig8(*seedFlag)
		if err != nil {
			return err
		}
		emit(res.Table)
		s := res.Session
		fmt.Printf("session: violations=%d (paper: none)  peak tick=%.2f ms  peak replicas=%d  migrations=%d  cost=%.2f\n\n",
			s.TotalViolations, s.PeakTickMS, s.PeakReplicas, s.TotalMigrations, s.Cost)
		if *recFlag != "" {
			f, err := os.Create(*recFlag)
			if err != nil {
				return err
			}
			err = record.SaveSession(f, s.Stats)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Printf("session recorded to %s\n\n", *recFlag)
		}
	}
	if want("anchors") {
		any = true
		fmt.Println(experiments.Anchors())
		fmt.Println()
	}
	if want("baselines") {
		any = true
		rows, err := experiments.BaselineComparison(*seedFlag)
		if err != nil {
			return err
		}
		fmt.Println("Baseline comparison on the Fig. 8 workload:")
		fmt.Print(experiments.FormatBaselines(rows))
		fmt.Println()
	}
	if want("traffic") {
		any = true
		res, err := experiments.Traffic(*seedFlag)
		if err != nil {
			return err
		}
		emit(res.Table)
		fmt.Println(experiments.FormatTraffic(res))
		fmt.Println()
	}
	if want("heavy") {
		any = true
		res, err := experiments.HeavyLoad(*seedFlag)
		if err != nil {
			return err
		}
		emit(res.Table)
		fmt.Printf("heavy load: substitutions=%d saturation-alerts=%d final classes=%v\n",
			res.Substitutions, res.SaturationAlerts, res.FinalClasses)
		fmt.Printf("            total violations=%d (transient during upgrades), peak tick=%.1f ms, cost=%.2f\n\n",
			res.Session.TotalViolations, res.Session.PeakTickMS, res.Session.Cost)
	}
	if want("flash") {
		any = true
		res, err := experiments.FlashCrowd(*seedFlag)
		if err != nil {
			return err
		}
		emit(res.Table)
		fmt.Println("Flash crowd (150 → 400 users in one second):")
		fmt.Printf("%-18s %10s %12s %11s %12s %14s\n", "arm", "violations", "peak tick", "peak queue", "queue clear", "admitted peak")
		for _, r := range res.Rows {
			clear := "-"
			if r.QueueClearedAt > 0 {
				clear = fmt.Sprintf("%.0fs", r.QueueClearedAt)
			}
			fmt.Printf("%-18s %10d %10.2fms %11d %12s %14d\n",
				r.Name, r.Violations, r.PeakTickMS, r.PeakQueue, clear, r.AdmittedPeak)
		}
		fmt.Println()
	}
	if want("pacing") {
		any = true
		rows, err := experiments.PacingAblation(*seedFlag)
		if err != nil {
			return err
		}
		fmt.Println("Migration-pacing ablation (the paper's delta over [15]) on the Fig. 8 workload:")
		fmt.Printf("%-26s %10s %12s %10s %12s\n", "arm", "violations", "peak tick", "migrations", "max mig/s")
		for _, r := range rows {
			fmt.Printf("%-26s %10d %10.2fms %10d %12d\n",
				r.Name, r.Violations, r.PeakTickMS, r.Migrations, r.MaxMigrationsPerSecond)
		}
		fmt.Println()
	}
	if want("csweep") {
		any = true
		fmt.Println("Improvement-factor sweep (Eq. 3's economic parameter c, §V-A):")
		fmt.Printf("%8s %7s %16s\n", "c", "l_max", "n_max(l_max)")
		for _, r := range experiments.CSweep() {
			fmt.Printf("%8.2f %7d %16d\n", r.C, r.LMax, r.NMaxLMax)
		}
		fmt.Println()
	}
	if want("npcs") {
		any = true
		fmt.Println("NPC sweep (Eq. 1's m/l·t_npc term):")
		fmt.Printf("%8s %10s %7s\n", "NPCs", "n_max(1)", "l_max")
		for _, r := range experiments.NPCSweep() {
			fmt.Printf("%8d %10d %7d\n", r.NPCs, r.NMax1, r.LMax)
		}
		fmt.Println()
	}
	if want("profiles") {
		any = true
		fmt.Println("Application profiles (Section III-C):")
		fmt.Printf("%-16s %10s %12s %6s %10s\n", "profile", "U [ms]", "n_max(1)", "l_max", "x_ini(200)")
		for _, r := range experiments.ProfileComparison() {
			capacity := fmt.Sprintf("%d", r.NMax1)
			if r.Unbounded {
				capacity = ">" + capacity
			}
			fmt.Printf("%-16s %10.0f %12s %6d %10d\n", r.Name, r.U, capacity, r.LMax, r.XIni200)
		}
		fmt.Println()
	}
	if want("speedup") {
		any = true
		res, err := experiments.Speedup(*seedFlag)
		if err != nil {
			return err
		}
		emit(res.Table)
		fmt.Printf("Intra-replica parallelism (USL σ=%.3f κ=%.4f; n_ref=%d users):\n",
			res.Truth.Sigma, res.Truth.Kappa, res.NRef)
		fmt.Printf("%8s %9s %12s %10s\n", "workers", "S(w)", "tick [ms]", "n_max(1)")
		for _, r := range res.Rows {
			fmt.Printf("%8d %9.2f %12.2f %10d\n", r.Workers, r.Speedup, r.TickMS, r.NMax)
		}
		fmt.Printf("calibration round-trip: fitted σ=%.3f κ=%.4f (RMSE %.4f)\n\n",
			res.Fitted.Sigma, res.Fitted.Kappa, res.FitRMSE)
	}
	if !any {
		return fmt.Errorf("unknown -fig value %q", *figFlag)
	}
	return nil
}

// emit renders a table as an ASCII chart and optionally writes its CSV.
func emit(t *stats.Table) {
	fmt.Print(t.RenderASCII(*width, *height))
	fmt.Println()
	if *csvDir == "" {
		return
	}
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "roiabench: csv:", err)
		return
	}
	name := filepath.Join(*csvDir, slug(t.Title)+".csv")
	f, err := os.Create(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roiabench: csv:", err)
		return
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		fmt.Fprintln(os.Stderr, "roiabench: csv:", err)
	}
}

// slug derives a filename from a figure title ("Fig. 5: ..." → "fig5").
func slug(title string) string {
	out := make([]rune, 0, len(title))
	for _, r := range title {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		case r == ':':
			return string(out)
		}
	}
	return string(out)
}
