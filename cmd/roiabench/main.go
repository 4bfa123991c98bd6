// Command roiabench regenerates every evaluation artifact of the paper:
// Figures 4–8, the in-text threshold anchors of Section V-A, the
// FPS-vs-RPG profile comparison of Section III-C, the baseline-strategy
// comparison and migration-pacing ablation on the Fig. 8 workload, the
// traffic model and the intra-replica speedup. Measurements of the live
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
	"io"
	"os"
	"path/filepath"

	"roia/internal/experiments"
	"roia/internal/record"
	"roia/internal/stats"
)

var (
	figFlag  = flag.String("fig", "all", "artifact to regenerate: 4,5,6,7,8,anchors,baselines,traffic,pacing,profiles,speedup,all")
	csvDir   = flag.String("csv", "", "directory to write CSV datasets into (created if missing)")
	seedFlag = flag.Int64("seed", 1, "seed for the deterministic runs")
	recFlag  = flag.String("record", "", "write the Fig. 8 session time series to this CSV (replayable via cmd/roiareplay)")
	width    = flag.Int("width", 72, "ASCII chart width")
	height   = flag.Int("height", 16, "ASCII chart height")
)

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "roiabench:", err)
		os.Exit(1)
	}
}

// run regenerates the artifacts -fig selects and writes them to w.
func run(w io.Writer) error {
	want := func(name string) bool { return *figFlag == "all" || *figFlag == name }
	any := false

	if want("4") {
		any = true
		res, err := experiments.Fig4(*seedFlag)
		if err != nil {
			return err
		}
		emit(w, res.Table)
		fmt.Fprintf(w, "fit quality: worst relative error vs ground truth = %.2f%%\n\n", res.MaxRelErr*100)
	}
	if want("5") {
		any = true
		res := experiments.Fig5()
		emit(w, res.Table)
		fmt.Fprintf(w, "l_max = %d (paper: 8); n_max(1) = %d (paper: 235); trigger(1) = %d (paper: 188)\n",
			res.LMax, res.MaxUsers[0], res.Triggers[0])
		fmt.Fprintf(w, "%-10s", "replicas:")
		for l := range res.MaxUsers {
			fmt.Fprintf(w, "%7d", l+1)
		}
		fmt.Fprintf(w, "\n%-10s", "max users:")
		for _, n := range res.MaxUsers {
			fmt.Fprintf(w, "%7d", n)
		}
		fmt.Fprintf(w, "\n%-10s", "trigger:")
		for _, n := range res.Triggers {
			fmt.Fprintf(w, "%7d", n)
		}
		fmt.Fprint(w, "\n\n")
	}
	if want("6") {
		any = true
		res, err := experiments.Fig6(*seedFlag)
		if err != nil {
			return err
		}
		emit(w, res.Table)
		fmt.Fprintf(w, "t_mig_ini = %s\nt_mig_rcv = %s\n\n", res.IniCurve, res.RcvCurve)
	}
	if want("7") {
		any = true
		res := experiments.Fig7()
		emit(w, res.Table)
		fmt.Fprintf(w, "examples: x_ini@35ms=%d (paper worked example: 3)  x_rcv@15ms=%d\n\n",
			res.IniAt[35], res.RcvAt[15])
	}
	if want("8") {
		any = true
		res, err := experiments.Fig8(*seedFlag)
		if err != nil {
			return err
		}
		emit(w, res.Table)
		s := res.Session
		fmt.Fprintf(w, "session: violations=%d (paper: none)  peak tick=%.2f ms  peak replicas=%d  migrations=%d  cost=%.2f\n\n",
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
			fmt.Fprintf(w, "session recorded to %s\n\n", *recFlag)
		}
	}
	if want("anchors") {
		any = true
		fmt.Fprintln(w, experiments.Anchors())
		fmt.Fprintln(w)
	}
	if want("baselines") {
		any = true
		rows, err := experiments.BaselineComparison(*seedFlag)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Baseline comparison on the Fig. 8 workload:")
		fmt.Fprint(w, experiments.FormatBaselines(rows))
		fmt.Fprintln(w)
	}
	if want("traffic") {
		any = true
		res, err := experiments.Traffic(*seedFlag)
		if err != nil {
			return err
		}
		emit(w, res.Table)
		fmt.Fprintln(w, experiments.FormatTraffic(res))
		fmt.Fprintln(w)
	}
	if want("pacing") {
		any = true
		rows, err := experiments.PacingAblation(*seedFlag)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Migration-pacing ablation (the paper's delta over [15]) on the Fig. 8 workload:")
		fmt.Fprintf(w, "%-26s %10s %12s %10s %12s\n", "arm", "violations", "peak tick", "migrations", "max mig/s")
		for _, r := range rows {
			fmt.Fprintf(w, "%-26s %10d %10.2fms %10d %12d\n",
				r.Name, r.Violations, r.PeakTickMS, r.Migrations, r.MaxMigrationsPerSecond)
		}
		fmt.Fprintln(w)
	}
	if want("profiles") {
		any = true
		fmt.Fprintln(w, "Application profiles (Section III-C):")
		fmt.Fprintf(w, "%-16s %10s %12s %6s %10s\n", "profile", "U [ms]", "n_max(1)", "l_max", "x_ini(200)")
		for _, r := range experiments.ProfileComparison() {
			capacity := fmt.Sprintf("%d", r.NMax1)
			if r.Unbounded {
				capacity = ">" + capacity
			}
			fmt.Fprintf(w, "%-16s %10.0f %12s %6d %10d\n", r.Name, r.U, capacity, r.LMax, r.XIni200)
		}
		fmt.Fprintln(w)
	}
	if want("speedup") {
		any = true
		res, err := experiments.Speedup(*seedFlag)
		if err != nil {
			return err
		}
		emit(w, res.Table)
		fmt.Fprintf(w, "Intra-replica parallelism (USL σ=%.3f κ=%.4f; n_ref=%d users):\n",
			res.Truth.Sigma, res.Truth.Kappa, res.NRef)
		fmt.Fprintf(w, "%8s %9s %12s %10s\n", "workers", "S(w)", "tick [ms]", "n_max(1)")
		for _, r := range res.Rows {
			fmt.Fprintf(w, "%8d %9.2f %12.2f %10d\n", r.Workers, r.Speedup, r.TickMS, r.NMax)
		}
		fmt.Fprintf(w, "calibration round-trip: fitted σ=%.3f κ=%.4f (RMSE %.4f)\n\n",
			res.Fitted.Sigma, res.Fitted.Kappa, res.FitRMSE)
	}
	if !any {
		return fmt.Errorf("unknown -fig value %q", *figFlag)
	}
	return nil
}

// emit renders a table as an ASCII chart and optionally writes its CSV.
func emit(w io.Writer, t *stats.Table) {
	fmt.Fprint(w, t.RenderASCII(*width, *height))
	fmt.Fprintln(w)
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
