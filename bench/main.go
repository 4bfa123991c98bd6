// Command bench is the repository's one benchmark: how many users a replica
// holds inside the deadline U, what a player's input→update round trip
// costs at that load, and where each layer's share of the tick goes. It hosts
// the servers and every client in one process and drives them in lockstep
// periods from one goroutine; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics instead of the end-to-end ones")
		repeat  = flag.Int("repeat", 1, "run this many sets and fail if an end-to-end metric spreads by more than its bound")
		layers  = flag.Bool("layers", false, "print the traced run's per-layer table (implies -trace 1)")
		jsonOut = flag.String("json", "", "also write every result to this file as JSON")
		outDir  = flag.String("out", defaultOutDir(), "directory for trace-<workload>.jsonl")
	)
	flag.Parse()
	if *layers {
		*trace = 1
	}
	specs := workloads()
	if *name != "" {
		s, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		specs = []spec{s}
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}

	var all []*result
	ok := true
	for set := 0; set < *repeat; set++ {
		for _, s := range specs {
			res, err := runWorkload(s, opts)
			if err != nil {
				fatal(err)
			}
			all = append(all, res)
			ok = ok && res.Correct
			if *layers {
				printLayers(res)
			} else {
				printResult(res)
			}
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(all, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, data, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if *repeat > 1 && !opts.trace {
		contract, err := loadContract()
		if err != nil {
			fatal(err)
		}
		ok = checkSpread(all, contract) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// defaultOutDir is bench/out seen from the directory the command runs in.
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/out"
	}
	return "out"
}

// printResult prints one line per metric, workload metric value unit, then
// the result as one JSON object: the last line of a single-workload run.
func printResult(res *result) {
	for _, n := range res.names {
		m := res.Metrics[n]
		fmt.Printf("%s %s %v %s\n", res.Workload, n, m.Value, m.Unit)
	}
	fmt.Printf("%s ops_attempted %d count\n", res.Workload, res.Attempted)
	fmt.Printf("%s ops_failed %d count\n", res.Workload, res.Failed)
	fmt.Printf("%s ops_failed_share %v share\n", res.Workload, float64(res.Failed)/float64(max(res.Attempted, 1)))
	if res.Capped {
		fmt.Printf("%s users_in_deadline_capped 1 flag\n", res.Workload)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// printLayers prints the per-layer metrics as a table whose last rows add
// the paper's task decomposition up to the tick and show what is left.
func printLayers(res *result) {
	fmt.Printf("%s (seed %d, traced)\n", res.Workload, res.Seed)
	for _, n := range res.names {
		m := res.Metrics[n]
		fmt.Printf("  %-42s %14.4f %s\n", n, m.Value, m.Unit)
	}
	tick := res.Metrics["server.tick_wall_p50_ms"].Value
	sum := res.Metrics["server.tick_unaccounted_ms"].Value
	for _, t := range taskNames() {
		sum += res.Metrics["server.task_ms."+t].Value
	}
	fmt.Printf("  %-42s %14.4f ms\n", "sum of server.task_ms.* and unaccounted", sum)
	fmt.Printf("  %-42s %14.4f ms (%.1f%% of tick_wall_p50_ms)\n", "remainder to server.tick_wall_p50_ms", tick-sum, 100*ratio(tick-sum, tick))
	fmt.Printf("  %-42s %14d of %d\n", "operations failed", res.Failed, res.Attempted)
}

// contract is the part of BENCHMARK.json the command reads back.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []contractMetric        `json:"end_to_end"`
	PerLayer  []contractMetric        `json:"per_layer"`
}

type contractMetric struct {
	Name, Unit, Better string
	Bound              float64
}

// loadContract reads BENCHMARK.json from the working directory or its
// parent (the command runs from the repository root or from bench/).
func loadContract() (*contract, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, errors.New("BENCHMARK.json not found in . or ..")
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// checkSpread prints, per workload and end-to-end metric, the minimum,
// median and maximum over the sets run, and reports whether every spread,
// (max − min) ÷ median, stays within the metric's bound.
func checkSpread(all []*result, c *contract) bool {
	ok := true
	fmt.Println("workload metric min median max spread bound")
	var names []string
	for _, r := range all {
		if !slices.Contains(names, r.Workload) {
			names = append(names, r.Workload)
		}
	}
	for _, wl := range names {
		for _, m := range c.EndToEnd {
			var vs []float64
			for _, r := range all {
				if r.Workload == wl {
					vs = append(vs, r.Metrics[m.Name].Value)
				}
			}
			slices.Sort(vs)
			med := percentile(vs, 50)
			spread := ratio(vs[len(vs)-1]-vs[0], med)
			verdict := ""
			if spread > m.Bound {
				verdict = " EXCEEDED"
				ok = false
			}
			fmt.Printf("%s %s %.6g %.6g %.6g %.4f %.2f%s\n", wl, m.Name, vs[0], med, vs[len(vs)-1], spread, m.Bound, verdict)
		}
	}
	if !ok {
		fmt.Println("repeatability check FAILED")
	}
	return ok
}
