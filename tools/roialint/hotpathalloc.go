package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// HotPathAlloc flags avoidable heap allocations in tick-reachable
// functions — everything the call graph reaches synchronously from
// Server.Tick or an executor worker closure. Allocation on that path is
// deferred latency: it surfaces as GC pauses in exactly the tick tails the
// flight recorder captures and bench/ reports.
//
// Five allocation kinds are tracked: fmt formatting calls, non-constant
// string concatenation, interface boxing at call boundaries, appends onto
// slices declared without capacity, and escaping closures that capture
// variables.
//
// Existing debt is frozen in a committed baseline file rather than
// suppressed inline: each line is "file<TAB>function<TAB>kind<TAB>count",
// keyed by function name instead of line number so unrelated edits don't
// invalidate it. Findings within the baseline count are suppressed (still
// visible in -json); any excess — new debt — fails the run. Regenerate
// with `go run ./tools/roialint -write-hotpath-baseline ./...` and review
// the diff: shrinking counts is progress, growing ones need a reason.
type HotPathAlloc struct {
	// BaselinePath is the baseline file to read; empty means no baseline
	// (every allocation site reports).
	BaselinePath string
	// WriteBaseline regenerates BaselinePath from the current tree
	// instead of reporting.
	WriteBaseline bool
}

func (HotPathAlloc) Name() string { return "hotpathalloc" }

// baselineKey identifies one debt bucket.
type baselineKey struct {
	File string
	Func string
	Kind string
}

func (h HotPathAlloc) CheckGraph(g *Graph, r *Reporter) {
	baseline := map[baselineKey]int{}
	if h.BaselinePath != "" && !h.WriteBaseline {
		var err error
		baseline, err = readBaseline(h.BaselinePath)
		if err != nil {
			r.ReportPos(g.Fset.Position(0), "hotpathalloc", "baseline: %v", err)
			return
		}
	}
	counts := map[baselineKey]int{}
	for _, n := range g.Nodes {
		if !g.Reportable(n) || !g.HotPath(n) {
			continue
		}
		for _, s := range n.Sites {
			kind, ok := allocKinds[s.Kind]
			if !ok {
				continue
			}
			key := baselineKey{File: n.RelFile(), Func: n.Name, Kind: kind}
			counts[key]++
			if h.WriteBaseline {
				continue
			}
			msg := allocMessage(s, n)
			// Sites appear in source order; the first `baseline[key]`
			// occurrences are frozen debt, anything beyond is new.
			if counts[key] <= baseline[key] {
				r.ReportBaselined(s.Node, "hotpathalloc", "%s (baselined)", msg)
			} else {
				r.Report(s.Node, "hotpathalloc", "%s", msg)
			}
		}
	}
	if h.WriteBaseline {
		if err := writeBaseline(h.BaselinePath, counts); err != nil {
			r.ReportPos(g.Fset.Position(0), "hotpathalloc", "write baseline: %v", err)
		}
	}
}

func allocMessage(s *Site, n *FuncNode) string {
	switch s.Kind {
	case SiteAllocFmt:
		return fmt.Sprintf("%s allocates in tick-reachable %s — build the string with append/strconv into a reused buffer", s.Detail, n.Name)
	case SiteAllocConcat:
		return fmt.Sprintf("string concatenation allocates in tick-reachable %s", n.Name)
	case SiteAllocBox:
		return fmt.Sprintf("interface boxing (%s) allocates in tick-reachable %s", s.Detail, n.Name)
	case SiteAllocAppend:
		return fmt.Sprintf("append to %s, declared without capacity, reallocates in tick-reachable %s — preallocate or reuse a buffer", s.Detail, n.Name)
	case SiteAllocClosure:
		return fmt.Sprintf("escaping closure capturing [%s] allocates in tick-reachable %s", s.Detail, n.Name)
	}
	return "allocation in tick-reachable " + n.Name
}

// readBaseline parses a baseline file: tab-separated file/function/kind/
// count lines, '#' comments and blanks ignored.
func readBaseline(path string) (map[baselineKey]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[baselineKey]int{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 4 {
			return nil, fmt.Errorf("%s:%d: want 4 tab-separated fields, got %d", path, i+1, len(parts))
		}
		count, err := strconv.Atoi(parts[3])
		if err != nil || count <= 0 {
			return nil, fmt.Errorf("%s:%d: bad count %q", path, i+1, parts[3])
		}
		out[baselineKey{File: parts[0], Func: parts[1], Kind: parts[2]}] = count
	}
	return out, nil
}

// writeBaseline renders the current debt sorted by file/function/kind so
// regeneration diffs are stable and reviewable.
func writeBaseline(path string, counts map[baselineKey]int) error {
	keys := make([]baselineKey, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Kind < b.Kind
	})
	var sb strings.Builder
	sb.WriteString("# roialint hotpathalloc baseline — frozen allocation debt on the tick path.\n")
	sb.WriteString("# file\tfunction\tkind\tcount. Regenerate: go run ./tools/roialint -write-hotpath-baseline ./...\n")
	sb.WriteString("# Shrink counts by fixing sites; never grow one without a review.\n")
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s\t%s\t%s\t%d\n", k.File, k.Func, k.Kind, counts[k])
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
