package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// MetricName enforces the exposition grammar every metric family in the
// repo follows: families are `(roia|fleet)_[a-z0-9_]+`, each family keeps
// one metric type, and the statically visible label-key set of a family is
// identical at every write site. Grafana dashboards and the alert rules
// key on these names; a family that drifts (casing, a second TYPE, a label
// set that differs between two writers) silently breaks every consumer.
//
// Sites checked:
//   - `# TYPE <family> <kind>` headers in string literals;
//   - sample lines in format literals (`roia_foo%s %d\n`, `fleet_bar{...}`).
type MetricName struct {
	famKinds  map[string]kindDecl
	famLabels map[string][]labelSite
	sampled   map[string]token.Position // family → first sample without a TYPE decl
	declared  map[string]bool
}

type kindDecl struct {
	kind string
	pos  token.Position
}

type labelSite struct {
	keys string // sorted, comma-joined label keys
	pos  token.Position
}

var (
	familyRe    = regexp.MustCompile(`^(roia|fleet)_[a-z0-9_]+$`)
	typeLineRe  = regexp.MustCompile(`# TYPE[ \t]+(\S+)[ \t]+(\S+)`)
	labelKeyRe  = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)=`)
	metricKinds = map[string]bool{"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true}
)

func (*MetricName) Name() string { return "metricname" }

func (m *MetricName) init() {
	if m.famKinds == nil {
		m.famKinds = map[string]kindDecl{}
		m.famLabels = map[string][]labelSite{}
		m.sampled = map[string]token.Position{}
		m.declared = map[string]bool{}
	}
}

func (m *MetricName) Check(pkg *Package, r *Reporter) {
	m.init()
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind == token.STRING {
					m.checkLiteral(pkg, n, r)
				}
			case *ast.CallExpr:
				m.checkSampleLabels(pkg, n, r)
			}
			return true
		})
	}
}

// checkLiteral scans one string literal for `# TYPE` headers and records
// family kinds; family grammar is validated here.
func (m *MetricName) checkLiteral(pkg *Package, lit *ast.BasicLit, r *Reporter) {
	text, ok := stringLit(pkg.Info, lit)
	if !ok || !strings.Contains(text, "# TYPE") {
		return
	}
	pos := r.fset.Position(lit.Pos())
	for _, match := range typeLineRe.FindAllStringSubmatch(text, -1) {
		family, kind := match[1], match[2]
		if strings.Contains(family, "%") {
			continue // dynamic family (a %s header filled in at run time)
		}
		if !familyRe.MatchString(family) {
			r.Report(lit, "metricname",
				"metric family %q does not match the exposition grammar (roia|fleet)_[a-z0-9_]+", family)
		}
		if !metricKinds[kind] && !strings.Contains(kind, "%") {
			r.Report(lit, "metricname", "unknown metric type %q for family %q", kind, family)
		}
		m.declare(family, kind, pos, r)
	}
}

func (m *MetricName) declare(family, kind string, pos token.Position, r *Reporter) {
	m.declared[family] = true
	if prev, ok := m.famKinds[family]; ok {
		if prev.kind != kind {
			r.ReportPos(pos, "metricname",
				"metric family %q declared as %s here but as %s at %s:%d", family, kind, prev.kind, r.Rel(prev.pos.Filename), prev.pos.Line)
		}
		return
	}
	m.famKinds[family] = kindDecl{kind: kind, pos: pos}
}

func (m *MetricName) sample(family string, pos token.Position) {
	if _, ok := m.sampled[family]; !ok {
		m.sampled[family] = pos
	}
}

// checkSampleLabels associates sample lines in an Fprintf-style format
// literal with the label keys statically visible in the same call.
func (m *MetricName) checkSampleLabels(pkg *Package, call *ast.CallExpr, r *Reporter) {
	if !isPkgCall(pkg.Info, call, "fmt", "Fprintf", "Sprintf", "Printf", "Fprint", "Sprint") {
		return
	}
	var format string
	var formatArg ast.Expr
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, ok := stringLit(pkg.Info, lit); ok {
				format, formatArg = s, arg
				break
			}
		}
	}
	if formatArg == nil {
		return
	}
	pos := r.fset.Position(formatArg.Pos())
	for _, line := range strings.Split(format, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fam := line
		if i := strings.IndexAny(fam, "{% \t"); i >= 0 {
			fam = fam[:i]
		}
		if !strings.HasPrefix(fam, "roia_") && !strings.HasPrefix(fam, "fleet_") {
			continue
		}
		if !familyRe.MatchString(fam) {
			r.Report(formatArg, "metricname",
				"metric family %q does not match the exposition grammar (roia|fleet)_[a-z0-9_]+", fam)
			continue
		}
		m.sample(fam, pos)

		var keys []string
		known := false
		if rest := line[len(fam):]; strings.HasPrefix(rest, "{") {
			known = true
			if end := strings.Index(rest, "}"); end > 0 {
				keys = labelKeys(rest[1:end])
			}
		} else {
			// Label keys come from literal strings in the sibling args
			// (directly, via fmt.Sprintf, or via a label-builder call).
			for _, arg := range call.Args {
				if arg == formatArg {
					continue
				}
				if s, ok := argStrings(pkg.Info, arg); ok {
					known = true
					keys = append(keys, labelKeys(s)...)
				}
			}
		}
		if !known {
			continue // dynamic label set: nothing to compare statically
		}
		sort.Strings(keys)
		keySet := strings.Join(dedup(keys), ",")
		m.famLabels[fam] = append(m.famLabels[fam], labelSite{keys: keySet, pos: pos})
	}
}

// argStrings extracts literal text from an argument expression: a string
// literal, a fmt.Sprintf with a literal format, or any call whose
// arguments contain such literals (the lbl(...) helper idiom).
func argStrings(info *types.Info, arg ast.Expr) (string, bool) {
	if s, ok := stringLit(info, arg); ok {
		return s, true
	}
	if call, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
		var parts []string
		found := false
		for _, a := range call.Args {
			if s, ok := argStrings(info, a); ok {
				parts = append(parts, s)
				found = true
			}
		}
		if found {
			return strings.Join(parts, ","), true
		}
	}
	return "", false
}

func labelKeys(s string) []string {
	var keys []string
	for _, match := range labelKeyRe.FindAllStringSubmatch(s, -1) {
		keys = append(keys, match[1])
	}
	return keys
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || sorted[i-1] != s {
			out = append(out, s)
		}
	}
	return out
}

// Finish runs the cross-package consistency checks: label-set divergence
// and samples whose family is never TYPE-declared anywhere in the tree.
func (m *MetricName) Finish(r *Reporter) {
	m.init()
	for family, sites := range m.famLabels {
		base := sites[0]
		for _, s := range sites[1:] {
			if s.keys != base.keys {
				r.ReportPos(s.pos, "metricname",
					"metric family %q written with label keys {%s} here but {%s} at %s:%d — dashboards need one label set per family",
					family, s.keys, base.keys, r.Rel(base.pos.Filename), base.pos.Line)
				break
			}
		}
	}
	var missing []string
	for family := range m.sampled {
		if !m.declared[family] {
			missing = append(missing, family)
		}
	}
	sort.Strings(missing)
	for _, family := range missing {
		r.ReportPos(m.sampled[family], "metricname",
			"metric family %q is written but never `# TYPE`-declared anywhere in the tree", family)
	}
}
