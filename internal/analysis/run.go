package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Result is the outcome of analyzing a set of directories.
type Result struct {
	Diagnostics []Diagnostic
	// Packages counts the units (including external test packages)
	// that were loaded and checked or replayed from cache.
	Packages int
	// Facts is the run's fact store, exposed for tests and debugging.
	Facts *FactStore
	// Graph is the whole-repo call graph.
	Graph *CallGraph
	// Stats breaks down how much work the run actually did.
	Stats RunStats
}

// RunStats reports the incremental-cache effectiveness of one run.
type RunStats struct {
	// Units counts all analysis units; LiveUnits were parsed,
	// type-checked, and analyzed this run; CachedUnits replayed.
	Units       int
	LiveUnits   int
	CachedUnits int
	// LiveDirs lists the module-relative directories analyzed live.
	LiveDirs []string
}

// Options tunes a driver run.
type Options struct {
	// CacheDir, when set, enables the incremental cache: directories
	// whose content key (own sources plus transitive module-local
	// deps) matches a stored entry are replayed instead of analyzed.
	CacheDir string
	// WaiverCheck reports //arcvet:ignore directives that suppressed
	// nothing this run. It requires the full analyzer set — with a
	// subset, waivers for the analyzers not run would read as stale.
	WaiverCheck bool
}

// Run analyzes dirs with no cache and no waiver check.
func Run(loader *Loader, dirs []string, analyzers []*Analyzer) (*Result, error) {
	return RunWith(loader, dirs, analyzers, Options{})
}

// workUnit is one unit to process: either a live loaded Unit or a
// replayable cached record.
type workUnit struct {
	path    string
	imports []string
	dir     string // absolute package directory
	live    *Unit
	cached  *cachedUnit
}

// RunWith loads or replays every directory, orders units
// topologically by import dependency, builds the call graph and taint
// summaries, applies the given analyzers unit by unit, then runs each
// analyzer's Finish phase over the accumulated facts. It returns
// position-sorted, suppression-filtered diagnostics.
func RunWith(loader *Loader, dirs []string, analyzers []*Analyzer, opts Options) (*Result, error) {
	res := &Result{Facts: NewFactStore(), Graph: &CallGraph{nodes: map[string]*CGNode{}}}

	// Content keys decide which directories replay from cache.
	var keys map[string]string
	var infos map[string]*dirInfo
	if opts.CacheDir != "" {
		var err error
		infos, err = scanDirs(loader, dirs)
		if err != nil {
			return nil, err
		}
		keys = computeDirKeys(cacheHeader(loader, analyzers), infos)
	}

	var work []*workUnit
	liveByDir := map[string][]*workUnit{}
	cachedDirs := map[string]*cacheEntry{}
	for _, dir := range dirs {
		abs := dir
		if infos != nil {
			if info := infos[absPath(dir)]; info != nil {
				abs = info.Dir
				if ent := loadCacheEntry(opts.CacheDir, info.Rel, keys[abs]); ent != nil {
					cachedDirs[abs] = ent
					for i := range ent.Units {
						cu := &ent.Units[i]
						work = append(work, &workUnit{path: cu.Path, imports: cu.Imports, dir: abs, cached: cu})
					}
					continue
				}
			}
		}
		units, err := loader.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, u := range units {
			w := &workUnit{path: u.Path, imports: importPaths(u), dir: abs, live: u}
			work = append(work, w)
			liveByDir[abs] = append(liveByDir[abs], w)
		}
		if opts.CacheDir != "" && liveByDir[abs] == nil {
			// A dir with no buildable files still earns an (empty)
			// entry so warm runs skip re-scanning its sources.
			liveByDir[abs] = []*workUnit{}
		}
	}
	work = topoSortWork(work)
	res.Packages = len(work)
	res.Stats.Units = len(work)

	// The CHA pool for per-unit call-graph construction: every live
	// unit's package scope plus every dependency package the loader
	// type-checked. Implementations living in cached packages that no
	// live unit imports are approximated by the cached subgraph edges.
	var extraTypes []types.Type
	for _, w := range work {
		if w.live != nil {
			extraTypes = append(extraTypes, scopeTypes(w.live.Pkg)...)
		}
	}
	for _, pkg := range loader.deps {
		extraTypes = append(extraTypes, scopeTypes(pkg)...)
	}

	sup := suppressions{}
	spans := newStmtSpans()
	var waiverRecs []suppRecord
	var badDiags []Diagnostic
	var rawDiags []Diagnostic
	capture := map[string][]cachedUnit{}

	for _, w := range work {
		if w.cached != nil {
			cu := w.cached
			if err := res.Facts.replayOps(cu.FactOps); err != nil {
				return nil, fmt.Errorf("cache replay %s: %w", w.path, err)
			}
			res.Graph.mergeCached(cu.Nodes)
			res.Graph.finalize()
			for _, r := range cu.Waivers {
				sup.add(r)
			}
			waiverRecs = append(waiverRecs, cu.Waivers...)
			spans.merge(cu.Spans)
			badDiags = append(badDiags, withPos(cu.BadDirectives)...)
			rawDiags = append(rawDiags, withPos(cu.Diags)...)
			res.Stats.CachedUnits++
			continue
		}

		unit := w.live
		recs, bad := collectSuppressions(loader, unit.Files)
		for _, r := range recs {
			sup.add(r)
		}
		waiverRecs = append(waiverRecs, recs...)
		unitSpans := collectSpans(loader.Fset, unit.Files)
		spans.merge(unitSpans)
		badDiags = append(badDiags, bad...)

		var unitDiags []Diagnostic
		unitPass := Pass{
			Fset:    loader.Fset,
			Files:   unit.Files,
			Pkg:     unit.Pkg,
			Info:    unit.Info,
			PkgPath: unit.Path,
			Facts:   res.Facts,
			Graph:   res.Graph,
			diags:   &unitDiags,
		}
		var ops []factOp
		res.Facts.setJournal(&ops)
		summarizeUnitTaint(&unitPass)

		ug := &CallGraph{nodes: map[string]*CGNode{}}
		ug.addUnits(loader.Fset, []*Unit{unit}, extraTypes)
		res.Graph.mergeLive(ug)
		res.Graph.finalize()

		for _, a := range analyzers {
			if !a.AppliesTo(unit.Path) {
				continue
			}
			pass := unitPass
			pass.Analyzer = a
			if err := a.Run(&pass); err != nil {
				res.Facts.setJournal(nil)
				return nil, fmt.Errorf("%s on %s: %w", a.Name, unit.Path, err)
			}
		}
		res.Facts.setJournal(nil)
		rawDiags = append(rawDiags, unitDiags...)
		res.Stats.LiveUnits++

		if opts.CacheDir != "" {
			capture[w.dir] = append(capture[w.dir], cachedUnit{
				Path:          unit.Path,
				Imports:       w.imports,
				Diags:         flattened(unitDiags),
				BadDirectives: flattened(bad),
				FactOps:       ops,
				Nodes:         snapshotGraph(ug),
				Waivers:       recs,
				Spans:         unitSpans,
			})
		}
	}
	res.Graph.finalize()

	var finishDiags []Diagnostic
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     loader.Fset,
			Facts:    res.Facts,
			Graph:    res.Graph,
			diags:    &finishDiags,
		}
		if err := a.Finish(pass); err != nil {
			return nil, fmt.Errorf("%s finish: %w", a.Name, err)
		}
	}

	// Persist entries for every live directory (after a fully
	// successful analysis pass, never mid-run).
	if opts.CacheDir != "" {
		for dir, units := range liveByDir {
			info := infos[dir]
			if info == nil {
				continue
			}
			cus := make([]cachedUnit, 0, len(units))
			cus = append(cus, capture[dir]...)
			if err := writeCacheEntry(opts.CacheDir, info.Rel, keys[dir], cus); err != nil {
				return nil, fmt.Errorf("cache write %s: %w", info.Rel, err)
			}
			res.Stats.LiveDirs = append(res.Stats.LiveDirs, info.Rel)
		}
		sort.Strings(res.Stats.LiveDirs)
	} else {
		for dir := range liveByDir {
			res.Stats.LiveDirs = append(res.Stats.LiveDirs, dir)
		}
		sort.Strings(res.Stats.LiveDirs)
	}

	used := map[string]bool{}
	res.Diagnostics = append(res.Diagnostics, badDiags...)
	for _, d := range append(rawDiags, finishDiags...) {
		if !sup.matches(d, spans, used) {
			res.Diagnostics = append(res.Diagnostics, d)
		}
	}

	if opts.WaiverCheck {
		seen := map[string]bool{}
		for _, r := range waiverRecs {
			k := fmt.Sprintf("%s:%d:%s", r.File, r.Line, r.Analyzer)
			if used[k] || seen[k] {
				continue
			}
			seen[k] = true
			res.Diagnostics = append(res.Diagnostics, Diagnostic{
				Analyzer: "waivercheck",
				Pos:      token.Position{Filename: r.File, Line: r.Line, Column: 1},
				Message:  fmt.Sprintf("arcvet:ignore %s suppresses nothing here; remove the stale waiver", r.Analyzer),
			})
		}
	}

	for i := range res.Diagnostics {
		d := &res.Diagnostics[i]
		d.File, d.Line, d.Col = d.Pos.Filename, d.Pos.Line, d.Pos.Column
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return res, nil
}

// absPath resolves dir, swallowing errors (callers fall back to the
// original string on failure).
func absPath(dir string) string {
	if abs, err := filepath.Abs(dir); err == nil {
		return abs
	}
	return dir
}

// importPaths lists every import of a live unit.
func importPaths(u *Unit) []string {
	var out []string
	for _, imp := range u.Pkg.Imports() {
		out = append(out, imp.Path())
	}
	sort.Strings(out)
	return out
}

// scopeTypes collects the named types declared at package scope.
func scopeTypes(pkg *types.Package) []types.Type {
	var out []types.Type
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			out = append(out, tn.Type())
		}
	}
	return out
}

// flattened copies diags with File/Line/Col mirrored from Pos so the
// positions survive JSON serialization.
func flattened(diags []Diagnostic) []Diagnostic {
	out := make([]Diagnostic, len(diags))
	for i, d := range diags {
		d.File, d.Line, d.Col = d.Pos.Filename, d.Pos.Line, d.Pos.Column
		out[i] = d
	}
	return out
}

// withPos reconstructs Pos from the flattened fields after replay.
func withPos(diags []Diagnostic) []Diagnostic {
	out := make([]Diagnostic, len(diags))
	for i, d := range diags {
		d.Pos = token.Position{Filename: d.File, Line: d.Line, Column: d.Col}
		out[i] = d
	}
	return out
}

// topoSortWork orders units so every unit follows the units it
// imports (Kahn's algorithm; ties break on import path so the order
// is deterministic). External test units depend on their base unit.
func topoSortWork(units []*workUnit) []*workUnit {
	index := map[string]int{}
	for i, u := range units {
		index[u.path] = i
	}
	indeg := make([]int, len(units))
	dependents := make([][]int, len(units))
	addEdge := func(from, to int) { // from depends on to
		dependents[to] = append(dependents[to], from)
		indeg[from]++
	}
	for i, u := range units {
		for _, imp := range u.imports {
			if j, ok := index[imp]; ok && j != i {
				addEdge(i, j)
			}
		}
		if base, ok := strings.CutSuffix(u.path, "_test"); ok {
			if j, ok := index[base]; ok && j != i {
				addEdge(i, j)
			}
		}
	}
	var ready []int
	for i := range units {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	byPath := func(a, b int) bool { return units[a].path < units[b].path }
	sort.Slice(ready, func(i, j int) bool { return byPath(ready[i], ready[j]) })
	var order []*workUnit
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		order = append(order, units[i])
		released := false
		for _, dep := range dependents[i] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
				released = true
			}
		}
		if released {
			sort.Slice(ready, func(a, b int) bool { return byPath(ready[a], ready[b]) })
		}
	}
	// Import cycles cannot occur in compiled Go; if something slipped
	// through, keep the leftovers rather than dropping units.
	if len(order) < len(units) {
		seen := map[*workUnit]bool{}
		for _, u := range order {
			seen[u] = true
		}
		for _, u := range units {
			if !seen[u] {
				order = append(order, u)
			}
		}
	}
	return order
}

// stmtSpans indexes the line spans of every statement (and top-level
// declaration) so a waiver directive anchored to the first line of a
// multi-line statement covers findings on its continuation lines.
type stmtSpans struct {
	files map[string][]lineSpan
}

type lineSpan struct{ start, end int }

func newStmtSpans() *stmtSpans {
	return &stmtSpans{files: map[string][]lineSpan{}}
}

// collectSpans extracts the multi-line statement spans of files in a
// serializable form.
func collectSpans(fset *token.FileSet, files []*ast.File) []spanRecord {
	var out []spanRecord
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n.(type) {
			case ast.Stmt, *ast.GenDecl, *ast.ValueSpec:
				start := fset.Position(n.Pos())
				end := fset.Position(n.End())
				if end.Line > start.Line {
					out = append(out, spanRecord{File: start.Filename, Start: start.Line, End: end.Line})
				}
			}
			return true
		})
	}
	return out
}

func (ss *stmtSpans) merge(recs []spanRecord) {
	for _, r := range recs {
		ss.files[r.File] = append(ss.files[r.File], lineSpan{r.Start, r.End})
	}
}

// stmtStart returns the first line of the innermost multi-line
// statement covering (file, line), or 0 when the line is not inside
// one. "Innermost" keeps a directive on an assignment from waiving an
// entire enclosing block.
func (ss *stmtSpans) stmtStart(file string, line int) int {
	best := lineSpan{}
	found := false
	for _, sp := range ss.files[file] {
		if line < sp.start || line > sp.end {
			continue
		}
		if !found || sp.end-sp.start < best.end-best.start ||
			(sp.end-sp.start == best.end-best.start && sp.start > best.start) {
			best, found = sp, true
		}
	}
	if !found {
		return 0
	}
	return best.start
}

// suppressions maps file -> line -> analyzer names silenced there. A
// finding is silenced when an ignore directive sits on its line, on
// the line directly above, or — for findings inside a multi-line
// statement — on the statement's first line or the line above that.
type suppressions map[string]map[int]map[string]bool

func (s suppressions) add(r suppRecord) {
	if s[r.File] == nil {
		s[r.File] = map[int]map[string]bool{}
	}
	if s[r.File][r.Line] == nil {
		s[r.File][r.Line] = map[string]bool{}
	}
	s[r.File][r.Line][r.Analyzer] = true
}

// matches reports whether d is suppressed; a match also marks the
// matching directive as used in the used map (key file:line:analyzer)
// so -waivercheck can report the directives that matched nothing.
func (s suppressions) matches(d Diagnostic, spans *stmtSpans, used map[string]bool) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	candidates := []int{d.Pos.Line, d.Pos.Line - 1}
	if spans != nil {
		if start := spans.stmtStart(d.Pos.Filename, d.Pos.Line); start > 0 && start != d.Pos.Line {
			candidates = append(candidates, start, start-1)
		}
	}
	for _, line := range candidates {
		if names := lines[line]; names != nil && names[d.Analyzer] {
			if used != nil {
				used[fmt.Sprintf("%s:%d:%s", d.Pos.Filename, line, d.Analyzer)] = true
			}
			return true
		}
	}
	return false
}

// collectSuppressions scans comments for //arcvet:ignore directives,
// returning the well-formed directives as records plus diagnostics
// for malformed ones (no analyzer named, or an unknown analyzer) so
// waivers stay auditable.
func collectSuppressions(loader *Loader, files []*ast.File) ([]suppRecord, []Diagnostic) {
	var recs []suppRecord
	var bad []Diagnostic
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "arcvet:ignore")
				if !ok {
					continue
				}
				pos := loader.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					bad = append(bad, Diagnostic{
						Analyzer: "arcvet",
						Pos:      pos,
						Message:  "arcvet:ignore must name the analyzer it suppresses",
					})
					continue
				}
				name := fields[0]
				if !known[name] {
					bad = append(bad, Diagnostic{
						Analyzer: "arcvet",
						Pos:      pos,
						Message:  fmt.Sprintf("arcvet:ignore names unknown analyzer %q", name),
					})
					continue
				}
				recs = append(recs, suppRecord{File: pos.Filename, Line: pos.Line, Analyzer: name})
			}
		}
	}
	return recs, bad
}
