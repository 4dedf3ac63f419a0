package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// The incremental cache stores, per package directory, everything a
// later run needs to skip re-analyzing it: raw diagnostics, the fact
// journal, the call-graph subgraph, and the waiver directives. An
// entry is keyed by a content hash that folds in the directory's own
// sources and — through the strongly-connected condensation of the
// dir-level import graph — every module-local directory it depends
// on, so an edit invalidates exactly the edited package and its
// transitive dependents.

// cacheSchema versions the entry format; bump on any shape change.
const cacheSchema = "arcvet-cache-v1"

// ---- directory scanning ----

// dirInfo is the pre-typecheck scan of one package directory: which
// buildable files it holds (with content digests) and which
// module-local directories its imports reach.
type dirInfo struct {
	Dir   string // absolute
	Rel   string // module-relative, slash-separated ("." for the root)
	Files []fileDigest
	// DepDirs are the absolute directories of module-local imports
	// across all buildable files (tests included — external test
	// imports pull their targets into this dir's key).
	DepDirs []string
}

type fileDigest struct {
	Name string `json:"name"`
	Sum  string `json:"sum"`
}

// scanDirs digests every requested directory plus the transitive
// closure of module-local import targets: a dependency outside the
// analyzed set still shapes typechecking, so its content belongs in
// the dependents' keys.
func scanDirs(loader *Loader, dirs []string) (map[string]*dirInfo, error) {
	infos := map[string]*dirInfo{}
	queue := append([]string(nil), dirs...)
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		if _, done := infos[abs]; done {
			continue
		}
		info, err := scanDir(loader, abs)
		if err != nil {
			return nil, err
		}
		infos[abs] = info
		queue = append(queue, info.DepDirs...)
	}
	return infos, nil
}

// scanDir digests one directory, applying the same file filters as
// the loader (name-based platform rules and //go:build evaluation) so
// the key covers exactly what analysis would read.
func scanDir(loader *Loader, abs string) (*dirInfo, error) {
	rel, err := filepath.Rel(loader.RootDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("%s is outside module %s", abs, loader.ModulePath)
	}
	info := &dirInfo{Dir: abs, Rel: filepath.ToSlash(rel)}
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		if goodOSArchFile(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	depDirs := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range names {
		path := filepath.Join(abs, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		// ParseComments keeps //go:build lines visible to the
		// constraint evaluator in import-only mode.
		file, err := parser.ParseFile(fset, path, data, parser.ImportsOnly|parser.ParseComments)
		if err != nil {
			// Unparseable files still belong in the key: their content
			// decides whether the live run errors.
			sum := sha256.Sum256(data)
			info.Files = append(info.Files, fileDigest{Name: name, Sum: hex.EncodeToString(sum[:])})
			continue
		}
		if !buildConstraintsSatisfied(file) {
			continue
		}
		sum := sha256.Sum256(data)
		info.Files = append(info.Files, fileDigest{Name: name, Sum: hex.EncodeToString(sum[:])})
		for _, imp := range file.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == loader.ModulePath || strings.HasPrefix(p, loader.ModulePath+"/") {
				sub := strings.TrimPrefix(strings.TrimPrefix(p, loader.ModulePath), "/")
				depDirs[filepath.Join(loader.RootDir, filepath.FromSlash(sub))] = true
			}
		}
	}
	for d := range depDirs {
		if d != abs {
			info.DepDirs = append(info.DepDirs, d)
		}
	}
	sort.Strings(info.DepDirs)
	return info, nil
}

// ---- key derivation ----

// buildIdentity names the running analyzer build by a digest of its
// executable, so a rebuilt arcvet (say, with a changed analyzer) never
// replays findings or facts that another build cached. A build that
// cannot read itself gets an identity of its own, sharing no entries.
var buildIdentity = sync.OnceValue(func() string {
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			defer func() { _ = f.Close() }() // read-only; nothing to flush
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				return hex.EncodeToString(h.Sum(nil))
			}
		}
	}
	return fmt.Sprintf("unidentified build, pid %d at %d", os.Getpid(), time.Now().UnixNano())
})

// cacheHeader hashes everything that invalidates the whole cache at
// once: the entry schema, the analyzer build, the toolchain and
// platform, the analyzer set, and go.mod (module path and language
// version shape loading).
func cacheHeader(loader *Loader, analyzers []*Analyzer) string {
	h := sha256.New()
	_, _ = fmt.Fprintln(h, cacheSchema)
	_, _ = fmt.Fprintln(h, buildIdentity())
	_, _ = fmt.Fprintln(h, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	_, _ = fmt.Fprintln(h, strings.Join(names, ","))
	if data, err := os.ReadFile(filepath.Join(loader.RootDir, "go.mod")); err == nil {
		_, _ = h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// computeDirKeys derives one content key per scanned directory. Keys
// are computed bottom-up over the strongly-connected condensation of
// the dir import graph (external test files can create dir-level
// cycles), so each key transitively covers every module-local source
// that can influence the directory's analysis.
func computeDirKeys(header string, infos map[string]*dirInfo) map[string]string {
	dirs := make([]string, 0, len(infos))
	for d := range infos {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	comps := tarjanSCC(dirs, func(d string) []string { return infos[d].DepDirs })

	keys := map[string]string{}
	sccKey := map[int]string{}
	comp := map[string]int{}
	for i, members := range comps {
		for _, d := range members {
			comp[d] = i
		}
	}
	// tarjanSCC emits components in reverse topological order:
	// dependencies complete before their dependents.
	for i, members := range comps {
		sort.Strings(members)
		h := sha256.New()
		_, _ = fmt.Fprintln(h, header)
		depKeys := map[string]bool{}
		for _, d := range members {
			info := infos[d]
			_, _ = fmt.Fprintln(h, info.Rel)
			for _, f := range info.Files {
				_, _ = fmt.Fprintln(h, f.Name, f.Sum)
			}
			for _, dep := range info.DepDirs {
				if comp[dep] != i {
					depKeys[sccKey[comp[dep]]] = true
				}
			}
		}
		sorted := make([]string, 0, len(depKeys))
		for k := range depKeys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			_, _ = fmt.Fprintln(h, k)
		}
		sccKey[i] = hex.EncodeToString(h.Sum(nil))
		for _, d := range members {
			dh := sha256.Sum256([]byte(sccKey[i] + "\x00" + infos[d].Rel))
			keys[d] = hex.EncodeToString(dh[:])
		}
	}
	return keys
}

// tarjanSCC returns the strongly connected components of the graph
// (nodes, deps) in reverse topological order of the condensation.
func tarjanSCC(nodes []string, deps func(string) []string) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var comps [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range deps(v) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var members []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			comps = append(comps, members)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return comps
}

// ---- on-disk entries ----

// cacheEntry is one directory's serialized analysis.
type cacheEntry struct {
	Schema string       `json:"schema"`
	Key    string       `json:"key"`
	Units  []cachedUnit `json:"units"`
}

// cachedUnit replays one analysis unit without loading its sources.
type cachedUnit struct {
	Path    string   `json:"path"`
	Imports []string `json:"imports,omitempty"`
	// Diags are the unit's raw analyzer findings, pre-suppression;
	// BadDirectives are malformed-waiver diagnostics, which bypass
	// the suppression filter.
	Diags         []Diagnostic `json:"diags,omitempty"`
	BadDirectives []Diagnostic `json:"bad_directives,omitempty"`
	FactOps       []factOp     `json:"fact_ops,omitempty"`
	Nodes         []cachedNode `json:"nodes,omitempty"`
	Waivers       []suppRecord `json:"waivers,omitempty"`
	Spans         []spanRecord `json:"spans,omitempty"`
}

// cachedNode is the serializable slice of a CGNode.
type cachedNode struct {
	Key        string   `json:"key"`
	HasDecl    bool     `json:"has_decl,omitempty"`
	Name       string   `json:"name,omitempty"`
	Exported   bool     `json:"exported,omitempty"`
	IsMethod   bool     `json:"is_method,omitempty"`
	TestFile   bool     `json:"test_file,omitempty"`
	File       string   `json:"file,omitempty"`
	Line       int      `json:"line,omitempty"`
	Col        int      `json:"col,omitempty"`
	HasRecover bool     `json:"has_recover,omitempty"`
	Callees    []string `json:"callees,omitempty"`
}

// suppRecord is one //arcvet:ignore directive occurrence.
type suppRecord struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
}

// spanRecord is one multi-line statement span, for waiver anchoring.
type spanRecord struct {
	File  string `json:"file"`
	Start int    `json:"start"`
	End   int    `json:"end"`
}

// entryPath maps a module-relative dir to its entry file.
func entryPath(cacheDir, rel string) string {
	name := strings.ReplaceAll(rel, "/", "__")
	if rel == "." {
		name = "_root"
	}
	return filepath.Join(cacheDir, name+".json")
}

// loadCacheEntry returns the entry for rel when it exists and its key
// matches; any mismatch or decode error reads as a miss.
func loadCacheEntry(cacheDir, rel, key string) *cacheEntry {
	data, err := os.ReadFile(entryPath(cacheDir, rel))
	if err != nil {
		return nil
	}
	var ent cacheEntry
	if err := json.Unmarshal(data, &ent); err != nil {
		return nil
	}
	if ent.Schema != cacheSchema || ent.Key != key {
		return nil
	}
	return &ent
}

// writeCacheEntry persists a directory's entry atomically (temp file
// plus rename), so a crashed run never leaves a torn entry behind.
func writeCacheEntry(cacheDir, rel, key string, units []cachedUnit) error {
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(cacheEntry{Schema: cacheSchema, Key: key, Units: units})
	if err != nil {
		return err
	}
	path := entryPath(cacheDir, rel)
	tmp, err := os.CreateTemp(cacheDir, ".entry-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ---- graph snapshot and replay ----

// snapshotGraph serializes a per-unit call graph (pre-finalize: edges
// still live in the internal map).
func snapshotGraph(ug *CallGraph) []cachedNode {
	var out []cachedNode
	for _, key := range ug.Keys() {
		n := ug.nodes[key]
		cn := cachedNode{
			Key:        key,
			HasDecl:    n.HasDecl,
			Name:       n.Name,
			Exported:   n.Exported,
			IsMethod:   n.IsMethod,
			TestFile:   n.TestFile,
			HasRecover: n.HasRecover,
		}
		if n.HasDecl {
			cn.File, cn.Line, cn.Col = n.Position.Filename, n.Position.Line, n.Position.Column
		}
		for c := range n.callees {
			cn.Callees = append(cn.Callees, c)
		}
		sort.Strings(cn.Callees)
		out = append(out, cn)
	}
	return out
}

// mergeCached folds a replayed subgraph into g.
func (g *CallGraph) mergeCached(nodes []cachedNode) {
	for _, cn := range nodes {
		n := g.node(cn.Key)
		if cn.HasDecl {
			n.HasDecl = true
			n.Name = cn.Name
			n.Exported = cn.Exported
			n.IsMethod = cn.IsMethod
			n.TestFile = cn.TestFile
			n.Position = token.Position{Filename: cn.File, Line: cn.Line, Column: cn.Col}
			n.HasRecover = cn.HasRecover
		}
		for _, c := range cn.Callees {
			g.edge(cn.Key, c)
		}
	}
}

// mergeLive folds a freshly built per-unit graph into g, carrying the
// live-only fields (Fn, Decl) alongside the serializable metadata.
func (g *CallGraph) mergeLive(ug *CallGraph) {
	for key, un := range ug.nodes {
		n := g.node(key)
		if un.HasDecl {
			n.Fn, n.Decl, n.Pos = un.Fn, un.Decl, un.Pos
			n.HasDecl = true
			n.Name = un.Name
			n.Exported = un.Exported
			n.IsMethod = un.IsMethod
			n.TestFile = un.TestFile
			n.Position = un.Position
			n.HasRecover = un.HasRecover
		}
		if n.Fn == nil && un.Fn != nil {
			n.Fn = un.Fn
		}
		for c := range un.callees {
			g.edge(key, c)
		}
	}
}
