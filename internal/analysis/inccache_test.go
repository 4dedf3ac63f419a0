package analysis_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/analysis"
)

// runCached analyzes the fixture with the incremental cache enabled.
func runCached(t *testing.T, root, cacheDir string, opts analysis.Options) *analysis.Result {
	t.Helper()
	opts.CacheDir = cacheDir
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := analysis.ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.RunWith(loader, dirs, analysis.All(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func diagKeys(t *testing.T, root string, diags []analysis.Diagnostic) []string {
	t.Helper()
	var out []string
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.File)
		if err != nil {
			t.Fatalf("diagnostic outside fixture: %v", d)
		}
		out = append(out, filepath.ToSlash(rel)+":"+d.Analyzer+":"+d.Message)
	}
	return out
}

// TestCacheWarmRunAnalyzesNothing pins the cache's core contract: a
// second run over unchanged sources replays every unit and reproduces
// the cold run's findings exactly.
func TestCacheWarmRunAnalyzesNothing(t *testing.T) {
	files := map[string]string{
		"a/a.go": `package a

func Mayfail() error { return nil }
`,
		"b/b.go": `package b

import "fixture/a"

func Use() {
	a.Mayfail() // want uncheckederr
}
`,
	}
	root := writeFixture(t, files)
	cacheDir := filepath.Join(t.TempDir(), "cache")

	cold := runCached(t, root, cacheDir, analysis.Options{})
	if cold.Stats.LiveUnits == 0 || cold.Stats.CachedUnits != 0 {
		t.Fatalf("cold run: live=%d cached=%d, want all live", cold.Stats.LiveUnits, cold.Stats.CachedUnits)
	}

	warm := runCached(t, root, cacheDir, analysis.Options{})
	if warm.Stats.LiveUnits != 0 {
		t.Fatalf("warm run re-analyzed %d units (dirs %v), want 0", warm.Stats.LiveUnits, warm.Stats.LiveDirs)
	}
	if warm.Stats.CachedUnits != cold.Stats.Units {
		t.Fatalf("warm run replayed %d units, want %d", warm.Stats.CachedUnits, cold.Stats.Units)
	}
	got, want := diagKeys(t, root, warm.Diagnostics), diagKeys(t, root, cold.Diagnostics)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warm findings diverge from cold:\nwarm: %v\ncold: %v", got, want)
	}
	if len(want) != 1 {
		t.Fatalf("fixture should produce exactly the seeded finding, got %v", want)
	}
}

// TestCacheInvalidatesDependentsOnly edits one package in an a<-b, c
// fixture and checks the re-analyzed set is exactly the edited
// package plus its importers.
func TestCacheInvalidatesDependentsOnly(t *testing.T) {
	files := map[string]string{
		"a/a.go": `package a

func Answer() int { return 42 }
`,
		"b/b.go": `package b

import "fixture/a"

func Double() int { return 2 * a.Answer() }
`,
		"c/c.go": `package c

func Lonely() int { return 7 }
`,
	}
	root := writeFixture(t, files)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	runCached(t, root, cacheDir, analysis.Options{})

	// Edit a: a and its dependent b go live, c stays cached.
	err := os.WriteFile(filepath.Join(root, "a/a.go"), []byte(`package a

func Answer() int { return 43 }
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	res := runCached(t, root, cacheDir, analysis.Options{})
	if want := []string{"a", "b"}; !reflect.DeepEqual(res.Stats.LiveDirs, want) {
		t.Fatalf("after editing a: live dirs %v, want %v", res.Stats.LiveDirs, want)
	}

	// Edit c: only c goes live.
	err = os.WriteFile(filepath.Join(root, "c/c.go"), []byte(`package c

func Lonely() int { return 8 }
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	res = runCached(t, root, cacheDir, analysis.Options{})
	if want := []string{"c"}; !reflect.DeepEqual(res.Stats.LiveDirs, want) {
		t.Fatalf("after editing c: live dirs %v, want %v", res.Stats.LiveDirs, want)
	}

	// No further edits: nothing goes live.
	res = runCached(t, root, cacheDir, analysis.Options{})
	if res.Stats.LiveUnits != 0 {
		t.Fatalf("no-change rerun analyzed %v, want nothing", res.Stats.LiveDirs)
	}
}

// TestCacheCrossPackageFactsReplay seeds an interprocedural
// panicfact finding whose panic source and decoder entry live in
// different packages, then checks a fully-warm run still reports it —
// i.e. facts and call-graph edges survive the journal round-trip.
func TestCacheCrossPackageFactsReplay(t *testing.T) {
	files := map[string]string{
		"inner/inner.go": `package inner

func Explode(b []byte) byte {
	if len(b) == 0 {
		panic("empty") // want panicfact
	}
	return b[0]
}
`,
		"outer/outer.go": `package outer

import "fixture/inner"

func DecodeFirst(b []byte) byte {
	return inner.Explode(b)
}
`,
	}
	root := writeFixture(t, files)
	cacheDir := filepath.Join(t.TempDir(), "cache")

	cold := runCached(t, root, cacheDir, analysis.Options{})
	warm := runCached(t, root, cacheDir, analysis.Options{})
	if warm.Stats.LiveUnits != 0 {
		t.Fatalf("warm run re-analyzed %v", warm.Stats.LiveDirs)
	}
	got, want := diagKeys(t, root, warm.Diagnostics), diagKeys(t, root, cold.Diagnostics)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warm findings diverge from cold:\nwarm: %v\ncold: %v", got, want)
	}
	if len(want) != 1 {
		t.Fatalf("expected exactly the cross-package panicfact finding, got %v", want)
	}
}

// TestWaiverCheck seeds one waiver that suppresses a real finding and
// one that suppresses nothing; only the stale one must be reported,
// both cold and from a warm cache replay.
func TestWaiverCheck(t *testing.T) {
	files := map[string]string{
		"p/p.go": `package p

func mayFail() error { return nil }

func uses() int {
	//arcvet:ignore uncheckederr fixture exercises the waiver path
	mayFail()
	x := 1
	//arcvet:ignore uncheckederr nothing to suppress here
	return x
}
`,
	}
	root := writeFixture(t, files)
	cacheDir := filepath.Join(t.TempDir(), "cache")

	check := func(res *analysis.Result, label string) {
		t.Helper()
		var stale []string
		for _, d := range res.Diagnostics {
			if d.Analyzer == "waivercheck" {
				stale = append(stale, filepath.Base(d.File)+":"+strconv.Itoa(d.Line))
			} else {
				t.Errorf("%s: unexpected finding %v", label, d)
			}
		}
		if want := []string{"p.go:9"}; !reflect.DeepEqual(stale, want) {
			t.Errorf("%s: stale waivers %v, want %v", label, stale, want)
		}
	}
	check(runCached(t, root, cacheDir, analysis.Options{WaiverCheck: true}), "cold")
	warm := runCached(t, root, cacheDir, analysis.Options{WaiverCheck: true})
	if warm.Stats.LiveUnits != 0 {
		t.Fatalf("warm run re-analyzed %v", warm.Stats.LiveDirs)
	}
	check(warm, "warm")
}
