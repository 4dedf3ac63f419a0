package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCacheKeyedOnAnalyzerBuild checks that the cache header names the
// analyzer build, so an entry cached by one arcvet build is never
// replayed by another: a rebuilt arcvet may carry changed analyzers,
// and everything it sees must be re-analyzed.
func TestCacheKeyedOnAnalyzerBuild(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"a/a.go": "package a\n\nfunc Answer() int { return 42 }\n",
		"b/b.go": "package b\n\nimport \"fixture/a\"\n\nfunc Double() int { return 2 * a.Answer() }\n",
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cacheDir := filepath.Join(t.TempDir(), "cache")
	saved := buildIdentity
	defer func() { buildIdentity = saved }()

	// run analyzes the fixture as the analyzer build named id.
	run := func(id string) (header string, stats RunStats) {
		t.Helper()
		buildIdentity = func() string { return id }
		loader, err := NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		dirs, err := ExpandPatterns(root, []string{"./..."})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunWith(loader, dirs, All(), Options{CacheDir: cacheDir})
		if err != nil {
			t.Fatal(err)
		}
		return cacheHeader(loader, All()), res.Stats
	}

	headerA, cold := run("build-a")
	if _, warm := run("build-a"); warm.LiveUnits != 0 {
		t.Fatalf("same build re-analyzed %v, want a full replay", warm.LiveDirs)
	}
	headerB, other := run("build-b")
	if headerA == headerB {
		t.Fatal("cache header does not depend on the analyzer build")
	}
	if other.CachedUnits != 0 || other.LiveUnits != cold.Units {
		t.Fatalf("another build: live=%d cached=%d, want all %d units live",
			other.LiveUnits, other.CachedUnits, cold.Units)
	}
}
