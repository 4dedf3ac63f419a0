package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"list", []string{"-list"}, 0},
		{"unknown analyzer", []string{"-analyzers", "nosuch"}, 2},
		{"unknown analyzers flag value", []string{"-analyzers", "bitwidth,nosuch"}, 2},
		{"unknown flag", []string{"-bogus"}, 2},
		{"unknown format", []string{"-format", "xml"}, 2},
		{"waivercheck with subset", []string{"-waivercheck", "-analyzers", "bitwidth", "."}, 2},
		{"waivercheck with only", []string{"-waivercheck", "-analyzers", "uncheckederr", "."}, 2},
		// The driver's own directory must be clean, via all renderers.
		{"self text", []string{"-analyzers", "uncheckederr", "."}, 0},
		{"self json", []string{"-format", "json", "-analyzers", "bitwidth", "."}, 0},
		{"self sarif", []string{"-format", "sarif", "-analyzers", "lockorder,chansafety,ctxflow", "."}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(tc.args, io.Discard, io.Discard); got != tc.want {
				t.Fatalf("run(%v) = %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}

// TestUnknownAnalyzerListsValidNames pins the -analyzers typo
// experience: the error must exit 2 and name every valid analyzer so
// the fix does not require a second -list invocation.
func TestUnknownAnalyzerListsValidNames(t *testing.T) {
	var errOut bytes.Buffer
	if got := run([]string{"-analyzers", "nosuch", "."}, io.Discard, &errOut); got != 2 {
		t.Fatalf("run = %d, want 2", got)
	}
	msg := errOut.String()
	if !strings.Contains(msg, `unknown analyzer "nosuch"`) {
		t.Errorf("stderr %q does not identify the unknown name", msg)
	}
	for _, want := range []string{"integrityflow", "uncheckederr", "panicfact", "lockorder"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stderr %q does not list valid analyzer %q", msg, want)
		}
	}
}

// TestTimingAndCacheFlags runs the same directory cold then warm
// through a temp cache and checks the -timing records show a full
// replay with identical findings.
func TestTimingAndCacheFlags(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	coldPath := filepath.Join(t.TempDir(), "cold.json")
	warmPath := filepath.Join(t.TempDir(), "warm.json")
	read := func(path string) timingRecord {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rec timingRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	if got := run([]string{"-cache-dir", cacheDir, "-timing", coldPath, "."}, io.Discard, io.Discard); got != 0 {
		t.Fatalf("cold run = %d, want 0", got)
	}
	if got := run([]string{"-cache-dir", cacheDir, "-timing", warmPath, "."}, io.Discard, io.Discard); got != 0 {
		t.Fatalf("warm run = %d, want 0", got)
	}
	cold, warm := read(coldPath), read(warmPath)
	if cold.Schema != "arcvet-timing-v1" || warm.Schema != "arcvet-timing-v1" {
		t.Fatalf("bad schema: cold %q warm %q", cold.Schema, warm.Schema)
	}
	if cold.LiveUnits == 0 || cold.CachedUnits != 0 {
		t.Errorf("cold run: live=%d cached=%d, want all live", cold.LiveUnits, cold.CachedUnits)
	}
	if warm.LiveUnits != 0 || warm.CachedUnits != cold.LiveUnits {
		t.Errorf("warm run: live=%d cached=%d, want 0/%d", warm.LiveUnits, warm.CachedUnits, cold.LiveUnits)
	}
	if warm.FindingsHash != cold.FindingsHash {
		t.Errorf("findings hash changed across warm replay: %s vs %s", cold.FindingsHash, warm.FindingsHash)
	}
}

// TestSARIFOutput checks the emitted document is well-formed SARIF
// 2.1.0 carrying the driver name code scanning keys uploads under,
// even for a clean run (the upload step always runs, findings or
// not), and that results is an array rather than null.
func TestSARIFOutput(t *testing.T) {
	var out bytes.Buffer
	if got := run([]string{"-format", "sarif", "-analyzers", "lockorder", "."}, &out, io.Discard); got != 0 {
		t.Fatalf("run = %d, want 0", got)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name string `json:"name"`
				} `json:"driver"`
			} `json:"tool"`
			Results []any `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "arcvet" {
		t.Errorf("runs/driver malformed: %+v", log.Runs)
	}
	if log.Runs[0].Results == nil {
		t.Error("results is null; code scanning requires an empty array")
	}
}
