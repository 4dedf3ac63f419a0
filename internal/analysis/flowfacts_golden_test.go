package analysis_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// flowFactKinds are the summaries the walks export: the def-use flow
// walk's taint (three kinds) and integrity (two) policies, and the
// four concurrency analyzers' summaries.
var flowFactKinds = map[string]bool{
	"taint.result":       true,
	"taint.ptrargs":      true,
	"taint.paramalloc":   true,
	"integrity.verifies": true,
	"integrity.escapes":  true,
	"lockorder.summary":  true,
	"chansafety.chanuse": true,
	"deadwait.effects":   true,
	"ctxflow.blocks":     true,
}

// TestFlowFactsGolden pins the walks' summaries, not only the findings
// they lead to, over the allocguard, integrityflow, lockorder,
// chansafety, ctxflow and deadwait fixture trees: a change to a walk
// must leave every exported fact of these kinds byte-identical, or
// update the golden file deliberately (go test ./internal/analysis
// -run FlowFactsGolden -update).
func TestFlowFactsGolden(t *testing.T) {
	type fact struct {
		Func string          `json:"func"`
		Fact string          `json:"fact"`
		Data json.RawMessage `json:"data"`
	}
	fixtures := []struct {
		name  string
		files map[string]string
	}{
		{"allocguard", allocGuardFixture},
		{"integrityflow", integrityFlowFixture},
		{"lockorder", lockOrderFixture},
		{"chansafety", chanSafetyFixture},
		{"ctxflow", ctxFlowFixture},
		{"deadwait", deadWaitFixture},
	}
	got := map[string][]fact{}
	for _, fx := range fixtures {
		root := writeFixture(t, fx.files)
		res := analyzeResult(t, root)
		data, err := json.Marshal(res.Facts)
		if err != nil {
			t.Fatal(err)
		}
		// Block sites and lock edges carry file names under the
		// fixture's temp root; make them machine-independent.
		data = bytes.ReplaceAll(data, []byte(filepath.ToSlash(root)+"/"), []byte("$FIXTURE/"))
		var all []fact
		if err := json.Unmarshal(data, &all); err != nil {
			t.Fatal(err)
		}
		kept := []fact{}
		for _, f := range all {
			if flowFactKinds[f.Fact] {
				kept = append(kept, f)
			}
		}
		got[fx.name] = kept
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(got); err != nil {
		t.Fatal(err)
	}

	goldenPath := filepath.Join("testdata", "flow_facts_golden.json")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("flow facts drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s\nRe-run with -update if the change is intentional.", buf.Bytes(), want)
	}
	for _, fx := range fixtures {
		if len(got[fx.name]) == 0 {
			t.Errorf("%s fixture exported no flow facts; the golden pins nothing", fx.name)
		}
	}
}
