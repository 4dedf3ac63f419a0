package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/gf256"
)

const streamSample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkStreamPipelined/encode/pipeline=1-4         	     100	   1714000 ns/op	 596.24 MB/s
BenchmarkStreamPipelined/encode/pipeline=4-4         	      90	   2000000 ns/op	 510.91 MB/s
BenchmarkStreamPipelined/decode/pipeline=1-4         	     500	    403000 ns/op	2535.29 MB/s
BenchmarkStreamPipelined/decode/pipeline=4-4         	     450	    437000 ns/op	2340.05 MB/s
BenchmarkStreamSteady/encode/pipeline=1-4            	     627	    544947 ns/op	 481.05 MB/s	      48 B/op	       1 allocs/op
BenchmarkStreamSteady/encode/pipeline=4-4            	     630	    580148 ns/op	 451.86 MB/s	      48 B/op	       1 allocs/op
BenchmarkStreamSteady/decode/pipeline=1-4            	    5623	     66874 ns/op	3919.99 MB/s	       0 B/op	       0 allocs/op
BenchmarkStreamSteady/decode/pipeline=4-4            	    4180	     99921 ns/op	2623.51 MB/s	       0 B/op	       0 allocs/op
PASS
ok  	repro	1.760s
`

const kernelsSample = `BenchmarkKernelSECDED64Encode/scalar-1 	1000	 100 ns/op	 300.00 MB/s	0 B/op	0 allocs/op
BenchmarkKernelSECDED64Encode/word-1   	5000	  21 ns/op	1410.00 MB/s	0 B/op	0 allocs/op
BenchmarkKernelGF256MulSlice/scalar-1  	1000	 100 ns/op	 200.00 MB/s	0 B/op	0 allocs/op
BenchmarkKernelGF256MulSlice/word-1    	9000	  11 ns/op	1806.00 MB/s	0 B/op	0 allocs/op
BenchmarkKernelGF256MulSliceTier/avx2-1 	9000	  10 ns/op	3600.00 MB/s	0 B/op	0 allocs/op
BenchmarkKernelGF256MulSliceTier/ssse3-1	5000	  20 ns/op	1800.00 MB/s	0 B/op	0 allocs/op
BenchmarkKernelGF256MulSliceTier/word-1 	1000	 180 ns/op	 200.00 MB/s	0 B/op	0 allocs/op
BenchmarkKernelSZQuantize/word-1       	2000	  50 ns/op	 650.00 MB/s	0 B/op	3 allocs/op
BenchmarkKernelSZQuantize/scalar-1     	 600	 163 ns/op	 200.00 MB/s	0 B/op	3 allocs/op
BenchmarkKernelZFPLift/word-1          	3000	  40 ns/op	 840.00 MB/s	0 B/op	0 allocs/op
BenchmarkKernelZFPLift/scalar-1        	1000	 112 ns/op	 300.00 MB/s	0 B/op	0 allocs/op
BenchmarkKernelZFPPlanes/word-1        	2000	 500 ns/op	 240.00 MB/s	63000 B/op	18 allocs/op
BenchmarkKernelZFPPlanes/scalar-1      	 500	2000 ns/op	  64.00 MB/s	63000 B/op	18 allocs/op
BenchmarkKernelBitReader/word-1        	1000	 100 ns/op	 900.00 MB/s	0 B/op	0 allocs/op
PASS
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(streamSample), "BenchmarkStream")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("parsed %d benchmarks, want 8", len(got))
	}
	first := got[0]
	if first.Name != "BenchmarkStreamPipelined/encode/pipeline=1" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", first.Name)
	}
	if first.Iterations != 100 || first.NsPerOp != 1714000 || first.MBPerS != 596.24 {
		t.Errorf("bad fields: %+v", first)
	}
	if first.BytesPerOp != -1 || first.AllocsPerOp != -1 {
		t.Errorf("missing -benchmem columns should be -1, got %+v", first)
	}
	steady := got[4]
	if steady.BytesPerOp != 48 || steady.AllocsPerOp != 1 {
		t.Errorf("benchmem columns not parsed: %+v", steady)
	}
	if steady.MBPerS != 481.05 {
		t.Errorf("MB/s not parsed alongside benchmem columns: %+v", steady)
	}
}

func TestStreamArtifactAndGate(t *testing.T) {
	var out, errw bytes.Buffer
	if err := runStream(strings.NewReader(streamSample), &out, &errw); err != nil {
		t.Fatalf("gate should pass on sample: %v", err)
	}
	var art streamArtifact
	if err := json.Unmarshal(out.Bytes(), &art); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(art.Benchmarks) != 8 {
		t.Errorf("artifact has %d benchmarks, want 8", len(art.Benchmarks))
	}
	if art.Targets["SteadyStateAllocs_max"] != steadyAllocsMax {
		t.Errorf("targets = %v", art.Targets)
	}
	if art.Host.GoVersion == "" {
		t.Error("host metadata missing")
	}
	if !strings.Contains(errw.String(), "stream gate OK") {
		t.Errorf("stderr = %q", errw.String())
	}
}

func TestStreamGateFailsOverBudget(t *testing.T) {
	over := strings.Replace(streamSample,
		"      48 B/op	       1 allocs/op",
		"    4096 B/op	      17 allocs/op", 1)
	var out, errw bytes.Buffer
	err := runStream(strings.NewReader(over), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "allocation gate FAILED") {
		t.Fatalf("err = %v, want allocation gate failure", err)
	}
	if !strings.Contains(err.Error(), "17 allocs/op") {
		t.Errorf("failure should name the offender: %v", err)
	}
}

func TestStreamGateFailsWhenSteadyMissing(t *testing.T) {
	var lines []string
	for _, l := range strings.Split(streamSample, "\n") {
		if !strings.Contains(l, "BenchmarkStreamSteady") {
			lines = append(lines, l)
		}
	}
	var out, errw bytes.Buffer
	err := runStream(strings.NewReader(strings.Join(lines, "\n")), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "expected BenchmarkStreamPipelined") {
		t.Fatalf("err = %v, want missing-benchmark failure", err)
	}
}

func TestStreamGateFailsWithoutBenchmem(t *testing.T) {
	stripped := streamSample
	for _, cols := range []string{
		"	      48 B/op	       1 allocs/op",
		"	       0 B/op	       0 allocs/op",
	} {
		stripped = strings.ReplaceAll(stripped, cols, "")
	}
	var out, errw bytes.Buffer
	err := runStream(strings.NewReader(stripped), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "-benchmem") {
		t.Fatalf("err = %v, want missing allocs/op column failure", err)
	}
}

func TestKernelsArtifactAndGate(t *testing.T) {
	var out, errw bytes.Buffer
	if err := runKernels(strings.NewReader(kernelsSample), &out, &errw); err != nil {
		t.Fatalf("gate should pass on sample: %v", err)
	}
	var art kernelsArtifact
	if err := json.Unmarshal(out.Bytes(), &art); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if got := art.Speedups["SECDED64Encode"]; got != 4.7 {
		t.Errorf("SECDED64Encode speedup = %v, want 4.7", got)
	}
	if got := art.Speedups["GF256MulSlice"]; got != 9.03 {
		t.Errorf("GF256MulSlice speedup = %v, want 9.03", got)
	}
	if got := art.Speedups["SZQuantize"]; got != 3.25 {
		t.Errorf("SZQuantize speedup = %v, want 3.25", got)
	}
	if got := art.Speedups["ZFPLift"]; got != 2.8 {
		t.Errorf("ZFPLift speedup = %v, want 2.8", got)
	}
	if got := art.Speedups["ZFPPlanes"]; got != 3.75 {
		t.Errorf("ZFPPlanes speedup = %v, want 3.75", got)
	}
	if got := art.Targets["ZFPPlanes_min"]; got != 2 {
		t.Errorf("ZFPPlanes_min target = %v, want 2", got)
	}
	if got := art.Speedups["GF256MulSliceAVX2VsSSSE3"]; got != 2.0 {
		t.Errorf("GF256MulSliceAVX2VsSSSE3 = %v, want 2.0", got)
	}
	if _, ok := art.Speedups["BitReader"]; ok {
		t.Error("word bench without a scalar pair must not produce a speedup")
	}
	if _, ok := art.Speedups["GF256MulSliceTier/avx2"]; ok {
		t.Error("tier benches are not word/scalar pairs and must not produce per-tier speedups")
	}
	if !strings.Contains(errw.String(), "kernel gate OK") {
		t.Errorf("stderr = %q", errw.String())
	}
}

func TestKernelsGateFailsBelowFloor(t *testing.T) {
	slow := strings.Replace(kernelsSample, "1410.00 MB/s", " 310.00 MB/s", 1)
	var out, errw bytes.Buffer
	err := runKernels(strings.NewReader(slow), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "kernel gate FAILED") {
		t.Fatalf("err = %v, want kernel gate failure", err)
	}
}

// TestKernelsGateZFPPlanesFloor holds the word-level plane coder to
// twice its bit-serial reference.
func TestKernelsGateZFPPlanesFloor(t *testing.T) {
	slow := strings.Replace(kernelsSample, " 240.00 MB/s", " 120.00 MB/s", 1)
	var out, errw bytes.Buffer
	err := runKernels(strings.NewReader(slow), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "ZFPPlanes 1.88x (need 2x)") {
		t.Fatalf("err = %v, want ZFPPlanes floor failure", err)
	}
}

func TestKernelsGateFailsWhenPairMissing(t *testing.T) {
	var lines []string
	for _, l := range strings.Split(kernelsSample, "\n") {
		if !strings.Contains(l, "GF256MulSlice/scalar") {
			lines = append(lines, l)
		}
	}
	var out, errw bytes.Buffer
	err := runKernels(strings.NewReader(strings.Join(lines, "\n")), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "GF256MulSlice missing") {
		t.Fatalf("err = %v, want missing-pair failure", err)
	}
}

const seekSample = `goos: linux
BenchmarkSeek/full_seq-4         	       7	 167034828 ns/op	 401.77 MB/s	   19496 B/op	      27 allocs/op
BenchmarkSeek/full_pipe-4        	       8	 142901100 ns/op	 469.58 MB/s	    3064 B/op	      23 allocs/op
BenchmarkSeek/range_cold-4       	     300	   3848765 ns/op	  77.95 MB/s	 1062472 B/op	      66 allocs/op
BenchmarkSeek/range_warm-4       	   30000	     39423 ns/op	7609.77 MB/s	      48 B/op	       1 allocs/op
PASS
`

func TestSeekArtifactAndGate(t *testing.T) {
	var out, errw bytes.Buffer
	if err := runSeek(strings.NewReader(seekSample), &out, &errw); err != nil {
		t.Fatalf("gate should pass on sample: %v", err)
	}
	var art seekArtifact
	if err := json.Unmarshal(out.Bytes(), &art); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if got := art.Speedups["RangeColdVsFullSeq"]; got < 43 || got > 44 {
		t.Errorf("RangeColdVsFullSeq = %v, want ~43.4", got)
	}
	if got := art.Speedups["RangeWarmVsCold"]; got < 97 || got > 98 {
		t.Errorf("RangeWarmVsCold = %v, want ~97.6", got)
	}
	if art.Targets["RangeColdVsFullSeq_min"] != seekColdSpeedupMin {
		t.Errorf("targets = %v", art.Targets)
	}
	if !strings.Contains(errw.String(), "seek gate OK") {
		t.Errorf("stderr = %q", errw.String())
	}
}

func TestSeekGateFailsBelowFloor(t *testing.T) {
	// A cold range read barely faster than the full decode: the index
	// has stopped paying for itself.
	slow := strings.Replace(seekSample, "	   3848765 ns/op", "	  90000000 ns/op", 1)
	var out, errw bytes.Buffer
	err := runSeek(strings.NewReader(slow), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "seek gate FAILED") {
		t.Fatalf("err = %v, want seek gate failure", err)
	}
}

func TestSeekGateFailsWhenBenchMissing(t *testing.T) {
	var lines []string
	for _, l := range strings.Split(seekSample, "\n") {
		if !strings.Contains(l, "range_warm") {
			lines = append(lines, l)
		}
	}
	var out, errw bytes.Buffer
	err := runSeek(strings.NewReader(strings.Join(lines, "\n")), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "missing BenchmarkSeek/range_warm") {
		t.Fatalf("err = %v, want missing-benchmark failure", err)
	}
}

// writeTimingFile drops an arcvet -timing record into a temp file and
// returns its path.
func writeTimingFile(t *testing.T, rec arcvetTiming) string {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "timing.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func arcvetSampleTimings() (cold, warm arcvetTiming) {
	cold = arcvetTiming{
		Schema: "arcvet-timing-v1", WallMs: 3400, Packages: 40,
		LiveUnits: 50, CachedUnits: 0, Findings: 0, FindingsHash: "abc123",
	}
	warm = arcvetTiming{
		Schema: "arcvet-timing-v1", WallMs: 140, Packages: 40,
		LiveUnits: 0, CachedUnits: 50, Findings: 0, FindingsHash: "abc123",
	}
	return cold, warm
}

func TestArcvetArtifactAndGate(t *testing.T) {
	cold, warm := arcvetSampleTimings()
	var out, errw bytes.Buffer
	err := runArcvet([]string{writeTimingFile(t, cold), writeTimingFile(t, warm)}, &out, &errw)
	if err != nil {
		t.Fatalf("gate should pass on sample: %v", err)
	}
	var art arcvetArtifact
	if err := json.Unmarshal(out.Bytes(), &art); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if got := art.Speedups["WarmVsCold"]; got < 24 || got > 25 {
		t.Errorf("WarmVsCold = %v, want ~24.29", got)
	}
	if art.Targets["WarmVsCold_min"] != arcvetWarmSpeedupMin {
		t.Errorf("targets = %v", art.Targets)
	}
	if art.Cold.LiveUnits != 50 || art.Warm.CachedUnits != 50 {
		t.Errorf("timing records not embedded: %+v", art)
	}
	if !strings.Contains(errw.String(), "arcvet gate OK") {
		t.Errorf("stderr = %q", errw.String())
	}
}

func TestArcvetGateFailures(t *testing.T) {
	cases := []struct {
		name string
		warp func(cold, warm *arcvetTiming)
		want string
	}{
		{"warm run analyzed units", func(_, w *arcvetTiming) { w.LiveUnits = 3 }, "re-analyzed 3 units"},
		{"findings diverge", func(_, w *arcvetTiming) { w.FindingsHash = "zzz" }, "diverges"},
		{"speedup under floor", func(_, w *arcvetTiming) { w.WallMs = 1700 }, "need 5x"},
		{"cold already warm", func(c, _ *arcvetTiming) { c.LiveUnits = 0 }, "analyzed nothing"},
		{"bad schema", func(c, _ *arcvetTiming) { c.Schema = "v0" }, "want arcvet-timing-v1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cold, warm := arcvetSampleTimings()
			tc.warp(&cold, &warm)
			var out, errw bytes.Buffer
			err := runArcvet([]string{writeTimingFile(t, cold), writeTimingFile(t, warm)}, &out, &errw)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestArcvetGateWantsTwoFiles(t *testing.T) {
	var out, errw bytes.Buffer
	err := runArcvet([]string{"only-one.json"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "two file arguments") {
		t.Fatalf("err = %v, want usage failure", err)
	}
}

func TestHostOnlyModeIsSingleLine(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(""), &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	s := strings.TrimRight(out.String(), "\n")
	if strings.Contains(s, "\n") {
		t.Errorf("host-only output must be a single line, got %q", s)
	}
	var h hostMeta
	if err := json.Unmarshal([]byte(s), &h); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if h.Cores < 1 {
		t.Errorf("cores = %d", h.Cores)
	}
	if h.GOMAXPROCS < 1 {
		t.Errorf("gomaxprocs = %d", h.GOMAXPROCS)
	}
	if h.DispatchTier == "" {
		t.Error("dispatch_tier missing")
	}
	if !slices.Contains(append(h.CPUFeatures, "word"), h.DispatchTier) {
		t.Errorf("dispatch tier %q is not among features %v or the word fallback", h.DispatchTier, h.CPUFeatures)
	}
}

// TestKernelsGateAVX2Tier exercises the conditional AVX2-over-SSSE3
// floor. It only runs where the dispatcher reports AVX2, since the
// gate is deliberately skipped elsewhere.
func TestKernelsGateAVX2Tier(t *testing.T) {
	if !slices.Contains(gf256.Features(), "avx2") {
		t.Skip("host dispatcher does not report AVX2; tier gate inactive")
	}
	slow := strings.Replace(kernelsSample, "3600.00 MB/s", "1900.00 MB/s", 1)
	var out, errw bytes.Buffer
	err := runKernels(strings.NewReader(slow), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "GF256MulSliceAVX2VsSSSE3 1.06x") {
		t.Fatalf("err = %v, want AVX2-tier floor failure", err)
	}
}

func TestUnknownSubcommand(t *testing.T) {
	err := run([]string{"bogus"}, strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
		t.Fatalf("err = %v", err)
	}
}
