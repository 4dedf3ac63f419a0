// Command perfbench is the repository's end-to-end benchmark. It times
// the public entry points users call — checkpoint.Save/Load over SZ and
// ZFP fields, and an in-process arcd server under a closed-loop mix —
// and checks every output against ground truth. See README.md for the
// workloads, the metrics and how to run it.
//
//	perfbench --workload ckpt-sz --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last stdout line is a JSON object holding the
// end-to-end metrics; with --trace 1 it holds the per-layer metrics of
// a traced replay. The lines before it record the host, the pinned
// workload configuration and every workload-specific figure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// unit of every metric the final line may carry. The sets must match
// BENCHMARK.json (TestMetricTablesMatchBenchmarkJSON).
var endToEndUnits = map[string]string{
	"setup_s":               "s",
	"cpu_ms_per_op":         "ms",
	"stored_per_input_byte": "ratio",
	"peak_rss_mb":           "MiB",
}

var perLayerUnits = map[string]string{
	"checkpoint.save_self_s":         "s",
	"checkpoint.load_self_s":         "s",
	"checkpoint.save_covered_frac":   "frac",
	"checkpoint.load_covered_frac":   "frac",
	"trace.save_overhead_ratio":      "ratio",
	"trace.load_overhead_ratio":      "ratio",
	"trace.request_overhead_ratio":   "ratio",
	"pressio.sz.compress_mb_s":       "MB/s",
	"pressio.sz.decompress_mb_s":     "MB/s",
	"sz.compressed_bytes":            "bytes",
	"pressio.zfp.compress_mb_s":      "MB/s",
	"pressio.zfp.decompress_mb_s":    "MB/s",
	"core.protect_mb_s":              "MB/s",
	"core.verify_mb_s":               "MB/s",
	"core.chunks":                    "count",
	"core.corrected_bits":            "count",
	"core.corrected_blocks":          "count",
	"core.repaired_over_injected":    "ratio",
	"core.train_s":                   "s",
	"core.trained_points":            "count",
	"core.range_chunks_per_read":     "count",
	"ecc.secded64.encode_mb_s":       "MB/s",
	"ecc.secded64.decode_mb_s":       "MB/s",
	"ecc.rs15.encode_mb_s":           "MB/s",
	"ecc.rs15.decode_mb_s":           "MB/s",
	"io.write_s":                     "s",
	"io.read_s":                      "s",
	"service.requests":               "count",
	"service.errors":                 "count",
	"service.server_p50_ms":          "ms",
	"service.server_p99_ms":          "ms",
	"service.client_minus_server_ms": "ms",
	"cache.hit_ratio":                "frac",
	"cache.misses":                   "count",
	"cache.evictions":                "count",
}

// figure is one workload-specific number for the report line: a value,
// its unit, and how many samples it summarizes where that applies.
type figure struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// tally counts checked operations and keeps the first few failures.
type tally struct {
	Attempted int
	Failed    int
	Failures  []string
}

const keptFailures = 8

// fail counts one failed operation and keeps its description.
func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Failures) < keptFailures {
		t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for _, f := range o.Failures {
		if len(t.Failures) < keptFailures {
			t.Failures = append(t.Failures, f)
		}
	}
}

// outcome is what a workload run produces.
type outcome struct {
	tally
	Config   map[string]any    // pinned configuration, recorded verbatim
	Report   map[string]figure // workload-specific figures
	EndToEnd map[string]float64
	PerLayer map[string]float64
}

// newOutcome returns an empty outcome whose per-layer metrics all read
// 0, the value of a layer the workload does not exercise.
func newOutcome() *outcome {
	o := &outcome{
		Config:   map[string]any{},
		Report:   map[string]figure{},
		EndToEnd: map[string]float64{},
		PerLayer: map[string]float64{},
	}
	for name := range perLayerUnits {
		o.PerLayer[name] = 0
	}
	return o
}

type runArgs struct {
	seed    int64
	seconds float64
	trace   bool
	work    string // scratch directory inside the checkout
	outDir  string // where the traced run writes its spans
}

var workloads = map[string]func(runArgs) (*outcome, error){
	"ckpt-sz":    runCkptSZ,
	"ckpt-zfp":   runCkptZFP,
	"arcd-mixed": runArcdMixed,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "ckpt-sz, ckpt-zfp or arcd-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per phase")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// buildDir holds everything a run leaves behind; run.sh builds the
// binary there too, and .gitignore lists it.
const buildDir = ".bench_build"

func run(workload string, seed int64, seconds float64, trace int) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	outDir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	out, err := fn(runArgs{seed: seed, seconds: seconds, trace: trace == 1, work: work, outDir: outDir})
	if err != nil {
		return err
	}
	out.Report["failed_frac"] = figure{float64(out.Failed) / float64(max(out.Attempted, 1)), "frac", out.Attempted}

	info := map[string]any{
		"workload": workload,
		"seed":     seed,
		"seconds":  seconds,
		"trace":    trace,
		"host":     hostInfo(),
		"config":   out.Config,
		"report":   out.Report,
		"failures": out.Failures,
	}
	if err := printJSON(info); err != nil {
		return err
	}

	values, units := out.EndToEnd, endToEndUnits
	if trace == 1 {
		values, units = out.PerLayer, perLayerUnits
	}
	res := result{
		Correct:   out.Failed == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   map[string]metricOut{},
	}
	for _, name := range sortedKeys(units) {
		v, ok := values[name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", workload, name)
		}
		res.Metrics[name] = metricOut{Value: v, Unit: units[name]}
	}
	if err := printJSON(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed: %v", out.Failed, out.Attempted, out.Failures)
	}
	return nil
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// opTime is one operation's wall time and the process CPU time spent
// meanwhile, in seconds.
type opTime struct{ wall, cpu float64 }

// timed runs f and measures it.
func timed(f func() error) (opTime, error) {
	c0, t0 := cpuSeconds(), time.Now()
	err := f()
	return opTime{time.Since(t0).Seconds(), cpuSeconds() - c0}, err
}
