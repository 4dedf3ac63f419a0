// Command arcvet runs this repository's static-analysis suite:
// fifteen repo-specific analyzers over type-checked packages, built
// entirely on the standard library (see internal/analysis and
// docs/STATIC_ANALYSIS.md). Packages are analyzed in topological
// import order, so facts exported about a dependency's functions
// (may-panic, taint summaries, lock and channel effects) are visible
// while analyzing its dependents.
//
// Usage:
//
//	arcvet [-format text|json|sarif] [-analyzers a,b] [-list]
//	       [-cache-dir dir] [-waivercheck] [-timing file] [packages...]
//
// Package patterns are directories relative to the module root, with
// "./..." (the default) expanding recursively. Findings print as
// file:line:col: [analyzer] message, sorted by (file, line, col,
// analyzer) across all packages; -format json emits the same ordering
// as a machine-readable array, and -format sarif emits a SARIF 2.1.0
// log suitable for GitHub code scanning upload. -analyzers restricts
// the run to a comma-separated subset. Exit status is 0 when clean, 1
// when findings are reported, and 2 on usage or load errors.
//
// -cache-dir enables the incremental fact cache: packages whose
// content key (own sources plus transitive module-local imports) is
// unchanged replay their facts, call-graph slice, and findings from
// disk instead of being re-analyzed. -timing writes a small JSON
// record of the run (wall time, live/cached unit counts, a findings
// hash) for benchmarking the cache. -waivercheck additionally reports
// //arcvet:ignore directives that suppressed nothing; it requires the
// full analyzer set, since a subset run would misread waivers for the
// skipped analyzers as stale.
//
// Individual findings are waived inline with
//
//	//arcvet:ignore <analyzer> <justification>
//
// on the offending line, the line directly above it, or — when the
// finding sits on a continuation line of a multi-line statement — the
// statement's first line.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/analysis"
)

// timingRecord is the -timing output: enough for cmd/benchmeta to
// gate the incremental cache (warm runs must replay everything and
// reproduce the cold run's findings at a real speedup).
type timingRecord struct {
	Schema       string  `json:"schema"`
	WallMs       float64 `json:"wall_ms"`
	Packages     int     `json:"packages"`
	LiveUnits    int     `json:"live_units"`
	CachedUnits  int     `json:"cached_units"`
	Findings     int     `json:"findings"`
	FindingsHash string  `json:"findings_hash"`
}

// writeTiming records the run's shape. The findings hash covers every
// diagnostic's position, analyzer, and message, so equal hashes mean
// equal findings.
func writeTiming(path string, wall time.Duration, res *analysis.Result) error {
	h := sha256.New()
	for _, d := range res.Diagnostics {
		_, _ = fmt.Fprintf(h, "%s:%d:%d:%s:%s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	}
	rec := timingRecord{
		Schema:       "arcvet-timing-v1",
		WallMs:       float64(wall.Microseconds()) / 1000,
		Packages:     res.Packages,
		LiveUnits:    res.Stats.LiveUnits,
		CachedUnits:  res.Stats.CachedUnits,
		Findings:     len(res.Diagnostics),
		FindingsHash: hex.EncodeToString(h.Sum(nil)),
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// say writes a line, explicitly discarding the write error: arcvet's
// own output failing (closed pipe, full disk) must not change its
// verdict, and the exit code is the contract.
func say(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("arcvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "", "output format: text (default), json, or sarif")
	names := fs.String("analyzers", "", "comma-separated analyzers to run (default: all)")
	list := fs.Bool("list", false, "list registered analyzers and exit")
	cacheDir := fs.String("cache-dir", "", "directory for the incremental fact cache (empty: no caching)")
	waiverCheck := fs.Bool("waivercheck", false, "report stale //arcvet:ignore directives (requires the full analyzer set)")
	timing := fs.String("timing", "", "write a JSON timing record of the run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			say(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	switch *format {
	case "", "text", "json", "sarif":
	default:
		say(stderr, "arcvet: unknown format %q (want text, json, or sarif)\n", *format)
		return 2
	}
	analyzers, err := analysis.ByName(*names)
	if err != nil {
		say(stderr, "arcvet: %v\n", err)
		return 2
	}
	if *waiverCheck && *names != "" {
		say(stderr, "arcvet: -waivercheck requires the full analyzer set; drop -analyzers\n")
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		say(stderr, "arcvet: %v\n", err)
		return 2
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		say(stderr, "arcvet: %v\n", err)
		return 2
	}
	dirs, err := analysis.ExpandPatterns(cwd, fs.Args())
	if err != nil {
		say(stderr, "arcvet: %v\n", err)
		return 2
	}
	start := time.Now()
	res, err := analysis.RunWith(loader, dirs, analyzers, analysis.Options{
		CacheDir:    *cacheDir,
		WaiverCheck: *waiverCheck,
	})
	wall := time.Since(start)
	if err != nil {
		say(stderr, "arcvet: %v\n", err)
		return 2
	}
	if *timing != "" {
		if err := writeTiming(*timing, wall, res); err != nil {
			say(stderr, "arcvet: %v\n", err)
			return 2
		}
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if res.Diagnostics == nil {
			res.Diagnostics = []analysis.Diagnostic{}
		}
		if err := enc.Encode(res.Diagnostics); err != nil {
			say(stderr, "arcvet: %v\n", err)
			return 2
		}
	case "sarif":
		if err := analysis.WriteSARIF(stdout, cwd, res.Diagnostics); err != nil {
			say(stderr, "arcvet: %v\n", err)
			return 2
		}
	default:
		for _, d := range res.Diagnostics {
			say(stdout, "%s\n", d)
		}
		say(stderr, "arcvet: %d package(s), %d finding(s)\n", res.Packages, len(res.Diagnostics))
	}
	if len(res.Diagnostics) > 0 {
		return 1
	}
	return 0
}
