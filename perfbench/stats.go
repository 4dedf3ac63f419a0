package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/gf256"
)

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the higher of p99 and p90 that leaves at least ten
// samples above it, with its name; ("", 0) when neither does.
func tailQuantile(xs []float64) (string, float64) {
	for _, q := range []struct {
		name string
		p    float64
	}{{"p99", 0.99}, {"p90", 0.90}} {
		if float64(len(xs))*(1-q.p) >= 10 {
			return q.name, quantile(xs, q.p)
		}
	}
	return "", 0
}

// resetPeakRSS collects the heap, returns the freed pages to the OS and
// restarts Linux's peak resident set mark (VmHWM) at the current
// resident size, so peakRSSMB covers only what runs after it and not
// the inputs built before.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	if _, err := f.WriteString("5"); err != nil {
		_ = f.Close() // the write error wins
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return f.Close()
}

// peakRSSMB is the process's peak resident set size in MiB since the
// last resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// host describes the machine a run measured; numbers from different
// hosts are not comparable.
type host struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GOARCH     string   `json:"goarch"`
	GoVersion  string   `json:"go_version"`
	SIMDTier   string   `json:"gf256_tier"`
	CPUFeature []string `json:"cpu_features"`
	L3Bytes    int64    `json:"l3_bytes"` // 0 when unknown
}

func hostInfo() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		SIMDTier:   gf256.ActiveTier(),
		CPUFeature: gf256.Features(),
		L3Bytes:    l3Bytes(),
	}
}

// l3Bytes reads the level-3 cache size Linux reports for CPU 0.
func l3Bytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lvl, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil || strings.TrimSpace(string(lvl)) != "3" {
			continue
		}
		sz, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			return 0
		}
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0
		}
		return n * mult
	}
	return 0
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// split separates operation timings into wall and CPU seconds.
func split(ts []opTime) (wall, cpu []float64) {
	for _, t := range ts {
		wall, cpu = append(wall, t.wall), append(cpu, t.cpu)
	}
	return wall, cpu
}
