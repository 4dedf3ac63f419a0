package main

// The checkpoint workloads: checkpoint.Save then checkpoint.Load of one
// generated field through a file, with seeded within-budget damage put
// into the stored file before every load.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	arc "repro"
	"repro/checkpoint"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/pressio"
)

// setupReps is how many cold Inits a run times; setup_s is their median.
const setupReps = 3

// memCycles is how many untimed save/load cycles after the timed ones
// measure peak memory, one operation at a time.
const memCycles = 5

// ckptWorkload pins one checkpoint configuration.
type ckptWorkload struct {
	name       string
	field      func() *datasets.Field
	compressor string
	bound      func(f *datasets.Field) float64
	mem        float64
	res        arc.Resiliency
	resName    string
	wantChoice string // the optimizer's pick the run requires
	// damage places the at-rest faults for one load into the stored
	// stream and returns how many faults it placed.
	damage func(stream []byte, chunks []chunk, rng *rand.Rand) (int, error)
	// repaired extracts the repair count comparable to the placed
	// faults from a load's report.
	repaired func(r arc.Report) int
	// kernel builds the workload's ECC kernel replay over one payload.
	kernel func(payload []byte, choice arc.Choice, rng *rand.Rand) (eccKernel, []eccCase, error)
}

// nyxFieldSeed and isabelFieldSeed fix the ckpt fields: --seed draws
// only the fault positions there.
const (
	nyxFieldSeed    = 1
	isabelFieldSeed = 1
)

// secdedFlipsPerLoad is the number of single-bit faults, each in its own
// codeword, put into the ckpt-sz file before every load.
const secdedFlipsPerLoad = 512

// rsStripesPerLoad stripes of the ckpt-zfp file each lose
// rsDevicesPerStripe whole devices (the full m=15 budget) before every
// load.
const (
	rsStripesPerLoad   = 2
	rsDevicesPerStripe = 15
)

func runCkptSZ(a runArgs) (*outcome, error) {
	return runCkpt(a, ckptWorkload{
		name: "ckpt-sz",
		// NYX's compressed size swings by a quarter between generator
		// seeds (the bound follows the field's extreme values), which
		// would drown any change in noise, so the field is one fixed
		// snapshot; --seed draws the fault positions.
		field: func() *datasets.Field {
			return datasets.NYX(128, 256, 256, nyxFieldSeed)
		},
		compressor: "SZ-ABS",
		bound: func(f *datasets.Field) float64 {
			lo, hi := metrics.Range(f.Data)
			return 1e-3 * (hi - lo)
		},
		mem:        0.125,
		res:        arc.WithMethods(arc.SECDED),
		resName:    "WithMethods(SECDED)",
		wantChoice: "secded64",
		damage: func(stream []byte, chunks []chunk, rng *rand.Rand) (int, error) {
			bits, err := secdedFlips(chunks, secdedFlipsPerLoad, rng)
			if err != nil {
				return 0, err
			}
			flipBits(stream, bits)
			return len(bits), nil
		},
		repaired: secdedRepaired,
		kernel:   secdedPayloadKernel,
	})
}

func runCkptZFP(a runArgs) (*outcome, error) {
	return runCkpt(a, ckptWorkload{
		name: "ckpt-zfp",
		// ZFP's and the load's CPU time move by about a tenth between
		// Isabel generator seeds, so this field is one fixed snapshot too.
		field: func() *datasets.Field {
			return datasets.Isabel(64, 256, 256, isabelFieldSeed)
		},
		compressor: "ZFP-Rate",
		bound:      func(*datasets.Field) float64 { return 8 },
		mem:        0.07,
		res:        arc.WithMethods(arc.ReedSolomon),
		resName:    "WithMethods(ReedSolomon)",
		wantChoice: "rs-m15",
		damage: func(stream []byte, chunks []chunk, rng *rand.Rand) (int, error) {
			devs, err := rsDamage(chunks, rsStripesPerLoad, rsDevicesPerStripe, rng)
			if err != nil {
				return 0, err
			}
			smash(stream, devs, rng)
			return len(devs), nil
		},
		repaired: rsRepaired,
		kernel:   rsPayloadKernel,
	})
}

// ckptRun is the state one checkpoint run shares between its phases.
type ckptRun struct {
	w          ckptWorkload
	a          *arc.ARC
	field      *datasets.Field
	bound      float64
	opts       checkpoint.Options
	refDigest  [sha256.Size]byte // of the clean compressed payload's decompression
	refLen     int
	compressed []byte // the clean compressed payload
	choice     arc.Choice
	path       string
	rng        *rand.Rand
	out        *outcome
	stored     []byte // clean stored bytes of the first save; every save must match
	chunks     []chunk

	injected, repaired int
	lastRepairs        arc.StreamReport

	// With measureMem set, each operation starts from a heap returned to
	// the OS and records its own peak resident size.
	measureMem           bool
	savePeaks, loadPeaks []float64
}

func runCkpt(a runArgs, w ckptWorkload) (*outcome, error) {
	out := newOutcome()
	field := w.field()
	r := &ckptRun{
		w:     w,
		field: field,
		bound: w.bound(field),
		path:  filepath.Join(a.work, "field.ckpt"),
		rng:   rand.New(rand.NewSource(a.seed ^ 0x5eed)),
		out:   out,
	}
	r.opts = checkpoint.Options{Compressor: w.compressor, Bound: r.bound, Mem: w.mem, BW: arc.AnyBW, Resiliency: w.res}

	var trace *tracer
	if a.trace {
		trace = newTracer()
	}

	// Set-up: cold Init, each into a fresh empty training cache.
	var setups []opTime
	for i := 0; i < setupReps; i++ {
		dir, err := os.MkdirTemp(a.work, "arc-cache-")
		if err != nil {
			return nil, err
		}
		sp := trace.begin("core.train", 0, 0)
		var eng *arc.ARC
		d, err := timed(func() (err error) {
			eng, err = arc.InitWithOptions(arc.AnyThreads, arc.Options{CacheDir: dir})
			return err
		})
		trace.end(sp)
		if err != nil {
			return nil, fmt.Errorf("init: %w", err)
		}
		setups = append(setups, d)
		out.PerLayer["core.trained_points"] = float64(eng.TrainedPoints())
		if r.a != nil {
			if err := r.a.Close(); err != nil {
				return nil, err
			}
		}
		r.a = eng
	}
	defer r.a.Close()
	setupWall, setupCPU := split(setups)
	out.EndToEnd["setup_s"] = median(setupCPU)
	out.PerLayer["core.train_s"] = median(setupWall)

	if err := r.pin(); err != nil {
		return nil, err
	}
	// One untimed cycle settles lazy state and records the layout.
	if _, _, err := r.cycle(nil, 0); err != nil {
		return nil, err
	}

	saveT, loadT, err := r.measure(a.seconds)
	if err != nil {
		return nil, err
	}
	// Memory is measured per operation, apart from the timed cycles:
	// within an operation the peak depends on whether a collection ends
	// before a large allocation, and the maximum over a run caught the
	// rare high case in some runs and not in others.
	r.measureMem = true
	for i := 0; i < memCycles; i++ {
		if _, _, err := r.cycle(nil, 0); err != nil {
			return nil, err
		}
	}
	r.measureMem = false
	out.EndToEnd["peak_rss_mb"] = max(median(r.savePeaks), median(r.loadPeaks))
	saves, saveCPU := split(saveT)
	loads, loadCPU := split(loadT)
	wall, cpu := sum(saves)+sum(loads), sum(saveCPU)+sum(loadCPU)
	n := float64(len(saves) + len(loads))
	fieldMB := float64(field.SizeBytes()) / 1e6
	// Saves and loads alternate, so the per-op figure is the mean of the
	// two medians: an op that meets a burst of host interference moves
	// neither.
	out.EndToEnd["cpu_ms_per_op"] = 1e3 * (median(saveCPU) + median(loadCPU)) / 2
	out.Report["cpu_ms_per_op_mean"] = figure{1e3 * cpu / n, "ms", int(n)}
	out.EndToEnd["stored_per_input_byte"] = float64(len(r.stored)) / float64(field.SizeBytes())
	out.Report["ops_per_s"] = figure{n / wall, "1/s", int(n)}
	out.Report["save_mb_s"] = figure{fieldMB / median(saves), "MB/s", len(saves)}
	out.Report["load_mb_s"] = figure{fieldMB / median(loads), "MB/s", len(loads)}
	out.Report["save_p50_ms"] = figure{1e3 * median(saves), "ms", len(saves)}
	out.Report["load_p50_ms"] = figure{1e3 * median(loads), "ms", len(loads)}
	out.Report["save_cpu_p50_ms"] = figure{1e3 * median(saveCPU), "ms", len(saveCPU)}
	out.Report["load_cpu_p50_ms"] = figure{1e3 * median(loadCPU), "ms", len(loadCPU)}

	if a.trace {
		if err := r.traced(a.seconds, trace, median(saves), median(loads)); err != nil {
			return nil, err
		}
		if err := trace.writeSpans(filepath.Join(a.outDir, fmt.Sprintf("%s-seed%d.json", w.name, a.seed))); err != nil {
			return nil, err
		}
	}
	out.PerLayer["core.repaired_over_injected"] = float64(r.repaired) / float64(r.injected)
	out.Report["setup_cpu_s"] = figure{median(setupCPU), "s", len(setups)}
	out.Report["setup_wall_s"] = figure{median(setupWall), "s", len(setups)}
	out.Report["faults_injected"] = figure{float64(r.injected), "count", 0}
	out.Report["faults_repaired"] = figure{float64(r.repaired), "count", 0}
	return out, nil
}

// pin builds the reference decompression and keeps its digest, records
// the configuration, and refuses to run when the optimizer's pick is
// not the stated one.
func (r *ckptRun) pin() error {
	comp, err := pressio.New(r.w.compressor, r.bound)
	if err != nil {
		return err
	}
	compressed, err := comp.Compress(r.field.Data, r.field.Dims)
	if err != nil {
		return err
	}
	ref, _, err := comp.Decompress(compressed)
	if err != nil {
		return err
	}
	r.refDigest, r.refLen, r.compressed = digest(ref), len(ref), compressed
	if comp.BoundsError() {
		if e := metrics.MaxDiff(r.field.Data, ref); e > r.bound {
			return fmt.Errorf("%s reconstruction error %g exceeds bound %g", r.w.compressor, e, r.bound)
		}
	}
	choice, err := r.a.JointOptimizer(r.opts.Mem, r.opts.BW, r.opts.Resiliency)
	if err != nil {
		return err
	}
	r.choice = choice
	if got := choice.Config.String(); got != r.w.wantChoice {
		return fmt.Errorf("optimizer picked %s under Mem %g %s, want %s", got, r.opts.Mem, r.w.resName, r.w.wantChoice)
	}
	fieldBytes := r.field.SizeBytes()
	r.out.Config["field"] = r.field.Name
	r.out.Config["dims"] = r.field.Dims
	r.out.Config["field_bytes"] = fieldBytes
	r.out.Config["compressor"] = r.w.compressor
	r.out.Config["bound"] = r.bound
	r.out.Config["compressed_bytes"] = len(compressed)
	r.out.Config["constraints"] = map[string]any{"mem": r.opts.Mem, "bw": "AnyBW", "resiliency": r.w.resName}
	r.out.Config["choice"] = map[string]any{
		"config":      choice.Config.String(),
		"threads":     choice.Threads,
		"overhead":    choice.Overhead,
		"over_budget": choice.OverBudget,
	}
	r.out.Config["load_workers"] = "AnyThreads"
	r.out.Config["io"] = "os.File in the checkout, page cache, no fsync"
	r.out.Report["psnr_db"] = figure{metrics.PSNR(r.field.Data, ref), "dB", 0}
	r.out.Report["max_abs_err"] = figure{metrics.MaxDiff(r.field.Data, ref), "abs", 0}
	if r.w.compressor == "SZ-ABS" {
		r.out.PerLayer["sz.compressed_bytes"] = float64(len(compressed))
	}
	return nil
}

// cycle saves the field, damages the stored file, and loads it back,
// timing the save and the load. Everything but the two calls is outside
// the timings. Failures are counted in r.out, not returned; the error
// is for conditions that make the run meaningless.
func (r *ckptRun) cycle(trace *tracer, op int) (save, load opTime, err error) {
	r.out.Attempted++
	var info *checkpoint.Info
	if err := r.settle(); err != nil {
		return save, load, err
	}
	save, err = timed(func() (err error) {
		if trace != nil {
			info, err = r.tracedSave(trace, op)
			return err
		}
		f, err := os.Create(r.path)
		if err != nil {
			return err
		}
		if info, err = checkpoint.Save(f, r.a, r.field.Data, r.field.Dims, r.opts); err != nil {
			_ = f.Close() // error path: the save error wins
			return err
		}
		return f.Close()
	})
	if err != nil {
		r.out.fail("save: %v", err)
		return save, load, nil
	}
	if err := r.notePeak(&r.savePeaks); err != nil {
		return save, load, err
	}
	if got := info.Choice.Config.String(); got != r.w.wantChoice {
		return save, load, fmt.Errorf("save used %s, want %s", got, r.w.wantChoice)
	}
	stream, err := os.ReadFile(r.path)
	if err != nil {
		return save, load, err
	}
	if err := r.checkStored(stream); err != nil {
		r.out.fail("save: %v", err)
		return save, load, nil
	}
	faults, err := r.w.damage(stream, r.chunks, r.rng)
	if err != nil {
		return save, load, err
	}
	if err := os.WriteFile(r.path, stream, 0o644); err != nil {
		return save, load, err
	}

	r.out.Attempted++
	var data []float64
	var linfo *checkpoint.Info
	if err := r.settle(); err != nil {
		return save, load, err
	}
	load, err = timed(func() (err error) {
		if trace != nil {
			data, linfo, err = r.tracedLoad(trace, op)
			return err
		}
		f, err := os.Open(r.path)
		if err != nil {
			return err
		}
		defer f.Close()
		data, _, linfo, err = checkpoint.Load(f, arc.AnyThreads)
		return err
	})
	if err != nil {
		r.out.fail("load: %v", err)
		return save, load, nil
	}
	if err := r.notePeak(&r.loadPeaks); err != nil {
		return save, load, err
	}
	r.injected += faults
	r.lastRepairs = linfo.Repairs
	rep := linfo.Repairs
	got := r.w.repaired(arc.Report{DetectedBlocks: rep.DetectedBlocks, CorrectedBits: rep.CorrectedBits, CorrectedBlocks: rep.CorrectedBlocks})
	if got != faults {
		r.out.fail("load repaired %d faults (report %+v), injected %d", got, linfo.Repairs, faults)
	} else {
		r.repaired += got
	}
	switch {
	case len(data) != r.refLen:
		r.out.fail("load returned %d values, want %d", len(data), r.refLen)
	case digest(data) != r.refDigest:
		r.out.fail("load returned a field that differs from the reference decompression")
	}
	return save, load, nil
}

// digest is the SHA-256 of xs's bit patterns. The ckpt workloads keep
// the digest of the reference field rather than the field, so the
// harness holds no copy the program under test would not.
func digest(xs []float64) [sha256.Size]byte {
	h := sha256.New()
	var buf [8 << 10]byte
	for len(xs) > 0 {
		n := min(len(xs), len(buf)/8)
		for i, v := range xs[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		h.Write(buf[:8*n])
		xs = xs[n:]
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// settle starts every operation from the same heap: collected, and when
// measuring memory also returned to the OS with the peak mark reset.
func (r *ckptRun) settle() error {
	if r.measureMem {
		return resetPeakRSS()
	}
	runtime.GC()
	return nil
}

// notePeak records the peak resident size of the operation just ended
// when measuring memory.
func (r *ckptRun) notePeak(peaks *[]float64) error {
	if !r.measureMem {
		return nil
	}
	p, err := peakRSSMB()
	*peaks = append(*peaks, p)
	return err
}

// checkStored records the first clean stored stream and requires every
// later save to be byte-identical to it; the first time it also cross-
// checks the layout parsed from docs/FORMAT.md against InspectStream.
func (r *ckptRun) checkStored(stream []byte) error {
	if r.stored == nil {
		chunks, err := parseStream(stream)
		if err != nil {
			return err
		}
		infos, err := arc.InspectStream(bytes.NewReader(stream))
		if err != nil {
			return err
		}
		if len(infos) != len(chunks) {
			return fmt.Errorf("layout found %d chunks, InspectStream %d", len(chunks), len(infos))
		}
		for i, in := range infos {
			c := chunks[i]
			if in.Config.String() != r.w.wantChoice || in.OrigLen != c.OrigLen || in.EncLen != c.EncLen || in.DevSize != c.DevSize {
				return fmt.Errorf("chunk %d: layout %+v disagrees with InspectStream %+v", i, c, in)
			}
		}
		r.chunks = chunks
		r.stored = append([]byte(nil), stream...)
		r.out.Config["stored_bytes"] = len(stream)
		r.out.Config["chunks"] = len(chunks)
		r.out.PerLayer["core.chunks"] = float64(len(chunks))
		return nil
	}
	if !bytes.Equal(stream, r.stored) {
		return fmt.Errorf("stored checkpoint differs from the first save")
	}
	return nil
}

// measure repeats save/damage/load cycles for the given seconds.
func (r *ckptRun) measure(seconds float64) (saves, loads []opTime, err error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(saves) < 2 || time.Now().Before(deadline) {
		s, l, err := r.cycle(nil, 0)
		if err != nil {
			return nil, nil, err
		}
		saves, loads = append(saves, s), append(loads, l)
	}
	return saves, loads, nil
}

// payloadHeader rebuilds the checkpoint payload prefix exactly as
// checkpoint.Save lays it out (docs/FORMAT.md, "Checkpoint").
func payloadHeader(name string, bound float64, dims []int) []byte {
	var b bytes.Buffer
	b.WriteString("ACKP")
	b.WriteByte(1)
	b.WriteByte(byte(len(name)))
	b.WriteString(name)
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], math.Float64bits(bound))
	b.Write(s[:])
	b.WriteByte(byte(len(dims)))
	for _, d := range dims {
		binary.LittleEndian.PutUint32(s[:4], uint32(d))
		b.Write(s[:4])
	}
	return b.Bytes()
}

// tracedWriter and tracedReader record every file call as an io span.
type tracedWriter struct {
	f      *os.File
	t      *tracer
	op, at int
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	id := w.t.begin("io.write", w.op, w.at)
	defer w.t.end(id)
	return w.f.Write(p)
}

type tracedReader struct {
	f      *os.File
	t      *tracer
	op, at int
}

func (r *tracedReader) Read(p []byte) (int, error) {
	id := r.t.begin("io.read", r.op, r.at)
	defer r.t.end(id)
	return r.f.Read(p)
}

// tracedSave replays the calls checkpoint.Save makes, with the same
// options, under spans: compress, then stream-protect into the file.
func (r *ckptRun) tracedSave(t *tracer, op int) (*checkpoint.Info, error) {
	root := t.begin("checkpoint.save", op, 0)
	defer t.end(root)

	sp := t.begin("io.write", op, root)
	f, err := os.Create(r.path)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("pressio.compress", op, root)
	comp, err := pressio.New(r.opts.Compressor, r.opts.Bound)
	var compressed []byte
	if err == nil {
		compressed, err = comp.Compress(r.field.Data, r.field.Dims)
	}
	t.end(sp)
	if err != nil {
		_ = f.Close() // error path: the compress error wins
		return nil, err
	}
	var payload bytes.Buffer
	payload.Write(payloadHeader(r.opts.Compressor, r.opts.Bound, r.field.Dims))
	payload.Write(compressed)

	sp = t.begin("core.protect", op, root)
	aw, err := r.a.NewWriter(&tracedWriter{f, t, op, sp}, r.opts.Mem, r.opts.BW, r.opts.Resiliency, r.opts.ChunkBytes)
	if err == nil {
		if _, err = aw.Write(payload.Bytes()); err == nil {
			err = aw.Close()
		}
	}
	t.end(sp)
	if err != nil {
		_ = f.Close() // error path: the protect error wins
		return nil, err
	}
	sp = t.begin("io.write", op, root)
	err = f.Close()
	t.end(sp)
	if err != nil {
		return nil, err
	}
	info := &checkpoint.Info{CompressedBytes: len(compressed), Choice: aw.Choice()}
	return info, nil
}

// tracedLoad replays the calls checkpoint.Load makes under spans:
// verify/repair the stream, then decompress.
func (r *ckptRun) tracedLoad(t *tracer, op int) ([]float64, *checkpoint.Info, error) {
	root := t.begin("checkpoint.load", op, 0)
	defer t.end(root)

	sp := t.begin("io.read", op, root)
	f, err := os.Open(r.path)
	t.end(sp)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		sp := t.begin("io.read", op, root)
		_ = f.Close() // read-only file
		t.end(sp)
	}()
	sp = t.begin("core.verify", op, root)
	ar := arc.NewReader(&tracedReader{f, t, op, sp}, arc.AnyThreads)
	payload, err := io.ReadAll(ar)
	t.end(sp)
	if err != nil {
		return nil, nil, err
	}
	hdr := payloadHeader(r.opts.Compressor, r.opts.Bound, r.field.Dims)
	if !bytes.HasPrefix(payload, hdr) {
		return nil, nil, fmt.Errorf("replayed load: checkpoint header differs")
	}
	sp = t.begin("pressio.decompress", op, root)
	comp, err := pressio.New(r.opts.Compressor, r.opts.Bound)
	var data []float64
	if err == nil {
		data, _, err = comp.Decompress(payload[len(hdr):])
	}
	t.end(sp)
	if err != nil {
		return nil, nil, err
	}
	return data, &checkpoint.Info{Repairs: ar.Report()}, nil
}

// traced runs the span-recorded replay for the given seconds and
// derives the per-layer metrics. untracedSave/Load are the untraced
// medians of the same run, for the tracing overhead.
func (r *ckptRun) traced(seconds float64, t *tracer, untracedSave, untracedLoad float64) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for op := 1; op <= 2 || time.Now().Before(deadline); op++ {
		if _, _, err := r.cycle(t, op); err != nil {
			return err
		}
	}
	spans := t.snapshot()
	pl := r.out.PerLayer
	fieldMB := float64(r.field.SizeBytes()) / 1e6
	storedMB := float64(len(r.stored)) / 1e6

	layer := "pressio.sz."
	if r.w.compressor != "SZ-ABS" {
		layer = "pressio.zfp."
	}
	pl[layer+"compress_mb_s"] = fieldMB / median(durs(byName(spans, "pressio.compress")))
	pl[layer+"decompress_mb_s"] = fieldMB / median(durs(byName(spans, "pressio.decompress")))

	pl["core.protect_mb_s"] = float64(len(r.compressed)) / 1e6 / median(selfTimes(spans, "core.protect"))
	pl["core.verify_mb_s"] = storedMB / median(selfTimes(spans, "core.verify"))
	pl["io.write_s"] = median(sumByParentName(spans, "io.write", "checkpoint.save", "core.protect"))
	pl["io.read_s"] = median(sumByParentName(spans, "io.read", "checkpoint.load", "core.verify"))

	for _, kind := range []string{"save", "load"} {
		roots := byName(spans, "checkpoint."+kind)
		var self, frac, dur []float64
		for _, s := range roots {
			self = append(self, selfTime(spans, s).Seconds())
			frac = append(frac, covered(spans, s).Seconds()/s.dur().Seconds())
			dur = append(dur, s.dur().Seconds())
		}
		pl["checkpoint."+kind+"_self_s"] = median(self)
		pl["checkpoint."+kind+"_covered_frac"] = median(frac)
		base := untracedSave
		if kind == "load" {
			base = untracedLoad
		}
		pl["trace."+kind+"_overhead_ratio"] = median(dur) / base
	}
	pl["core.corrected_bits"] = float64(r.lastRepairs.CorrectedBits)
	pl["core.corrected_blocks"] = float64(r.lastRepairs.CorrectedBlocks)

	// ECC kernels alone on the same compressed bytes, apart from the
	// container and stream machinery around them.
	payload := append(payloadHeader(r.opts.Compressor, r.opts.Bound, r.field.Dims), r.compressed...)
	k, cases, err := r.w.kernel(payload, r.choice, r.rng)
	if err != nil {
		return err
	}
	return k.time(cases, t, r.out)
}

func durs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur().Seconds()
	}
	return out
}

func selfTimes(spans []span, name string) []float64 {
	var out []float64
	for _, s := range byName(spans, name) {
		out = append(out, selfTime(spans, s).Seconds())
	}
	return out
}

// sumByParentName sums, per root span, the durations of spans named
// child that sit directly under the root or under its mid-level span.
func sumByParentName(spans []span, child, root, mid string) []float64 {
	rootOf := map[int]int{}
	for _, s := range byName(spans, root) {
		rootOf[s.ID] = s.ID
	}
	for _, s := range byName(spans, mid) {
		if _, ok := rootOf[s.Parent]; ok {
			rootOf[s.ID] = s.Parent
		}
	}
	sum := map[int]float64{}
	for _, s := range byName(spans, root) {
		sum[s.ID] = 0
	}
	for _, s := range byName(spans, child) {
		if r, ok := rootOf[s.Parent]; ok {
			sum[r] += s.dur().Seconds()
		}
	}
	out := make([]float64, 0, len(sum))
	for _, v := range sum {
		out = append(out, v)
	}
	return out
}
