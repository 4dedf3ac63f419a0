package main

// The arcd-mixed workload: an in-process arcd server on loopback and
// two closed-loop clients (each waits for its reply before sending the
// next request). The mix is READ_RANGE over a damaged, indexed rs-m15
// archive four times the server's chunk cache, ENCODE of fresh
// payloads, and DECODE of containers carrying within-budget flips.
//
// The traffic shape follows the repository's own load model,
// service.WorkloadOptions (cmd/arcload): payload sizes Zipf-skewed
// toward small at its default skew, range reads of up to 64 KiB, and
// up to its default 3 flips per corrupted container. Two parameters
// have no such source and are choices: the range offsets use the same
// skew over a seeded ranking of chunks (arcload draws them uniformly),
// and one chunk in four carries at-rest damage. The run record reports
// the cache hits, misses and evictions and the repairing reads they
// give.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	arc "repro"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ecc"
	"repro/internal/service"
)

const (
	arcdClients     = 2
	arcdChunkBytes  = 256 << 10
	arcdCacheBytes  = 16 << 20
	arcdArchiveName = "field.arc"
	arcdSetupReps   = 45
	arcdWarmup      = 2 * time.Second
	cpuSlice        = time.Second
	arcdPoolSize    = 256

	rangeShare  = 0.70 // of requests; ENCODE and DECODE split the rest
	encodeShare = 0.15

	// From service.WorkloadOptions: its default Zipf skew and flip
	// budget, and its 64 KiB cap on a range read. The 4–256 KiB
	// payload span is this workload's.
	zipfS         = 1.4
	rangeMaxBytes = 64 << 10
	decodeMaxFlip = 3
	encodeMin     = 4 << 10
	encodeMax     = 256 << 10

	damagedChunkShare = 4 // one chunk in this many carries device damage
	rsReplayChunks    = 16
)

const (
	opRange = iota
	opEncode
	opDecode
	numOps
)

var opNames = [numOps]string{"range", "encode", "decode"}

// poolItem is one ENCODE payload with the container the server must
// return for it, and that container with seeded flips for DECODE.
type poolItem struct {
	data      []byte
	container []byte
	damaged   []byte
	flips     int
}

type arcdInputs struct {
	dir     string
	plain   []byte // the archive's original bytes, outside the Go heap
	chunks  []chunk
	damage  []int // damaged devices per chunk
	hot     []int // Zipf rank -> chunk
	pool    []poolItem
	cleanAt int64     // offset of an undamaged chunk, for set-up reads
	rsCases []eccCase // stored payloads of the first chunks, for the RS replay

	atRestDamage, atRestRepaired int // devices, over a full served read
}

func runArcdMixed(a runArgs) (*outcome, error) {
	out := newOutcome()
	in, err := arcdPrepare(a, out)
	if err != nil {
		return nil, err
	}
	defer syscall.Munmap(in.plain) // after the server stops; nothing reads it then

	// Set-up: server start, client dials, and the first READ_RANGE,
	// which opens the archive and its footer index. Each start begins
	// from a collected heap, so the previous server's garbage is not
	// charged to it.
	var setups []opTime
	var srv *service.Server
	var clients []*service.Client
	ctx := context.Background()
	for i := 0; i < arcdSetupReps; i++ {
		if srv != nil {
			if err := stopServer(srv, clients); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		d, err := timed(func() (err error) {
			srv, clients, err = startServer(ctx, in)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	defer func() { _ = stopServer(srv, clients) }() // the run's result is already decided
	setupWall, setupCPU := split(setups)
	out.EndToEnd["setup_s"] = median(setupCPU)
	out.Report["setup_cpu_s"] = figure{median(setupCPU), "s", len(setups)}
	out.Report["setup_wall_s"] = figure{median(setupWall), "s", len(setups)}

	sweepArchive(ctx, in, clients[0], out)

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	untraced := runMix(ctx, in, clients, a.seed, a.seconds, nil)
	if out.EndToEnd["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	out.add(untraced.tally)
	w := untraced.window
	out.EndToEnd["cpu_ms_per_op"] = 1e3 * median(w.cpuPerOp)
	out.Report["cpu_ms_per_op_mean"] = figure{1e3 * w.cpu / float64(w.count()), "ms", w.count()}
	out.EndToEnd["stored_per_input_byte"] = float64(w.encOut) / float64(w.encIn)
	out.Report["req_per_s"] = figure{w.rate(), "1/s", w.count()}
	for op, name := range opNames {
		out.Report[name+"_p50_ms"] = figure{1e3 * median(w.lat[op]), "ms", len(w.lat[op])}
		if q, v := tailQuantile(w.lat[op]); q != "" {
			out.Report[name+"_"+q+"_ms"] = figure{1e3 * v, "ms", len(w.lat[op])}
		}
	}
	// Hits, misses and evictions must all occur, or the mix does not
	// test what it claims to. The counts cover the set-up, the sweep and
	// the warm-up too.
	cs := srv.Stats().Cache
	if cs == nil || cs.Hits == 0 || cs.Misses == 0 || cs.Evictions == 0 {
		return nil, fmt.Errorf("the chunk cache saw %+v; the mix needs hits, misses and evictions", cs)
	}
	out.Report["cache_hits"] = figure{float64(cs.Hits), "count", 0}
	out.Report["cache_misses"] = figure{float64(cs.Misses), "count", 0}
	out.Report["cache_evictions"] = figure{float64(cs.Evictions), "count", 0}
	out.Report["range_repairing_reads"] = figure{float64(w.repairing), "count", len(w.lat[opRange])}

	if a.trace {
		t := newTracer()
		traced := runMix(ctx, in, clients, a.seed+1, a.seconds, t)
		out.add(traced.tally)
		out.PerLayer["trace.request_overhead_ratio"] = traced.window.meanLat() / w.meanLat()
		if err := arcdLayers(in, srv, out, []*mixResult{untraced, traced}, t); err != nil {
			return nil, err
		}
		if err := t.writeSpans(filepath.Join(a.outDir, fmt.Sprintf("arcd-mixed-seed%d.json", a.seed))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// arcdPrepare builds every input before any timing: the archive and its
// at-rest damage, the ENCODE/DECODE pool, and the expected answers.
func arcdPrepare(a runArgs, out *outcome) (*arcdInputs, error) {
	rng := rand.New(rand.NewSource(a.seed ^ 0xa2cd))
	field := datasets.Isabel(32, 512, 512, a.seed)
	plain, err := offHeap(field.SizeBytes())
	if err != nil {
		return nil, err
	}
	in := &arcdInputs{dir: filepath.Join(a.work, "root"), plain: plain}
	for i, v := range field.Data {
		binary.LittleEndian.PutUint64(in.plain[8*i:], math.Float64bits(v))
	}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, err
	}

	// The archive writer needs an engine but no trained model: the
	// choice is explicit, so a minimal, uncached training suffices.
	eng, err := arc.InitWithOptions(1, arc.Options{CacheDir: "-", TrainSampleBytes: 4 << 10})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	rs, err := core.ParseConfig("rs-m15")
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	aw, err := eng.NewWriterChoice(&buf, arc.Choice{Config: rs, Threads: 1},
		arc.StreamOptions{ChunkSize: arcdChunkBytes, Indexed: true})
	if err != nil {
		return nil, err
	}
	if _, err := aw.Write(in.plain); err != nil {
		return nil, err
	}
	if err := aw.Close(); err != nil {
		return nil, err
	}
	stored := buf.Bytes()
	if in.chunks, err = parseStream(stored); err != nil {
		return nil, err
	}
	for _, c := range in.chunks {
		if c.Method != methodReedSolomon || c.Param != 15 || c.OrigLen != arcdChunkBytes {
			return nil, fmt.Errorf("archive chunk at %d is %d/%d over %d bytes, want rs-m15 over %d", c.Off, c.Method, c.Param, c.OrigLen, arcdChunkBytes)
		}
	}

	// At-rest damage: a fixed share of chunks, at seeded positions, each
	// lose 1 to m whole devices in one stripe. Counts are spread evenly
	// rather than drawn, so every seed asks for the same repair work.
	in.damage = make([]int, len(in.chunks))
	for k, ci := range rng.Perm(len(in.chunks))[:len(in.chunks)/damagedChunkShare] {
		devs, err := rsDamage(in.chunks[ci:ci+1], 1, 1+k%15, rng)
		if err != nil {
			return nil, err
		}
		smash(stored, devs, rng)
		in.damage[ci] = len(devs)
		in.atRestDamage += len(devs)
	}
	in.cleanAt = -1
	for ci, d := range in.damage {
		if d == 0 {
			in.cleanAt = int64(ci) * arcdChunkBytes
			break
		}
	}
	if err := os.WriteFile(filepath.Join(in.dir, arcdArchiveName), stored, 0o644); err != nil {
		return nil, err
	}
	// The RS kernel replay needs only a few chunks as stored; the rest
	// of the archive is served from the file.
	for ci := 0; ci < rsReplayChunks; ci++ {
		c := in.chunks[ci]
		enc := append([]byte(nil), stored[c.PayloadOff():c.PayloadOff()+int64(c.EncLen)]...)
		in.rsCases = append(in.rsCases, eccCase{in.plain[int64(ci)*arcdChunkBytes : int64(ci+1)*arcdChunkBytes], enc, in.damage[ci]})
	}

	hotRNG := rand.New(rand.NewSource(a.seed ^ 0x407))
	in.hot = hotRNG.Perm(len(in.chunks))

	secded, err := core.ParseConfig("secded64")
	if err != nil {
		return nil, err
	}
	secdedChoice := core.Choice{Config: secded, Threads: 1}
	// Payload sizes are evenly spaced quantiles of the Zipf size model,
	// and flip counts are evenly spread, so every seed sends the same
	// mix; the seed picks the bytes and the flip positions.
	sizes := zipfQuantiles(arcdPoolSize, encodeMin, encodeMax, zipfS)
	for i, n := range sizes {
		off := rng.Intn(len(in.plain) - n)
		it := poolItem{data: append([]byte(nil), in.plain[off:off+n]...)}
		enc, err := arc.EncodeContainer(it.data, secdedChoice)
		if err != nil {
			return nil, err
		}
		it.container = enc.Encoded
		it.damaged = append([]byte(nil), enc.Encoded...)
		cs, err := parseStream(it.damaged)
		if err != nil {
			return nil, err
		}
		bits, err := secdedFlips(cs, 1+i%decodeMaxFlip, rng)
		if err != nil {
			return nil, err
		}
		flipBits(it.damaged, bits)
		it.flips = len(bits)
		in.pool = append(in.pool, it)
	}

	out.Config["archive"] = map[string]any{
		"field": field.Name, "dims": field.Dims, "bytes": len(in.plain), "stored_bytes": len(stored),
		"config": "rs-m15", "chunk_bytes": arcdChunkBytes, "chunks": len(in.chunks),
		"damaged_chunks": len(in.chunks) / damagedChunkShare, "damaged_devices": in.atRestDamage,
	}
	out.Config["server"] = map[string]any{"cache_bytes": arcdCacheBytes, "archive_over_cache": float64(len(in.plain)) / arcdCacheBytes,
		"workers": "GOMAXPROCS", "threads": 1, "window": "default"}
	out.Config["clients"] = map[string]any{"count": arcdClients, "loop": "closed", "warmup_s": arcdWarmup.Seconds()}
	out.Config["mix"] = map[string]any{"read_range": rangeShare, "encode": encodeShare, "decode": 1 - rangeShare - encodeShare,
		"range_bytes": []int{1, rangeMaxBytes}, "range_chunk_zipf_s": zipfS,
		"encode_bytes": []int{sizes[0], sizes[len(sizes)/2], sizes[len(sizes)-1]}, "encode_size_zipf_s": zipfS,
		"encode_config": "secded64", "decode_flips": []int{1, decodeMaxFlip}, "pool": arcdPoolSize}
	out.PerLayer["core.chunks"] = float64(len(in.chunks))
	return in, nil
}

// zipfQuantiles returns n sizes at the evenly spaced quantiles
// (i+0.5)/n of lo + k, where k follows rand.NewZipf(s, 1, hi-lo): the
// distribution service.WorkloadOptions draws payload sizes from.
func zipfQuantiles(n, lo, hi int, s float64) []int {
	cdf := make([]float64, hi-lo+1)
	total := 0.0
	for k := range cdf {
		total += math.Pow(1+float64(k), -s)
		cdf[k] = total
	}
	sizes := make([]int, n)
	k := 0
	for i := range sizes {
		for q := (float64(i) + 0.5) / float64(n) * total; cdf[k] < q; {
			k++
		}
		sizes[i] = lo + k
	}
	return sizes
}

// offHeap maps n zeroed bytes outside the Go heap. The ground truth
// lives there, so that it does not pace the collector and the peak
// resident size moves with the server's own heap.
func offHeap(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// sweepArchive reads every chunk of the archive once through the
// server, with the cache cold for all but the undamaged chunk that the
// set-up reads, and requires exact bytes and a repair report equal to
// the chunk's at-rest damage.
func sweepArchive(ctx context.Context, in *arcdInputs, c *service.Client, out *outcome) {
	for ci, d := range in.damage {
		first := int64(ci) * arcdChunkBytes
		got, rep, err := c.ReadRange(ctx, arcdArchiveName, first, arcdChunkBytes)
		out.Attempted++
		switch {
		case err != nil:
			out.fail("sweep of chunk %d: %v", ci, err)
		case !bytes.Equal(got, in.plain[first:first+arcdChunkBytes]):
			out.fail("sweep of chunk %d returned wrong bytes", ci)
		case rep.CorrectedBlocks != d || rep.DetectedBlocks != d || rep.CorrectedBits != 0:
			out.fail("sweep of chunk %d repaired %+v, damaged %d devices", ci, rep, d)
		default:
			in.atRestRepaired += rep.CorrectedBlocks
		}
	}
}

// startServer starts a server over the archive root, dials the clients
// and performs the first READ_RANGE, which opens the archive.
func startServer(ctx context.Context, in *arcdInputs) (*service.Server, []*service.Client, error) {
	srv := service.New(service.Config{Root: in.dir, CacheBytes: arcdCacheBytes})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	var clients []*service.Client
	for i := 0; i < arcdClients; i++ {
		c, err := service.Dial(ctx, addr.String(), 0)
		if err != nil {
			_ = stopServer(srv, clients) // error path: the dial error wins
			return nil, nil, err
		}
		clients = append(clients, c)
	}
	got, rep, err := clients[0].ReadRange(ctx, arcdArchiveName, in.cleanAt, 4096)
	if err == nil && (!bytes.Equal(got, in.plain[in.cleanAt:in.cleanAt+4096]) || rep != service.Report{}) {
		err = fmt.Errorf("first READ_RANGE of an undamaged chunk returned wrong bytes or repairs %+v", rep)
	}
	if err != nil {
		_ = stopServer(srv, clients) // error path: the read error wins
		return nil, nil, err
	}
	return srv, clients, nil
}

func stopServer(srv *service.Server, clients []*service.Client) error {
	for _, c := range clients {
		_ = c.Close() // the server drains either way
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// window holds the samples of requests that started inside the
// measured interval.
type window struct {
	start, end time.Time
	lat        [numOps][]float64 // seconds
	chunks     []float64         // chunks each range read spans
	repairing  int               // range reads that repaired anything
	encIn      int64             // ENCODE plaintext bytes
	encOut     int64             // ENCODE container bytes
	cpu        float64           // process CPU seconds
	cpuPerOp   []float64         // process CPU seconds per request, one per slice
}

func (w *window) count() int {
	n := 0
	for _, l := range w.lat {
		n += len(l)
	}
	return n
}

func (w *window) rate() float64 { return float64(w.count()) / w.end.Sub(w.start).Seconds() }

func (w *window) meanLat() float64 {
	sum := 0.0
	for _, l := range w.lat {
		for _, v := range l {
			sum += v
		}
	}
	return sum / float64(w.count())
}

// mixResult is one run of the mix: the measured window, plus totals
// over every request sent (warm-up included), for comparison with the
// server's own counters.
type mixResult struct {
	tally
	window     window
	allLatSum  float64
	allCount   int
	flipsSent  int // DECODE flips injected
	flipsFixed int // DECODE flips the server reported repaired
}

// merge folds another client's result into m.
func (m *mixResult) merge(o *mixResult) {
	for op := range m.window.lat {
		m.window.lat[op] = append(m.window.lat[op], o.window.lat[op]...)
	}
	m.window.chunks = append(m.window.chunks, o.window.chunks...)
	m.window.repairing += o.window.repairing
	m.window.encIn += o.window.encIn
	m.window.encOut += o.window.encOut
	if o.window.end.After(m.window.end) {
		m.window.end = o.window.end
	}
	m.allLatSum += o.allLatSum
	m.allCount += o.allCount
	m.add(o.tally)
	m.flipsSent += o.flipsSent
	m.flipsFixed += o.flipsFixed
}

// runMix drives every client for the warm-up plus the measured seconds
// and merges their results. With a tracer, each request is a span.
func runMix(ctx context.Context, in *arcdInputs, clients []*service.Client, seed int64, seconds float64, t *tracer) *mixResult {
	begin := time.Now()
	measureFrom := begin.Add(arcdWarmup)
	stopAt := measureFrom.Add(time.Duration(seconds * float64(time.Second)))
	results := make([]*mixResult, len(clients))
	var done atomic.Int64 // requests completed, for the CPU slices
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *service.Client) { //arcvet:ignore chansafety one goroutine per client, and the client count is a constant
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1009 + int64(i)))
			results[i] = clientLoop(ctx, in, c, rng, measureFrom, stopAt, t, i, &done)
		}(i, c)
	}
	// Process CPU over the window, server and client work together as
	// both run in this process, and per request in one-second slices:
	// the host's interference comes and goes within seconds, and the
	// median slice discounts its bursts.
	time.Sleep(time.Until(measureFrom))
	cpu0 := cpuSeconds()
	c0, n0 := cpu0, done.Load()
	var slices []float64
	for at := measureFrom.Add(cpuSlice); !at.After(stopAt); at = at.Add(cpuSlice) {
		time.Sleep(time.Until(at))
		c, n := cpuSeconds(), done.Load()
		if n > n0 {
			slices = append(slices, (c-c0)/float64(n-n0))
		}
		c0, n0 = c, n
	}
	wg.Wait()
	total := &mixResult{window: window{start: measureFrom, end: measureFrom, cpu: cpuSeconds() - cpu0, cpuPerOp: slices}}
	for _, r := range results {
		total.merge(r)
	}
	if len(slices) == 0 { // a window shorter than one slice
		total.window.cpuPerOp = []float64{total.window.cpu / float64(total.window.count())}
	}
	return total
}

// clientLoop is one closed-loop client: it sends its next request only
// after the previous reply has been checked.
func clientLoop(ctx context.Context, in *arcdInputs, c *service.Client, rng *rand.Rand, measureFrom, stopAt time.Time, t *tracer, id int, done *atomic.Int64) *mixResult {
	res := &mixResult{}
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(in.chunks)-1))
	encodes, decodes := newCycler(len(in.pool), rng), newCycler(len(in.pool), rng)
	for n := 0; ; n++ {
		start := time.Now()
		if !start.Before(stopAt) {
			return res
		}
		var op int
		switch u := rng.Float64(); {
		case u < rangeShare:
			op = opRange
		case u < rangeShare+encodeShare:
			op = opEncode
		default:
			op = opDecode
		}
		sp := t.begin("arcd."+opNames[op], id<<32|n, 0)
		var spanned float64
		var repaired bool
		var encIn, encOut int
		switch op {
		case opRange:
			spanned, repaired = rangeRead(ctx, in, c, rng, zipf, res)
		case opEncode:
			encIn, encOut = encodeReq(ctx, in.pool[encodes.next()], c, res)
		case opDecode:
			decodeReq(ctx, in.pool[decodes.next()], c, res)
		}
		end := time.Now()
		t.end(sp)
		lat := end.Sub(start).Seconds()
		res.Attempted++
		done.Add(1)
		res.allLatSum += lat
		res.allCount++
		if start.Before(measureFrom) {
			continue
		}
		w := &res.window
		w.lat[op] = append(w.lat[op], lat)
		if end.After(w.end) {
			w.end = end
		}
		if op == opRange {
			w.chunks = append(w.chunks, spanned)
			if repaired {
				w.repairing++
			}
		}
		w.encIn += int64(encIn)
		w.encOut += int64(encOut)
	}
}

// cycler walks the pool in a seeded order, so that over a run every
// item is sent about equally often.
type cycler struct {
	order []int
	i     int
}

func newCycler(n int, rng *rand.Rand) *cycler { return &cycler{order: rng.Perm(n)} }

func (c *cycler) next() int {
	v := c.order[c.i%len(c.order)]
	c.i++
	return v
}

// rangeRead reads a range starting in a Zipf-hot chunk and checks bytes
// and repair report; it returns how many chunks the range spans and
// whether the read repaired anything.
func rangeRead(ctx context.Context, in *arcdInputs, c *service.Client, rng *rand.Rand, zipf *rand.Zipf, res *mixResult) (float64, bool) {
	ci := in.hot[zipf.Uint64()]
	first := int64(ci)*arcdChunkBytes + int64(rng.Intn(arcdChunkBytes))
	n := min(1+rng.Int63n(rangeMaxBytes), int64(len(in.plain))-first)
	lo, hi := int(first/arcdChunkBytes), int((first+n-1)/arcdChunkBytes)
	got, rep, err := c.ReadRange(ctx, arcdArchiveName, first, n)
	budget := 0
	for k := lo; k <= hi; k++ {
		budget += in.damage[k]
	}
	switch {
	case err != nil:
		res.fail("read-range %d+%d: %v", first, n, err)
	case !bytes.Equal(got, in.plain[first:first+n]):
		res.fail("read-range %d+%d returned wrong bytes", first, n)
	case rep.CorrectedBits != 0 || rep.DetectedBlocks != rep.CorrectedBlocks || rep.CorrectedBlocks > budget:
		// A cache hit repairs nothing; a miss rebuilds exactly the
		// damaged devices of the chunks it decodes.
		res.fail("read-range %d+%d repaired %+v, covered chunks hold %d damaged devices", first, n, rep, budget)
	}
	return float64(hi - lo + 1), rep.CorrectedBlocks > 0
}

func encodeReq(ctx context.Context, it poolItem, c *service.Client, res *mixResult) (int, int) {
	got, err := c.Encode(ctx, ecc.MethodSECDED, 64, it.data)
	switch {
	case err != nil:
		res.fail("encode %d bytes: %v", len(it.data), err)
	case !bytes.Equal(got, it.container):
		res.fail("encode %d bytes returned a different container", len(it.data))
	}
	return len(it.data), len(got)
}

func decodeReq(ctx context.Context, it poolItem, c *service.Client, res *mixResult) {
	got, rep, err := c.Decode(ctx, it.damaged)
	res.flipsSent += it.flips
	switch {
	case err != nil:
		res.fail("decode %d bytes: %v", len(it.data), err)
	case !bytes.Equal(got, it.data):
		res.fail("decode %d bytes returned wrong bytes", len(it.data))
	case secdedRepaired(arc.Report(rep)) != it.flips:
		res.fail("decode repaired %+v, injected %d flips", rep, it.flips)
	default:
		res.flipsFixed += rep.CorrectedBits
	}
}

// arcdLayers derives the per-layer metrics from the server's own
// counters, the client samples and the ECC kernel replays.
func arcdLayers(in *arcdInputs, srv *service.Server, out *outcome, runs []*mixResult, t *tracer) error {
	st := srv.Stats()
	pl := out.PerLayer
	pl["service.requests"] = float64(st.Requests)
	pl["service.errors"] = float64(st.Errors)
	pl["service.server_p50_ms"] = st.Latency.P50Ms
	pl["service.server_p99_ms"] = st.Latency.P99Ms
	var clientSum float64
	var clientN, flipsSent, flipsFixed int
	var chunks []float64
	for _, r := range runs {
		clientSum += r.allLatSum
		clientN += r.allCount
		flipsSent += r.flipsSent
		flipsFixed += r.flipsFixed
		chunks = append(chunks, r.window.chunks...)
	}
	// The server saw this server's set-up read too; one request in
	// thousands, it is left in both means.
	pl["service.client_minus_server_ms"] = 1e3*clientSum/float64(clientN) - st.Latency.MeanMs
	if st.Cache != nil {
		pl["cache.hit_ratio"] = float64(st.Cache.Hits) / float64(st.Cache.Hits+st.Cache.Misses)
		pl["cache.misses"] = float64(st.Cache.Misses)
		pl["cache.evictions"] = float64(st.Cache.Evictions)
	}
	pl["core.range_chunks_per_read"] = mean(chunks)
	pl["core.corrected_bits"] = float64(st.CorrectedBits)
	pl["core.corrected_blocks"] = float64(st.CorrectedBlocks)
	// Faults with an exact expected repair count: the archive's at-rest
	// damage over the served sweep, and the flips of DECODE requests.
	pl["core.repaired_over_injected"] = float64(in.atRestRepaired+flipsFixed) / float64(in.atRestDamage+flipsSent)
	out.Report["decode_flips_injected"] = figure{float64(flipsSent), "count", 0}
	out.Report["decode_flips_repaired"] = figure{float64(flipsFixed), "count", 0}

	// ECC kernels alone, at the server's one thread per request: SEC-DED
	// over the ENCODE/DECODE pool, rs-m15 over archive chunks as stored.
	var cases []eccCase
	for _, it := range in.pool {
		cases = append(cases, eccCase{it.data, it.damaged[containerOverhead:], it.flips})
	}
	if err := secdedKernel(1, 1).time(cases, t, out); err != nil {
		return err
	}
	return rsKernel(in.chunks[0].DevSize, 1, 1).time(in.rsCases, t, out)
}
