package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/ecc"
	"repro/internal/parallel"
)

// Streaming support: an ARC stream is a sequence of independent
// containers ("chunks"). Each chunk is self-describing, so readers
// need no side-band state, corrupted chunks fail independently, and
// chunk boundaries bound the blast radius of unrecoverable damage.
//
// Chunk independence is also what makes the stream pipelinable. The
// writer, the reader and multi-chunk range reads share one shape: the
// calling goroutine keeps up to Pipeline chunks in flight in a
// parallel.Pipe, submitting until the window is full or input ends,
// then taking the oldest result and writing or delivering it. So the
// caller always drives the underlying io.Writer/io.Reader, and the
// first error in chunk order aborts and drains the pipe. A window of 1
// runs inline on the caller's goroutine. Encoding is deterministic and
// layout never depends on worker count, so output is byte-identical at
// every Pipeline setting.

// maxChunkPayload caps the EncLen a stream reader will allocate,
// so a corrupted-but-CRC-colliding header cannot drive an OOM.
const maxChunkPayload = 1 << 31

// DefaultChunkSize is the ChunkWriter's default chunk payload size.
const DefaultChunkSize = 4 << 20

// StreamOptions tunes the chunked stream codec.
type StreamOptions struct {
	// ChunkSize is the plaintext payload bytes per chunk (<= 0 selects
	// DefaultChunkSize).
	ChunkSize int
	// Pipeline bounds how many chunks may be encoded or decoded
	// concurrently. 1 is strictly sequential (no extra goroutines);
	// <= 0 selects a default bounded by the worker budget. Output
	// bytes are identical either way.
	Pipeline int
	// Indexed appends the container v2 footer — an ECC+CRC-protected
	// chunk index and a replicated trailer — after the chunk stream,
	// enabling random access through RangeReader (see index.go and
	// docs/CONTAINER.md). Readers that stream sequentially skip the
	// footer, so v2 output decodes to the same bytes as v1. Ignored on
	// the read side: streams are self-describing.
	Indexed bool
}

// normalize applies the documented defaults. budget is the relevant
// worker bound (engine threads on the write side, decode workers on
// the read side); <= 0 falls back to GOMAXPROCS.
func (o StreamOptions) normalize(budget int) StreamOptions {
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.Pipeline <= 0 {
		if budget > 0 {
			o.Pipeline = budget
		} else {
			o.Pipeline = runtime.GOMAXPROCS(0)
		}
	}
	return o
}

// codecCache builds-and-caches ecc.Codes keyed by their build inputs.
// Rebuilding a codec per chunk is wasteful (Reed-Solomon builds
// matrices and CRC tables), and every chunk of a homogeneous stream
// shares one header configuration. Codes are stateless and safe for
// concurrent use, so one cache serves all pipeline workers.
type codecCache struct {
	mu     sync.Mutex
	codes  map[codecKey]ecc.Code
	builds int // build count, exposed for tests
}

type codecKey struct {
	cfg     Config
	devSize int
	workers int
}

func (cc *codecCache) get(cfg Config, workers, devSize int) (ecc.Code, error) {
	key := codecKey{cfg: cfg, devSize: devSize, workers: workers}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if code, ok := cc.codes[key]; ok {
		return code, nil
	}
	code, err := cfg.BuildWithDeviceSize(workers, devSize)
	if err != nil {
		return nil, err
	}
	if cc.codes == nil {
		cc.codes = make(map[codecKey]ecc.Code)
	}
	cc.codes[key] = code
	cc.builds++
	return code, nil
}

// chunkScratch is the per-worker scratch (the inline pipe's state when
// Pipeline is 1) a chunk encode/decode reuses across chunks: the codec
// memo skips the shared cache's mutex in steady state, and the
// ecc.Scratch arena holds grow-only codec workspaces (RS stripes,
// interleave transposes). A chunkScratch is owned by exactly one
// goroutine.
type chunkScratch struct {
	memo codecMemo
	ecc  ecc.Scratch
}

// codecMemo caches the last codec a worker resolved. Chunks of a
// homogeneous stream share one header configuration, so after the
// first chunk every lookup is a key compare instead of a mutex-guarded
// map access.
type codecMemo struct {
	key  codecKey
	code ecc.Code
}

func (m *codecMemo) get(cc *codecCache, cfg Config, workers, devSize int) (ecc.Code, error) {
	key := codecKey{cfg: cfg, devSize: devSize, workers: workers}
	if m.code != nil && m.key == key {
		return m.code, nil
	}
	code, err := cc.get(cfg, workers, devSize)
	if err != nil {
		return nil, err
	}
	m.key, m.code = key, code
	return code, nil
}

// ChunkWriter encodes fixed-size chunks of a byte stream with one
// configuration choice and writes the containers to w.
//
// Only Write and Close, on the caller's goroutine, touch w: full
// chunks are submitted to pipe, whose workers protect them
// concurrently, and once pipeline chunks are in flight the oldest is
// written out. Payload and container buffers circulate
// through chunkBufPool, so the steady state allocates nothing per
// chunk.
type ChunkWriter struct {
	eng       *Engine
	w         io.Writer
	choice    Choice
	payload   *chunkBuf // accumulating plaintext chunk
	chunkSize int
	pipeline  int
	inflight  int // chunks submitted to pipe and not yet written
	closed    bool
	err       error
	written   int64
	codecs    codecCache
	pipe      *parallel.Pipe[*chunkBuf, *chunkBuf]

	// v2 index accumulation (nil/inactive unless Indexed).
	indexed  bool
	index    []indexEntry
	nextOff  int64
	origOff  int64
	indexErr error
}

// NewChunkWriter creates a streaming encoder. chunkSize <= 0 selects
// DefaultChunkSize. The configuration choice is made once, up front,
// from the given constraints.
func (e *Engine) NewChunkWriter(w io.Writer, mem, bw float64, res Resiliency, chunkSize int) (*ChunkWriter, error) {
	return e.NewChunkWriterWith(w, mem, bw, res, StreamOptions{ChunkSize: chunkSize})
}

// NewChunkWriterWith is NewChunkWriter with explicit stream options.
func (e *Engine) NewChunkWriterWith(w io.Writer, mem, bw float64, res Resiliency, opts StreamOptions) (*ChunkWriter, error) {
	choice, err := e.Optimizer().Joint(mem, bw, res)
	if err != nil {
		return nil, err
	}
	return e.NewChunkWriterChoice(w, choice, opts)
}

// NewChunkWriterChoice creates a streaming encoder with an explicit
// optimizer choice, bypassing constraint optimization (the streaming
// analog of EncodeWith). It needs no trained engine state.
func (e *Engine) NewChunkWriterChoice(w io.Writer, choice Choice, opts StreamOptions) (*ChunkWriter, error) {
	if _, err := choice.Config.Build(choice.Threads); err != nil {
		return nil, err // reject invalid configurations up front
	}
	opts = opts.normalize(e.maxThreads)
	cw := &ChunkWriter{
		eng:       e,
		w:         w,
		choice:    choice,
		payload:   getChunkBuf(opts.ChunkSize),
		chunkSize: opts.ChunkSize,
		pipeline:  opts.Pipeline,
		indexed:   opts.Indexed,
	}
	cw.payload.b = cw.payload.b[:0]
	cw.pipe = parallel.NewPipeWith(cw.pipeline, cw.pipeline,
		func() *chunkScratch { return new(chunkScratch) },
		func(in *chunkBuf, s *chunkScratch) (*chunkBuf, error) {
			out, err := cw.encodeChunk(in.b, s)
			putChunkBuf(in) // payload consumed; recycle for the next chunk
			return out, err
		})
	return cw, nil
}

// Choice returns the configuration the writer encodes with.
func (cw *ChunkWriter) Choice() Choice { return cw.choice }

// Write implements io.Writer, buffering until a full chunk is ready.
func (cw *ChunkWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	total := 0
	for len(p) > 0 {
		room := cw.chunkSize - len(cw.payload.b)
		n := len(p)
		if n > room {
			n = room
		}
		cw.payload.b = append(cw.payload.b, p[:n]...)
		p = p[n:]
		total += n
		if len(cw.payload.b) == cw.chunkSize {
			if err := cw.flush(); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// encodeChunk protects one chunk payload and wraps it in a container
// drawn from the buffer pool. It is the pipeline worker body, so it
// must be safe to call concurrently (s is the calling worker's private
// scratch); byte layout matches Engine.EncodeWith exactly.
func (cw *ChunkWriter) encodeChunk(data []byte, s *chunkScratch) (*chunkBuf, error) {
	devSize := cw.choice.Config.DeviceSizeFor(len(data))
	code, err := s.memo.get(&cw.codecs, cw.choice.Config, cw.choice.Threads, devSize)
	if err != nil {
		return nil, err
	}
	out := getChunkBuf(ContainerOverheadBytes + code.EncodedSize(len(data)))
	enc := ecc.EncodeTo(code, out.b[ContainerOverheadBytes:], data, &s.ecc)
	if len(enc) > 0 && &enc[0] != &out.b[ContainerOverheadBytes] {
		// A custom Code that ignored dst (or sized its output off
		// EncodedSize): land its output in the container.
		out.b = append(out.b[:ContainerOverheadBytes], enc...)
	}
	h := header{
		Method:  cw.choice.Config.Method,
		Param:   cw.choice.Config.Param,
		DevSize: devSize,
		OrigLen: len(data),
		EncLen:  len(enc),
	}
	marshalHeaderInto(out.b[:ContainerOverheadBytes], h)
	return out, nil
}

// noteChunk records one just-written container in the v2 index.
func (cw *ChunkWriter) noteChunk(container []byte) {
	if !cw.indexed || cw.indexErr != nil {
		return
	}
	origLen := int64(binary.LittleEndian.Uint64(container[14:22]))
	if origLen > maxIndexedChunk {
		// An index entry stores OrigLen in 32 bits; a chunk beyond that
		// cannot be indexed. Surface the failure at Close rather than
		// writing an index that lies.
		cw.indexErr = fmt.Errorf("core: chunk of %d bytes exceeds the indexable maximum (%d)", origLen, maxIndexedChunk)
		return
	}
	cw.index = append(cw.index, indexEntry{
		Off:       cw.nextOff,
		EncLen:    int64(len(container) - ContainerOverheadBytes),
		OrigStart: cw.origOff,
		OrigLen:   origLen,
		HdrCRC:    headerCRC(container),
	})
	cw.nextOff += int64(len(container))
	cw.origOff += origLen
}

// maxIndexedChunk is the largest OrigLen an index entry can record.
const maxIndexedChunk = 1<<32 - 1

// flush submits the buffered chunk to the pipe and starts a fresh
// payload buffer (the submitted one now belongs to the pipe, which
// recycles it after encoding). Once the window is full, the oldest
// chunk is written out, so at most pipeline chunks are in flight.
func (cw *ChunkWriter) flush() error {
	if len(cw.payload.b) == 0 {
		return nil
	}
	if err := cw.pipe.Submit(cw.payload); err != nil {
		return cw.fail(err)
	}
	cw.inflight++
	cw.payload = getChunkBuf(cw.chunkSize)
	cw.payload.b = cw.payload.b[:0]
	if cw.inflight == cw.pipeline {
		return cw.writeOldest()
	}
	return nil
}

// writeOldest takes the oldest in-flight chunk from the pipe and
// writes it to w. The first error, in chunk order, fails the writer.
func (cw *ChunkWriter) writeOldest() error {
	enc, _, err := cw.pipe.Next()
	cw.inflight--
	if err == nil {
		_, err = cw.w.Write(enc.b)
	}
	if err == nil {
		cw.noteChunk(enc.b)
		cw.written += int64(len(enc.b))
	}
	putChunkBuf(enc)
	if err != nil {
		return cw.fail(err)
	}
	return nil
}

// fail records the writer's first error, then cancels and drains the
// pipe so no encode is left in flight. Close joins the workers.
func (cw *ChunkWriter) fail(err error) error {
	cw.err = err
	cw.pipe.Abort()
	for ; cw.inflight > 0; cw.inflight-- {
		enc, _, _ := cw.pipe.Next()
		putChunkBuf(enc)
	}
	return err
}

// Close flushes the final (possibly short) chunk, writes every chunk
// still in flight and joins the pipe's workers; on error they are
// cancelled instead. It never leaks goroutines, and it does not close
// the underlying writer. Close is idempotent in effect: second and
// later calls report the writer as closed.
func (cw *ChunkWriter) Close() error {
	if cw.closed {
		return cw.err
	}
	cw.closed = true
	err := cw.err
	if err == nil {
		err = cw.flush()
	}
	for err == nil && cw.inflight > 0 {
		err = cw.writeOldest()
	}
	cw.pipe.Close()
	cw.pipe.Wait()
	putChunkBuf(cw.payload)
	cw.payload = nil
	if err == nil && cw.indexed {
		err = cw.writeFooter()
	}
	if err != nil {
		cw.err = err
		return err
	}
	cw.err = fmt.Errorf("core: chunk writer is closed")
	return nil
}

// writeFooter appends the v2 index chunk and trailer after every data
// chunk has been written.
func (cw *ChunkWriter) writeFooter() error {
	if cw.indexErr != nil {
		return cw.indexErr
	}
	foot := appendIndexFooter(nil, cw.index, cw.nextOff)
	if _, err := cw.w.Write(foot); err != nil {
		return err
	}
	cw.written += int64(len(foot))
	return nil
}

// BytesWritten returns the encoded bytes written so far. Chunks still
// in flight in the pipeline are not yet counted.
func (cw *ChunkWriter) BytesWritten() int64 { return cw.written }

// ChunkReader decodes a stream of containers, verifying and repairing
// each chunk as it goes.
//
// Only Read, on the caller's goroutine, touches r: it reads encoded
// chunks off r and submits them to pipe until pipeline chunks are in
// flight or the input ends, then delivers the oldest repaired chunk. Payload
// and output buffers circulate through chunkBufPool.
type ChunkReader struct {
	r        io.Reader
	workers  int
	pipeline int
	inflight int   // chunks submitted to pipe and not yet delivered
	inErr    error // how the input ended (io.EOF when cleanly); nil while it lasts
	cur      []byte
	curBuf   *chunkBuf // owner of cur's storage; recycled once drained
	hdr      [ContainerOverheadBytes]byte
	err      error
	closed   bool
	report   Report
	codecs   codecCache
	pipe     *parallel.Pipe[encChunk, decChunk]
}

// encChunk is one still-encoded chunk handed to a decode worker, which
// takes ownership of payload.
type encChunk struct {
	h       header
	payload *chunkBuf
}

// decChunk is one decoded chunk plus its repair statistics. data is
// nil when decoding failed before producing output.
type decChunk struct {
	data *chunkBuf
	rep  ecc.Report
}

// Report aggregates repair statistics over all chunks read.
type Report struct {
	Chunks          int
	DetectedBlocks  int
	CorrectedBlocks int
	CorrectedBits   int
}

// NewChunkReader creates a streaming decoder over r.
func NewChunkReader(r io.Reader, workers int) *ChunkReader {
	return NewChunkReaderWith(r, workers, StreamOptions{})
}

// NewChunkReaderWith is NewChunkReader with explicit stream options
// (ChunkSize is ignored on the read side: chunks are self-describing).
func NewChunkReaderWith(r io.Reader, workers int, opts StreamOptions) *ChunkReader {
	opts = opts.normalize(workers)
	cr := &ChunkReader{r: r, workers: workers, pipeline: opts.Pipeline}
	cr.pipe = parallel.NewPipeWith(cr.pipeline, cr.pipeline,
		func() *chunkScratch { return new(chunkScratch) },
		cr.decodeChunk)
	return cr
}

// Report returns the accumulated repair statistics.
func (cr *ChunkReader) Report() Report { return cr.report }

// Read implements io.Reader. The first error in chunk order wins:
// every chunk before it is delivered intact, and the pipe shuts down
// without leaking goroutines.
func (cr *ChunkReader) Read(p []byte) (int, error) {
	for len(cr.cur) == 0 {
		if cr.curBuf != nil {
			// The previous chunk is fully delivered; recycle its buffer
			// before producing the next one.
			putChunkBuf(cr.curBuf)
			cr.curBuf = nil
		}
		if cr.err != nil {
			return 0, cr.err
		}
		if err := cr.next(); err != nil {
			cr.err = err
			cr.shutdown()
			return 0, err
		}
	}
	n := copy(p, cr.cur)
	cr.cur = cr.cur[n:]
	return n, nil
}

// Close releases the reader without requiring a full drain: in-flight
// decodes are cancelled and joined. It does not close the underlying
// reader. Reads after Close fail.
func (cr *ChunkReader) Close() error {
	if cr.closed {
		return nil
	}
	cr.closed = true
	cr.cur = nil
	putChunkBuf(cr.curBuf)
	cr.curBuf = nil
	cr.shutdown()
	if cr.err == nil {
		cr.err = fmt.Errorf("core: chunk reader is closed")
	}
	return nil
}

// next fills the window from r, then takes the oldest decoded chunk
// into cr.cur. Once the input has ended and the window is empty, it
// returns how the input ended.
func (cr *ChunkReader) next() error {
	for cr.inErr == nil && cr.inflight < cr.pipeline {
		c, err := cr.readChunk()
		if err == nil {
			err = cr.pipe.Submit(c)
		}
		if err != nil {
			cr.inErr = err
			break
		}
		cr.inflight++
	}
	if cr.inflight == 0 {
		return cr.inErr
	}
	out, _, err := cr.pipe.Next()
	cr.inflight--
	cr.report.Chunks++
	cr.report.DetectedBlocks += out.rep.DetectedBlocks
	cr.report.CorrectedBlocks += out.rep.CorrectedBlocks
	cr.report.CorrectedBits += out.rep.CorrectedBits
	if err != nil {
		putChunkBuf(out.data)
		return fmt.Errorf("chunk %d: %w", cr.report.Chunks, err)
	}
	cr.cur = out.data.b
	cr.curBuf = out.data
	return nil
}

// decodeChunk is the pipe's worker body: verify and repair one chunk
// into a pooled output buffer, consuming (and recycling) the encoded
// payload. An ecc error (e.g. uncorrectable damage) is returned
// alongside the best-effort statistics.
func (cr *ChunkReader) decodeChunk(c encChunk, s *chunkScratch) (dec decChunk, err error) {
	// Same boundary as decodeContainer: a corrupted chunk header must
	// surface as an error from the pipeline, never panic a worker.
	defer func() {
		if p := recover(); p != nil {
			dec, err = decChunk{}, fmt.Errorf("%w: decoder panic: %v", ErrContainer, p)
		}
	}()
	code, err := s.memo.get(&cr.codecs, c.h.config(), cr.workers, c.h.DevSize)
	if err != nil {
		putChunkBuf(c.payload)
		return decChunk{}, fmt.Errorf("%w: %v", ErrContainer, err)
	}
	out := getChunkBuf(c.h.OrigLen)
	data, rep, derr := ecc.DecodeTo(code, out.b, c.payload.b, c.h.OrigLen, &s.ecc)
	putChunkBuf(c.payload)
	if data == nil {
		putChunkBuf(out)
		return decChunk{rep: rep}, derr
	}
	// data aliases out.b whenever the code honored dst (all built-ins
	// do); adopting it keeps the right storage circulating either way.
	out.b = data
	return decChunk{data: out, rep: rep}, derr
}

// readChunk reads one encoded container (header + payload) off the
// underlying reader into a pooled payload buffer. io.EOF at a chunk
// boundary is the clean end.
func (cr *ChunkReader) readChunk() (encChunk, error) {
	if _, err := io.ReadFull(cr.r, cr.hdr[:]); err != nil {
		if err == io.EOF {
			return encChunk{}, io.EOF // clean end at a chunk boundary
		}
		return encChunk{}, fmt.Errorf("%w: truncated chunk header: %v", ErrContainer, err)
	}
	h, err := unmarshalHeader(cr.hdr[:])
	if err != nil {
		return encChunk{}, err
	}
	if h.Method == indexMethod {
		// The v2 footer: data is over. Consume the index payload and
		// trailer so a caller layering more reads on the same stream
		// lands past the footer, then report the clean end.
		if _, err := io.CopyN(io.Discard, cr.r, int64(h.EncLen)); err == nil {
			_, _ = io.CopyN(io.Discard, cr.r, TrailerBytes) // best-effort: a short trailer changes nothing already delivered
		}
		return encChunk{}, io.EOF
	}
	if h.EncLen < 0 || h.EncLen > maxChunkPayload {
		return encChunk{}, fmt.Errorf("%w: implausible chunk payload %d", ErrContainer, h.EncLen)
	}
	pb := getChunkBuf(0)
	pb.b, err = readCappedInto(cr.r, pb.b, h.EncLen)
	if err != nil {
		putChunkBuf(pb)
		return encChunk{}, fmt.Errorf("%w: truncated chunk payload: %v", ErrContainer, err)
	}
	return encChunk{h: h, payload: pb}, nil
}

// directReadCap is the largest chunk payload readCappedInto pre-sizes
// in a single allocation; larger claims grow geometrically as bytes
// actually arrive.
const directReadCap = 1 << 20

// readCappedInto reads exactly n bytes from r, reusing dst's storage
// when possible. Pre-sizing a fresh buffer from the header would let a
// forged (CRC-colliding) EncLen allocate up to maxChunkPayload from a
// short stream; growing as data arrives keeps the cost proportional to
// the bytes the reader really delivers. A pooled dst that already paid
// for n bytes in an earlier chunk is reused directly — that grants a
// forged length nothing new.
func readCappedInto(r io.Reader, dst []byte, n int) ([]byte, error) {
	if n <= directReadCap || cap(dst) >= n {
		buf := growTo(dst, n)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf := growTo(dst, directReadCap)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	for len(buf) < n {
		grown := make([]byte, min(len(buf)*2, n))
		copy(grown, buf)
		if _, err := io.ReadFull(r, grown[len(buf):]); err != nil {
			return nil, err
		}
		buf = grown
	}
	return buf, nil
}

// shutdown cancels the pipe, recycles every decoded-but-undelivered
// chunk and joins the workers. It is idempotent.
func (cr *ChunkReader) shutdown() {
	cr.pipe.Abort()
	cr.pipe.Close()
	for ; cr.inflight > 0; cr.inflight-- {
		out, _, _ := cr.pipe.Next()
		putChunkBuf(out.data)
	}
	cr.pipe.Wait()
}

// ChunkInfo summarizes one container of a stream without decoding its
// payload.
type ChunkInfo struct {
	Config  Config
	DevSize int
	OrigLen int
	EncLen  int
}

// InspectStream walks a stream (single container or chunked), parsing
// headers and skipping payloads. It returns per-chunk metadata.
func InspectStream(r io.Reader) ([]ChunkInfo, error) {
	var infos []ChunkInfo
	hdr := make([]byte, ContainerOverheadBytes)
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			if err == io.EOF {
				return infos, nil
			}
			return infos, fmt.Errorf("%w: truncated header after %d chunk(s): %v", ErrContainer, len(infos), err)
		}
		h, err := unmarshalHeader(hdr)
		if err != nil {
			return infos, err
		}
		if h.Method == indexMethod {
			// v2 footer: skip the index payload and trailer; the chunk
			// walk is complete.
			if _, err := io.CopyN(io.Discard, r, int64(h.EncLen)); err == nil {
				_, _ = io.CopyN(io.Discard, r, TrailerBytes) // best-effort, as in readChunk
			}
			return infos, nil
		}
		if h.EncLen > maxChunkPayload {
			return infos, fmt.Errorf("%w: implausible chunk payload %d", ErrContainer, h.EncLen)
		}
		if _, err := io.CopyN(io.Discard, r, int64(h.EncLen)); err != nil {
			return infos, fmt.Errorf("%w: truncated payload: %v", ErrContainer, err)
		}
		infos = append(infos, ChunkInfo{
			Config:  h.config(),
			DevSize: h.DevSize,
			OrigLen: h.OrigLen,
			EncLen:  h.EncLen,
		})
	}
}
