// Package checkpoint combines the repository's two layers into the
// paper's end-to-end use case: lossy-compressed, ARC-protected
// checkpoints of floating-point fields. Save compresses a field with a
// chosen compressor configuration and wraps the result (plus the
// metadata needed to reverse it) in an ARC stream; Load repairs any
// soft errors accumulated at rest, then decompresses.
//
// Everything in the checkpoint — including its own metadata header —
// travels inside the ARC stream, so there is no unprotected byte in
// the file.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	arc "repro"
	"repro/internal/pressio"
)

const (
	magic   = "ACKP"
	version = 1
)

// ErrFormat reports a stream that is not a checkpoint (or has a
// corrupted header beyond ARC's repair).
var ErrFormat = errors.New("checkpoint: invalid format")

// Options configures Save.
type Options struct {
	// Compressor names the lossy configuration (a pressio name:
	// SZ-ABS, SZ-PWREL, SZ-PSNR, ZFP-ACC, ZFP-Rate). Empty selects
	// SZ-ABS.
	Compressor string
	// Bound is the compressor's error-bounding parameter (0 selects
	// 1e-3 absolute).
	Bound float64
	// Mem, BW, Resiliency are ARC's constraints (zero values lift
	// memory/throughput; Resiliency zero value = ARC_ANY_ECC).
	Mem        float64
	BW         float64
	Resiliency arc.Resiliency
	// ChunkBytes sizes the ARC stream chunks (0 = default).
	ChunkBytes int
}

func (o Options) withDefaults() Options {
	if o.Compressor == "" {
		o.Compressor = "SZ-ABS"
	}
	if o.Bound == 0 {
		o.Bound = 1e-3
	}
	if o.Mem == 0 {
		o.Mem = arc.AnyMem
	}
	return o
}

// Info describes a saved or loaded checkpoint.
type Info struct {
	Compressor      string
	Bound           float64
	Dims            []int
	Elements        int
	CompressedBytes int
	// Choice is the ECC configuration ARC selected (Save only).
	Choice arc.Choice
	// Repairs aggregates ARC's repair report (Load only).
	Repairs arc.StreamReport
}

// Save compresses data (row-major, dims as in the compressors) and
// writes a protected checkpoint to w.
func Save(w io.Writer, a *arc.ARC, data []float64, dims []int, opts Options) (*Info, error) {
	opts = opts.withDefaults()
	comp, err := pressio.New(opts.Compressor, opts.Bound)
	if err != nil {
		return nil, err
	}
	compressed, err := comp.Compress(data, dims)
	if err != nil {
		return nil, err
	}
	payload, err := appendMeta(append([]byte(magic), version), fieldMeta{opts.Compressor, opts.Bound, dims})
	if err != nil {
		return nil, err
	}
	payload = append(payload, compressed...)

	aw, err := a.NewWriter(w, opts.Mem, opts.BW, opts.Resiliency, opts.ChunkBytes)
	if err != nil {
		return nil, err
	}
	if _, err := aw.Write(payload); err != nil {
		return nil, err
	}
	if err := aw.Close(); err != nil {
		return nil, err
	}
	return &Info{
		Compressor:      opts.Compressor,
		Bound:           opts.Bound,
		Dims:            append([]int(nil), dims...),
		Elements:        len(data),
		CompressedBytes: len(compressed),
		Choice:          aw.Choice(),
	}, nil
}

// Load reads a checkpoint from r, repairing soft errors through ARC,
// and decompresses the field. workers bounds decode parallelism.
func Load(r io.Reader, workers int) ([]float64, []int, *Info, error) {
	ar := arc.NewReader(r, workers)
	payload, err := io.ReadAll(ar)
	if err != nil {
		return nil, nil, nil, err
	}
	rd := bytes.NewReader(payload)
	hdr := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(rd, hdr); err != nil || string(hdr[:len(magic)]) != magic {
		return nil, nil, nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if hdr[len(magic)] != version {
		return nil, nil, nil, fmt.Errorf("%w: unsupported version %d", ErrFormat, hdr[len(magic)])
	}
	meta, err := readMeta(rd)
	if err != nil {
		return nil, nil, nil, err
	}
	compressed := payload[len(payload)-rd.Len():]
	comp, err := pressio.New(meta.compressor, meta.bound)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	data, gotDims, err := comp.Decompress(compressed)
	if err != nil {
		return nil, nil, nil, err
	}
	info := &Info{
		Compressor:      meta.compressor,
		Bound:           meta.bound,
		Dims:            gotDims,
		Elements:        len(data),
		CompressedBytes: len(compressed),
		Repairs:         ar.Report(),
	}
	return data, gotDims, info, nil
}

// fieldMeta is what reverses one compressed field: the compressor
// configuration and the field's dims.
type fieldMeta struct {
	compressor string
	bound      float64
	dims       []int
}

// appendMeta appends m as Save and ArchiveWriter.WriteTo lay it out:
// the compressor name behind a one-byte length, the bound's float64
// bits, then a one-byte dim count and each dim, little-endian.
func appendMeta(b []byte, m fieldMeta) ([]byte, error) {
	if len(m.compressor) > 255 {
		return nil, fmt.Errorf("checkpoint: compressor name too long")
	}
	b = appendStr(b, m.compressor)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.bound))
	b = append(b, byte(len(m.dims)))
	for _, d := range m.dims {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	return b, nil
}

// readMeta parses what appendMeta wrote. A field has 1 to 3 dims.
func readMeta(rd *bytes.Reader) (fieldMeta, error) {
	var m fieldMeta
	var err error
	if m.compressor, err = readStr(rd); err != nil {
		return m, fmt.Errorf("%w: truncated compressor name", ErrFormat)
	}
	var scratch [8]byte
	if _, err := io.ReadFull(rd, scratch[:]); err != nil {
		return m, fmt.Errorf("%w: truncated bound", ErrFormat)
	}
	m.bound = math.Float64frombits(binary.LittleEndian.Uint64(scratch[:]))
	nd, err := rd.ReadByte()
	if err != nil || nd < 1 || nd > 3 {
		return m, fmt.Errorf("%w: bad dims", ErrFormat)
	}
	m.dims = make([]int, nd)
	for i := range m.dims {
		if _, err := io.ReadFull(rd, scratch[:4]); err != nil {
			return m, fmt.Errorf("%w: truncated dims", ErrFormat)
		}
		m.dims[i] = int(binary.LittleEndian.Uint32(scratch[:4]))
	}
	return m, nil
}

// appendStr appends s (at most 255 bytes) behind a one-byte length.
func appendStr(b []byte, s string) []byte {
	return append(append(b, byte(len(s))), s...)
}

// readStr reads a string appendStr wrote.
func readStr(rd *bytes.Reader) (string, error) {
	n, err := rd.ReadByte()
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(rd, b); err != nil {
		return "", err
	}
	return string(b), nil
}
