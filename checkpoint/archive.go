package checkpoint

// Multi-field archives: real simulation checkpoints carry many named
// variables (pressure, temperature, velocity components, ...). An
// Archive packs any number of named fields — each with its own
// compressor configuration — into a single ARC-protected stream.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	arc "repro"
	"repro/internal/pressio"
)

const (
	archiveMagic   = "ACKA"
	archiveVersion = 1
	// maxArchiveFields bounds header-driven allocations.
	maxArchiveFields = 1 << 16
)

// ArchiveWriter accumulates named fields and writes them as one
// protected stream.
type ArchiveWriter struct {
	fields []archiveField
}

type archiveField struct {
	name       string
	meta       fieldMeta
	compressed []byte
}

// NewArchiveWriter creates an empty archive.
func NewArchiveWriter() *ArchiveWriter { return &ArchiveWriter{} }

// Add compresses a field under the given per-field options and queues
// it. Field names must be unique and at most 255 bytes.
func (aw *ArchiveWriter) Add(name string, data []float64, dims []int, opts Options) error {
	if name == "" || len(name) > 255 {
		return fmt.Errorf("checkpoint: invalid field name %q", name)
	}
	for _, f := range aw.fields {
		if f.name == name {
			return fmt.Errorf("checkpoint: duplicate field %q", name)
		}
	}
	opts = opts.withDefaults()
	comp, err := pressio.New(opts.Compressor, opts.Bound)
	if err != nil {
		return err
	}
	compressed, err := comp.Compress(data, dims)
	if err != nil {
		return fmt.Errorf("checkpoint: field %q: %w", name, err)
	}
	aw.fields = append(aw.fields, archiveField{
		name:       name,
		meta:       fieldMeta{opts.Compressor, opts.Bound, append([]int(nil), dims...)},
		compressed: compressed,
	})
	return nil
}

// Fields returns the names queued so far, in insertion order.
func (aw *ArchiveWriter) Fields() []string {
	out := make([]string, len(aw.fields))
	for i, f := range aw.fields {
		out[i] = f.name
	}
	return out
}

// WriteTo protects the archive with ARC under the given constraints
// and writes it to w. The archive (including all metadata) travels
// inside the ARC stream.
func (aw *ArchiveWriter) WriteTo(w io.Writer, a *arc.ARC, mem, bw float64, res arc.Resiliency, chunkBytes int) error {
	payload := append([]byte(archiveMagic), archiveVersion)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(aw.fields)))
	for _, f := range aw.fields {
		payload = appendStr(payload, f.name)
		var err error
		if payload, err = appendMeta(payload, f.meta); err != nil {
			return err
		}
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(f.compressed)))
		payload = append(payload, f.compressed...)
	}
	pw, err := a.NewWriter(w, mem, bw, res, chunkBytes)
	if err != nil {
		return err
	}
	if _, err := pw.Write(payload); err != nil {
		return err
	}
	return pw.Close()
}

// ArchiveField is one loaded field.
type ArchiveField struct {
	Name       string
	Compressor string
	Bound      float64
	Dims       []int
	Data       []float64
}

// Archive is a loaded multi-field checkpoint.
type Archive struct {
	Fields  []ArchiveField
	Repairs arc.StreamReport
}

// Get returns a field by name (nil when absent).
func (ar *Archive) Get(name string) *ArchiveField {
	for i := range ar.Fields {
		if ar.Fields[i].Name == name {
			return &ar.Fields[i]
		}
	}
	return nil
}

// LoadArchive reads an archive from r, repairing soft errors through
// ARC and decompressing every field.
func LoadArchive(r io.Reader, workers int) (*Archive, error) {
	pr := arc.NewReader(r, workers)
	payload, err := io.ReadAll(pr)
	if err != nil {
		return nil, err
	}
	rd := bytes.NewReader(payload)
	hdr := make([]byte, len(archiveMagic)+1)
	if _, err := io.ReadFull(rd, hdr); err != nil || string(hdr[:len(archiveMagic)]) != archiveMagic {
		return nil, fmt.Errorf("%w: bad archive magic", ErrFormat)
	}
	if hdr[len(archiveMagic)] != archiveVersion {
		return nil, fmt.Errorf("%w: unsupported archive version %d", ErrFormat, hdr[len(archiveMagic)])
	}
	var scratch [4]byte
	if _, err := io.ReadFull(rd, scratch[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated field count", ErrFormat)
	}
	count := int(binary.LittleEndian.Uint32(scratch[:]))
	if count < 0 || count > maxArchiveFields {
		return nil, fmt.Errorf("%w: implausible field count %d", ErrFormat, count)
	}
	ar := &Archive{Repairs: pr.Report()}
	for i := 0; i < count; i++ {
		name, err := readStr(rd)
		if err != nil {
			return nil, fmt.Errorf("%w: field %d name", ErrFormat, i)
		}
		meta, err := readMeta(rd)
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", name, err)
		}
		if _, err := io.ReadFull(rd, scratch[:]); err != nil {
			return nil, fmt.Errorf("%w: field %q length", ErrFormat, name)
		}
		clen := int(binary.LittleEndian.Uint32(scratch[:]))
		if clen < 0 || clen > rd.Len() {
			return nil, fmt.Errorf("%w: field %q length %d", ErrFormat, name, clen)
		}
		compressed := make([]byte, clen)
		if _, err := io.ReadFull(rd, compressed); err != nil {
			return nil, fmt.Errorf("%w: field %q payload", ErrFormat, name)
		}
		comp, err := pressio.New(meta.compressor, meta.bound)
		if err != nil {
			return nil, fmt.Errorf("%w: field %q: %v", ErrFormat, name, err)
		}
		data, gotDims, err := comp.Decompress(compressed)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: field %q: %w", name, err)
		}
		ar.Fields = append(ar.Fields, ArchiveField{
			Name:       name,
			Compressor: meta.compressor,
			Bound:      meta.bound,
			Dims:       gotDims,
			Data:       data,
		})
	}
	return ar, nil
}
