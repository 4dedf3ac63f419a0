package analysis_test

import (
	"testing"
)

// integrityFlowFixture seeds the three contract violations
// integrityflow exists to catch — an unverified escape through an
// exported return, a discarded repair report, and a cache insert ahead
// of any CRC — plus the sanitizer paths that must stay quiet.
var integrityFlowFixture = map[string]string{"p/p.go": `package p

import (
	"errors"
	"hash/crc32"
	"io"
)

// ---- exported-return sink ----

func ReadRaw(r io.ReaderAt) ([]byte, error) {
	buf := make([]byte, 16)
	if _, err := r.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	return buf, nil // want integrityflow
}

func ReadVerified(r io.ReaderAt, sum uint32) ([]byte, error) {
	buf := make([]byte, 16)
	if _, err := r.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(buf) != sum {
		return nil, errors.New("checksum mismatch")
	}
	return buf, nil
}

func ReadDecoded(r io.ReaderAt) ([]byte, error) {
	raw := make([]byte, 16)
	if _, err := r.ReadAt(raw, 0); err != nil {
		return nil, err
	}
	out, err := decodePayload(raw)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func decodePayload(b []byte) ([]byte, error) {
	if len(b) == 0 {
		return nil, errors.New("empty")
	}
	return b, nil
}

// ---- fact propagation across helpers ----

func fetchRaw(r io.ReaderAt) []byte {
	buf := make([]byte, 8)
	if _, err := r.ReadAt(buf, 0); err != nil {
		return nil
	}
	return buf
}

func Fetch(r io.ReaderAt) []byte {
	return fetchRaw(r) // want integrityflow
}

func checkCRC(b []byte, sum uint32) error {
	if crc32.ChecksumIEEE(b) != sum {
		return errors.New("checksum mismatch")
	}
	return nil
}

func ReadChecked(r io.ReaderAt, sum uint32) ([]byte, error) {
	buf := make([]byte, 16)
	if _, err := r.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	if err := checkCRC(buf, sum); err != nil {
		return nil, err
	}
	return buf, nil
}

// ---- discarded verification results ----

type Report struct{ Corrected int }

func DecodeTo(dst, src []byte) ([]byte, Report, error) {
	copy(dst, src)
	return dst, Report{}, nil
}

func Restore(dst, src []byte) ([]byte, error) {
	out, _, err := DecodeTo(dst, src) // want integrityflow
	if err != nil {
		return nil, err
	}
	return out, nil
}

func Restored(dst, src []byte) ([]byte, Report, error) {
	return DecodeTo(dst, src)
}

func parsePair(b []byte) ([]byte, error) {
	if len(b) == 0 {
		return nil, errors.New("empty")
	}
	return b, nil
}

func UseParsed(b []byte) []byte {
	out, _ := parsePair(b) // want integrityflow
	return out
}

// ---- cache-insert sink ----

type blockCache struct{}

func (c *blockCache) GetOrLoad(k string, load func() ([]byte, error)) ([]byte, error) {
	return load()
}

func (c *blockCache) Put(k string, v []byte) {}

func CachedRead(c *blockCache, r io.ReaderAt) ([]byte, error) {
	return c.GetOrLoad("k", func() ([]byte, error) {
		buf := make([]byte, 8)
		if _, err := r.ReadAt(buf, 0); err != nil {
			return nil, err
		}
		return buf, nil // want integrityflow
	})
}

func StoreRaw(c *blockCache, r io.ReaderAt) error {
	buf := make([]byte, 8)
	if _, err := r.ReadAt(buf, 0); err != nil {
		return err
	}
	c.Put("k", buf) // want integrityflow
	return nil
}

func CachedChecked(c *blockCache, r io.ReaderAt, sum uint32) ([]byte, error) {
	return c.GetOrLoad("k", func() ([]byte, error) {
		buf := make([]byte, 8)
		if _, err := r.ReadAt(buf, 0); err != nil {
			return nil, err
		}
		if crc32.ChecksumIEEE(buf) != sum {
			return nil, errors.New("checksum mismatch")
		}
		return buf, nil
	})
}

// ---- response-payload sink; wire class ----

type Frame struct{ Payload []byte }

type rangeResponse struct{ payload []byte }

func buildResponse(f *Frame, resp *rangeResponse) {
	resp.payload = f.Payload // want integrityflow
}

func RequestPayload(f *Frame) []byte {
	return f.Payload // wire bytes may cross an exported API pre-decode
}
`}

func TestIntegrityFlow(t *testing.T) {
	root := writeFixture(t, integrityFlowFixture)
	checkMarkers(t, root, integrityFlowFixture, analyze(t, root))
}
