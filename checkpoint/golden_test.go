package checkpoint

// Golden payload bytes: the plaintext Save and ArchiveWriter.WriteTo
// put inside the ARC stream. Its metadata layout is a storage format
// (and the benchmark harness rebuilds the ACKP layout), so it must not
// drift. Each case pins the metadata prefix in full and the whole
// payload, compressed field bytes included, by a sha256 prefix.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	arc "repro"
)

// goldenField is a tiny deterministic field.
func goldenField(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i%7)*0.25 - float64(i%3)
	}
	return out
}

// protectedPayload decodes an ARC stream back to the plaintext it
// protects.
func protectedPayload(t *testing.T, stream []byte) []byte {
	t.Helper()
	payload, err := io.ReadAll(arc.NewReader(bytes.NewReader(stream), 1))
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// metaAt pins the metadata bytes expected at one payload offset.
type metaAt struct {
	off int
	hex string
}

func checkGoldenPayload(t *testing.T, payload []byte, digest string, metas ...metaAt) {
	t.Helper()
	for _, m := range metas {
		end := min(len(payload), m.off+len(m.hex)/2)
		if got := hex.EncodeToString(payload[min(m.off, end):end]); got != m.hex {
			t.Errorf("metadata bytes at %d drifted:\n got %s\nwant %s", m.off, got, m.hex)
		}
	}
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:8]); got != digest {
		t.Errorf("payload digest %s, want %s (%d bytes)", got, digest, len(payload))
	}
}

func TestGoldenSavePayload(t *testing.T) {
	a := testARC(t)
	var buf bytes.Buffer
	if _, err := Save(&buf, a, goldenField(24), []int{4, 6}, Options{Compressor: "SZ-ABS", Bound: 0.01}); err != nil {
		t.Fatal(err)
	}
	checkGoldenPayload(t, protectedPayload(t, buf.Bytes()), "989cb464c8545149",
		// "ACKP", version 1, "SZ-ABS", bound 0.01, dims {4, 6}.
		metaAt{0, "41434b50" + "01" + "06535a2d414253" + "7b14ae47e17a843f" + "02" + "04000000" + "06000000"})
}

func TestGoldenArchivePayload(t *testing.T) {
	a := testARC(t)
	aw := NewArchiveWriter()
	if err := aw.Add("t", goldenField(24), []int{4, 6}, Options{Compressor: "SZ-ABS", Bound: 0.01}); err != nil {
		t.Fatal(err)
	}
	if err := aw.Add("uv", goldenField(64), []int{4, 4, 4}, Options{Compressor: "ZFP-ACC", Bound: 0.5}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := aw.WriteTo(&buf, a, arc.AnyMem, arc.AnyBW, arc.WithErrorsPerMB(1), 0); err != nil {
		t.Fatal(err)
	}
	checkGoldenPayload(t, protectedPayload(t, buf.Bytes()), "5aa1f48e9d009da7",
		// "ACKA", version 1, 2 fields; field "t": "SZ-ABS", bound 0.01,
		// dims {4, 6}, 145 compressed bytes.
		metaAt{0, "41434b41" + "01" + "02000000" + "0174" + "06535a2d414253" + "7b14ae47e17a843f" + "02" + "04000000" + "06000000" + "91000000"},
		// Field "uv", after those 145 bytes: "ZFP-ACC", bound 0.5,
		// dims {4, 4, 4}, 86 compressed bytes.
		metaAt{184, "027576" + "075a46502d414343" + "000000000000e03f" + "03" + "04000000" + "04000000" + "04000000" + "56000000"})
}
