package zfp

// Golden ZFP streams: the compressed bytes of every mode over 1D, 2D
// and 3D fields, the decoded field of each stream, of each stream with
// seeded bit flips, and of one truncated stream and one progressive
// decode. The stream is a storage format and the fault-injection
// experiments depend on exactly how a damaged stream decodes, so none
// of these may drift when the coder is rewritten.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// goldenFieldZFP builds a deterministic field from additions of seeded
// random steps only (no transcendental functions or fusable
// multiply-adds), so its bits are the same on every platform. It is a
// random walk along the fastest axis plus per-row offsets, with the
// first zeroLen values forced to zero so some blocks take the all-zero
// path.
func goldenFieldZFP(dims []int, seed int64, zeroLen int) []float64 {
	n := 1
	for _, d := range dims {
		n *= d
	}
	rng := rand.New(rand.NewSource(seed))
	last := dims[len(dims)-1]
	out := make([]float64, n)
	var walk, row float64
	for i := range out {
		if i%last == 0 {
			row += rng.Float64() - 0.5
			walk = row
		}
		walk += rng.Float64() - 0.5
		out[i] = walk
	}
	for i := 0; i < zeroLen && i < n; i++ {
		out[i] = 0
	}
	return out
}

// fieldDigest hashes a decoded field (or the error that replaced it)
// to a short hex string.
func fieldDigest(vals []float64, err error) string {
	if err != nil {
		return "err: " + err.Error()
	}
	b := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return bytesDigest(b)
}

func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// flipPayload returns a copy of buf with nflips seeded bit flips in the
// bytes after the stream header.
func flipPayload(buf []byte, headerLen, nflips int, seed int64) []byte {
	out := append([]byte(nil), buf...)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nflips; i++ {
		bit := rng.Intn((len(out) - headerLen) * 8)
		out[headerLen+bit/8] ^= 1 << uint(bit%8)
	}
	return out
}

type goldenZFPCase struct {
	name    string
	dims    []int
	zeroLen int
	opts    Options
}

func goldenZFPCases() []goldenZFPCase {
	shapes := []struct {
		tag     string
		dims    []int
		zeroLen int
	}{
		{"1d", []int{37}, 8},
		{"2d", []int{13, 22}, 2 * 22},
		{"3d", []int{9, 6, 11}, 4 * 6 * 11},
		{"3d8", []int{8, 8, 8}, 0},
	}
	modes := []struct {
		tag  string
		opts Options
	}{
		{"rate8", Options{Mode: ModeRate, Param: 8}},
		{"rate16", Options{Mode: ModeRate, Param: 16}},
		{"acc", Options{Mode: ModeAccuracy, Param: 1e-3}},
		{"prec", Options{Mode: ModePrecision, Param: 20}},
	}
	var cases []goldenZFPCase
	for _, s := range shapes {
		for _, m := range modes {
			cases = append(cases, goldenZFPCase{s.tag + "/" + m.tag, s.dims, s.zeroLen, m.opts})
		}
	}
	return cases
}

// goldenZFPDigests maps "<case>/<artifact>" to its digest. Artifacts:
// stream (compressed bytes), decoded, flip<seed> (decode after 3
// seeded payload bit flips), trunc (decode with the last quarter of the
// payload cut off), prog6 (rate streams only: DecompressProgressive
// with 6 planes).
var goldenZFPDigests = map[string]string{
	"1d/acc/decoded":     "5db356bf809bcab8",
	"1d/acc/flip1":       "err: zfp: corrupt stream: truncated plane",
	"1d/acc/flip2":       "8a9a19b1ff657b49",
	"1d/acc/flip3":       "71bf8e81ea2bac69",
	"1d/acc/stream":      "007291b24215314b",
	"1d/acc/trunc":       "err: zfp: corrupt stream: truncated plane",
	"1d/prec/decoded":    "0abfbcd1a8656492",
	"1d/prec/flip1":      "b70941a52823e9f2",
	"1d/prec/flip2":      "79f2da6cff6c419a",
	"1d/prec/flip3":      "err: zfp: corrupt stream: truncated plane",
	"1d/prec/stream":     "e85618c39a6db545",
	"1d/prec/trunc":      "err: zfp: corrupt stream: truncated plane",
	"1d/rate16/decoded":  "952d28898417ffdf",
	"1d/rate16/flip1":    "93688e43c4492084",
	"1d/rate16/flip2":    "c5367d1dd7b6e96e",
	"1d/rate16/flip3":    "396b2ae733ac3802",
	"1d/rate16/prog6":    "250f52cb2d6f1966",
	"1d/rate16/stream":   "3be6fea37f2ef6a9",
	"1d/rate16/trunc":    "err: zfp: corrupt stream: truncated plane",
	"1d/rate8/decoded":   "1476235be1f72a1f",
	"1d/rate8/flip1":     "a9220b7d532dbdad",
	"1d/rate8/flip2":     "59e498ae9e7579f9",
	"1d/rate8/flip3":     "34347ec66c11eac7",
	"1d/rate8/prog6":     "250f52cb2d6f1966",
	"1d/rate8/stream":    "97e9831f7d57d2c3",
	"1d/rate8/trunc":     "err: zfp: corrupt stream: truncated group bit",
	"2d/acc/decoded":     "3ab08efc3f83a5dc",
	"2d/acc/flip1":       "ff191fa60bf29bcd",
	"2d/acc/flip2":       "err: zfp: corrupt stream: truncated plane",
	"2d/acc/flip3":       "e2a80f277ffd163c",
	"2d/acc/stream":      "cce5f483b39428f3",
	"2d/acc/trunc":       "err: zfp: corrupt stream: truncated plane",
	"2d/prec/decoded":    "4c15906572d66cba",
	"2d/prec/flip1":      "97379483664e8763",
	"2d/prec/flip2":      "23205b70ed6bba5e",
	"2d/prec/flip3":      "a581da86959d2e45",
	"2d/prec/stream":     "f2655e77a4589575",
	"2d/prec/trunc":      "err: zfp: corrupt stream: truncated plane",
	"2d/rate16/decoded":  "feb2e84070291594",
	"2d/rate16/flip1":    "339de90277834072",
	"2d/rate16/flip2":    "02849ef59e98a8d0",
	"2d/rate16/flip3":    "28af380666f18084",
	"2d/rate16/prog6":    "2f329134686a44ee",
	"2d/rate16/stream":   "d494f049a8e6834a",
	"2d/rate16/trunc":    "err: zfp: corrupt stream: truncated block flag",
	"2d/rate8/decoded":   "92358e840466a3c1",
	"2d/rate8/flip1":     "cf0d9e4bc8f6ede1",
	"2d/rate8/flip2":     "479a9e48ba32ef40",
	"2d/rate8/flip3":     "420faa5c6653fadb",
	"2d/rate8/prog6":     "2f329134686a44ee",
	"2d/rate8/stream":    "f94e62b023fd18b4",
	"2d/rate8/trunc":     "err: zfp: corrupt stream: truncated block flag",
	"3d/acc/decoded":     "c354a0015848ba71",
	"3d/acc/flip1":       "fc9f8b690afcf907",
	"3d/acc/flip2":       "3f36360195399b22",
	"3d/acc/flip3":       "35cae2f9feaca949",
	"3d/acc/stream":      "1aa512dac0d85cc8",
	"3d/acc/trunc":       "err: zfp: corrupt stream: truncated exponent",
	"3d/prec/decoded":    "7d5671ca56100c7b",
	"3d/prec/flip1":      "948182326f404347",
	"3d/prec/flip2":      "8eba2bc6846d54dd",
	"3d/prec/flip3":      "65314296fadf630a",
	"3d/prec/stream":     "ab989da7d3d68139",
	"3d/prec/trunc":      "err: zfp: corrupt stream: truncated plane",
	"3d/rate16/decoded":  "2d14ef1882d99601",
	"3d/rate16/flip1":    "0a90f5b2061e2ab0",
	"3d/rate16/flip2":    "d2f79540e6fe40db",
	"3d/rate16/flip3":    "5deea86e7995f7b8",
	"3d/rate16/prog6":    "40e8abe4e5e29227",
	"3d/rate16/stream":   "6f811bf116df7a73",
	"3d/rate16/trunc":    "err: zfp: corrupt stream: truncated plane",
	"3d/rate8/decoded":   "0f9586ddb04918eb",
	"3d/rate8/flip1":     "79f990ff32c8facc",
	"3d/rate8/flip2":     "4ef3210e1be18cda",
	"3d/rate8/flip3":     "a949e7949f571466",
	"3d/rate8/prog6":     "40e8abe4e5e29227",
	"3d/rate8/stream":    "29510d188253aa79",
	"3d/rate8/trunc":     "err: zfp: corrupt stream: truncated plane",
	"3d8/acc/decoded":    "c77284c49ec6f1e7",
	"3d8/acc/flip1":      "ad4b7654e0c26a92",
	"3d8/acc/flip2":      "5fdfb4792df93ea2",
	"3d8/acc/flip3":      "98e4913462bf8fde",
	"3d8/acc/stream":     "42df25d40de23b29",
	"3d8/acc/trunc":      "err: zfp: corrupt stream: truncated group bit",
	"3d8/prec/decoded":   "0727d96d77c361be",
	"3d8/prec/flip1":     "942ead196eed37d5",
	"3d8/prec/flip2":     "2b5032aadcb451e6",
	"3d8/prec/flip3":     "124e1f7eb963b5a6",
	"3d8/prec/stream":    "1d29d25e783fddba",
	"3d8/prec/trunc":     "err: zfp: corrupt stream: truncated plane",
	"3d8/rate16/decoded": "da324448b4cfc920",
	"3d8/rate16/flip1":   "781bdbd7bfdd8e92",
	"3d8/rate16/flip2":   "a2999d377caa0552",
	"3d8/rate16/flip3":   "8c16f5668caf8461",
	"3d8/rate16/prog6":   "ad7facb2586fc6e9",
	"3d8/rate16/stream":  "f16d4989899af350",
	"3d8/rate16/trunc":   "err: zfp: corrupt stream: truncated block flag",
	"3d8/rate8/decoded":  "26e667a464aa200b",
	"3d8/rate8/flip1":    "dd1da0dc8e8717e3",
	"3d8/rate8/flip2":    "74be477762a38870",
	"3d8/rate8/flip3":    "ef4bdbfb3e2e29c3",
	"3d8/rate8/prog6":    "ad7facb2586fc6e9",
	"3d8/rate8/stream":   "8737317d62b8223a",
	"3d8/rate8/trunc":    "err: zfp: corrupt stream: truncated block flag",
}

func TestGoldenZFPStreams(t *testing.T) {
	got := map[string]string{}
	for i, c := range goldenZFPCases() {
		data := goldenFieldZFP(c.dims, int64(100+i), c.zeroLen)
		buf, err := Compress(data, c.dims, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		headerLen := len(magic) + 3 + 4*len(c.dims) + 8
		got[c.name+"/stream"] = bytesDigest(buf)
		vals, _, err := Decompress(buf)
		got[c.name+"/decoded"] = fieldDigest(vals, err)
		for seed := int64(1); seed <= 3; seed++ {
			vals, _, err := Decompress(flipPayload(buf, headerLen, 3, seed))
			got[fmt.Sprintf("%s/flip%d", c.name, seed)] = fieldDigest(vals, err)
		}
		cut := len(buf) - (len(buf)-headerLen)/4
		vals, _, err = Decompress(buf[:cut])
		got[c.name+"/trunc"] = fieldDigest(vals, err)
		if c.opts.Mode == ModeRate {
			vals, _, err := DecompressProgressive(buf, 6, 1)
			got[c.name+"/prog6"] = fieldDigest(vals, err)
		}
	}
	for k, v := range got {
		want, ok := goldenZFPDigests[k]
		if !ok {
			t.Errorf("no golden digest for %s (got %q)", k, v)
			continue
		}
		if v != want {
			t.Errorf("%s: digest %q, want %q", k, v, want)
		}
	}
	for k := range goldenZFPDigests {
		if _, ok := got[k]; !ok {
			t.Errorf("golden digest %s was not produced", k)
		}
	}
}
