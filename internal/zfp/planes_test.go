package zfp

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// TestTranspose64Orientation pins the orientation encodePlanes relies
// on: tr[63-k] is bit plane k with coefficient i at bit 63-i.
func TestTranspose64Orientation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := make([]uint64, 64)
	for trial := 0; trial < 200; trial++ {
		for i := range u {
			u[i] = rng.Uint64() >> uint(rng.Intn(65))
		}
		var tr [64]uint64
		transpose64(&tr, u)
		for k := 0; k < 64; k++ {
			var plane uint64
			for i := range u {
				plane |= (u[i] >> uint(k) & 1) << uint(i)
			}
			if tr[63-k] != bits.Reverse64(plane) {
				t.Fatalf("trial %d: tr[%d] = %#x, want Reverse64(plane %d) = %#x", trial, 63-k, tr[63-k], k, bits.Reverse64(plane))
			}
		}
		var back [64]uint64
		transpose64(&back, tr[:])
		if back != [64]uint64(u) {
			t.Fatalf("trial %d: transpose is not an involution", trial)
		}
	}
}

// planesCase is one differential case for the plane coder: a block of
// magnitudes, the coder parameters, and the buffer to decode.
type planesCase struct {
	u         []uint64
	size      int
	kmin      int
	budget    int
	maxPlanes int
	prefix    int // bits written (and skipped) before the planes
}

// planesBlock draws a block whose magnitudes span the 64 planes, with
// zeros and leading-zero runs of every length, as the transform leaves
// them.
func planesBlock(rng *rand.Rand, size int) []uint64 {
	u := make([]uint64, size)
	for i := range u {
		switch rng.Intn(4) {
		case 0: // zero coefficient
		case 1:
			u[i] = rng.Uint64()
		default:
			u[i] = rng.Uint64() >> uint(rng.Intn(65))
		}
	}
	return u
}

// checkPlanesEncode requires encodePlanes to write the same bits as the
// bit-serial reference after the same unaligned prefix.
func checkPlanesEncode(t *testing.T, c planesCase) []byte {
	t.Helper()
	var w, wr bitio.Writer
	w.WriteBits(0xa5a5, c.prefix)
	wr.WriteBits(0xa5a5, c.prefix)
	encodePlanes(&w, c.u, c.size, c.kmin, c.budget)
	encodePlanesRef(&wr, c.u, c.size, c.kmin, c.budget)
	if w.Len() != wr.Len() {
		t.Fatalf("%+v: encodePlanes wrote %d bits, reference %d", c, w.Len(), wr.Len())
	}
	got, want := w.Bytes(), wr.Bytes()
	if !bytes.Equal(got, want) {
		t.Fatalf("%+v: encodePlanes bytes\n%x\nwant\n%x", c, got, want)
	}
	return got
}

// checkPlanesDecode requires decodePlanes to fill the same u, stop at
// the same bit position and fail in the same way as the reference on
// buf, whatever buf holds.
func checkPlanesDecode(t *testing.T, c planesCase, buf []byte) {
	t.Helper()
	r, rr := bitio.NewReader(buf), bitio.NewReader(buf)
	skip := min(c.prefix, len(buf)*8)
	if r.Skip(skip) != nil || rr.Skip(skip) != nil {
		t.Fatal("skip within the buffer failed")
	}
	u, ur := make([]uint64, c.size), make([]uint64, c.size)
	err := decodePlanes(r, u, c.size, c.kmin, c.budget, c.maxPlanes)
	errRef := decodePlanesRef(rr, ur, c.size, c.kmin, c.budget, c.maxPlanes)
	if (err == nil) != (errRef == nil) || (err != nil && err.Error() != errRef.Error()) {
		t.Fatalf("%+v buf=%x: decodePlanes error %v, reference %v", c, buf, err, errRef)
	}
	if r.Pos() != rr.Pos() {
		t.Fatalf("%+v buf=%x: decodePlanes stopped at bit %d, reference %d", c, buf, r.Pos(), rr.Pos())
	}
	for i := range u {
		if u[i] != ur[i] {
			t.Fatalf("%+v buf=%x: u[%d] = %#x, reference %#x", c, buf, i, u[i], ur[i])
		}
	}
}

// checkPlanes runs one case both ways: encode against the reference,
// then decode the real stream, a truncation of it, a copy with one bit
// flipped and the arbitrary bytes in junk.
func checkPlanes(t *testing.T, c planesCase, cut, flip int, junk []byte) {
	t.Helper()
	buf := checkPlanesEncode(t, c)
	checkPlanesDecode(t, c, buf)
	if len(buf) > 0 {
		checkPlanesDecode(t, c, buf[:cut%len(buf)])
		flipped := append([]byte(nil), buf...)
		bit := flip % (8 * len(buf))
		flipped[bit/8] ^= 0x80 >> uint(bit%8)
		checkPlanesDecode(t, c, flipped)
	}
	checkPlanesDecode(t, c, junk)
}

// randomPlanesCase draws coder parameters around the interesting
// edges: full budgets, budgets that end inside the verbatim prefix or
// a run, kmin anywhere, and progressive plane caps.
func randomPlanesCase(rng *rand.Rand) planesCase {
	size := []int{4, 16, 64}[rng.Intn(3)]
	c := planesCase{
		u:      planesBlock(rng, size),
		size:   size,
		kmin:   rng.Intn(intPrec + 1),
		prefix: rng.Intn(16),
	}
	switch rng.Intn(3) {
	case 0:
		c.budget = intPrec * size
	case 1:
		c.budget = rng.Intn(8 * size)
	default:
		c.budget = rng.Intn(intPrec*size + 32)
	}
	if rng.Intn(3) == 0 {
		c.maxPlanes = 1 + rng.Intn(intPrec)
	}
	return c
}

// TestPlanesMatchRef is the always-on slice of FuzzZFPPlanes: seeded
// random blocks through the word-level coder and the bit-serial
// reference.
func TestPlanesMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		c := randomPlanesCase(rng)
		junk := make([]byte, rng.Intn(64))
		rng.Read(junk)
		checkPlanes(t, c, rng.Int(), rng.Int(), junk)
	}
}

// FuzzZFPPlanes differentially fuzzes encodePlanes/decodePlanes
// against the bit-serial reference coder: equal bytes and length on
// encode; equal u, bit position and error on decode of real,
// truncated, bit-flipped and arbitrary buffers.
func FuzzZFPPlanes(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0), uint16(4096), uint8(0), uint8(3), uint32(7), uint32(100), []byte{})
	f.Add(int64(2), uint8(1), uint8(40), uint16(200), uint8(6), uint8(0), uint32(3), uint32(9), []byte{0xff, 0x00, 0x80})
	f.Add(int64(3), uint8(0), uint8(10), uint16(5), uint8(0), uint8(5), uint32(1), uint32(2), []byte{0xaa, 0x55})
	f.Fuzz(func(t *testing.T, seed int64, sizeSel, kmin uint8, budget uint16, maxPlanes, prefix uint8, cut, flip uint32, junk []byte) {
		size := []int{4, 16, 64}[int(sizeSel)%3]
		c := planesCase{
			u:         planesBlock(rand.New(rand.NewSource(seed)), size),
			size:      size,
			kmin:      int(kmin) % (intPrec + 1),
			budget:    int(budget) % (intPrec*size + 64),
			maxPlanes: int(maxPlanes) % (intPrec + 1),
			prefix:    int(prefix % 16),
		}
		checkPlanes(t, c, int(cut), int(flip), junk)
	})
}
