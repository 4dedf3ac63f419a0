package zfp

// Scalar reference oracles for the word-level kernels: the strided
// S-transform behind xform.go and the bit-serial plane coder behind
// planes.go. Tests pin the kernels to these differentially, and the
// kernel benchmarks use them as the scalar baseline.

import (
	"fmt"

	"repro/internal/bitio"
)

// fwdLift applies the exactly invertible two-level S-transform to the
// 4-vector at p[0], p[s], p[2s], p[3s]:
//
//	level 1: (x0,x1) -> (l0,h0), (x2,x3) -> (l1,h1)
//	level 2: (l0,l1) -> (ll,hl)
//	output slots: [ll, hl, h0, h1]
func fwdLift(p []int64, s int) {
	x0, x1, x2, x3 := p[0], p[s], p[2*s], p[3*s]
	l0, h0 := sFwd(x0, x1)
	l1, h1 := sFwd(x2, x3)
	ll, hl := sFwd(l0, l1)
	p[0], p[s], p[2*s], p[3*s] = ll, hl, h0, h1
}

// invLift inverts fwdLift.
func invLift(p []int64, s int) {
	ll, hl, h0, h1 := p[0], p[s], p[2*s], p[3*s]
	l0, l1 := sInv(ll, hl)
	x0, x1 := sInv(l0, h0)
	x2, x3 := sInv(l1, h1)
	p[0], p[s], p[2*s], p[3*s] = x0, x1, x2, x3
}

// sFwd is the exact integer S-transform: l = floor((a+b)/2), h = a-b.
func sFwd(a, b int64) (l, h int64) {
	return (a + b) >> 1, a - b
}

// sInv inverts sFwd: a = l + (h + (h&1))/2, b = a - h.
func sInv(l, h int64) (a, b int64) {
	a = l + ((h + (h & 1)) >> 1)
	return a, a - h
}

// fwdXformRef is the scalar reference implementation of fwdXform,
// lifting one strided 4-vector at a time: the differential oracle and
// benchmark baseline of the unrolled kernels in xform.go (the integer S-transform is exactly associative, so the
// unrolled variants are bit-identical by construction — the tests pin
// that).
func fwdXformRef(c []int64, nd int) {
	switch nd {
	case 1:
		fwdLift(c, 1)
	case 2:
		for y := 0; y < 4; y++ { // along x (fastest axis)
			fwdLift(c[y*4:], 1)
		}
		for x := 0; x < 4; x++ { // along y
			fwdLift(c[x:], 4)
		}
	default:
		for z := 0; z < 4; z++ {
			for y := 0; y < 4; y++ {
				fwdLift(c[(z*4+y)*4:], 1)
			}
		}
		for z := 0; z < 4; z++ {
			for x := 0; x < 4; x++ {
				fwdLift(c[z*16+x:], 4)
			}
		}
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				fwdLift(c[y*4+x:], 16)
			}
		}
	}
}

// invXformRef is the scalar reference implementation of invXform
// (axes in reverse order).
func invXformRef(c []int64, nd int) {
	switch nd {
	case 1:
		invLift(c, 1)
	case 2:
		for x := 0; x < 4; x++ {
			invLift(c[x:], 4)
		}
		for y := 0; y < 4; y++ {
			invLift(c[y*4:], 1)
		}
	default:
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				invLift(c[y*4+x:], 16)
			}
		}
		for z := 0; z < 4; z++ {
			for x := 0; x < 4; x++ {
				invLift(c[z*16+x:], 4)
			}
		}
		for z := 0; z < 4; z++ {
			for y := 0; y < 4; y++ {
				invLift(c[(z*4+y)*4:], 1)
			}
		}
	}
}

// encodePlanesRef is the bit-serial reference of encodePlanes, ZFP's
// embedded group-testing coder one bit at a time: for each
// bit plane from MSB down, the first n bits (coefficients already
// significant) are written verbatim and the remainder is unary
// run-length coded. n grows monotonically as coefficients become
// significant.
func encodePlanesRef(w *bitio.Writer, u []uint64, size, kmin, bits int) {
	n := 0
	for k := intPrec - 1; k >= kmin && bits > 0; k-- {
		// Gather plane k: bit i of x = bit k of coefficient i.
		var x uint64
		for i := 0; i < size; i++ {
			x |= (u[i] >> uint(k) & 1) << uint(i)
		}
		// Step 2: first n bits verbatim (LSB of x first).
		m := n
		if m > bits {
			m = bits
		}
		bits -= m
		for i := 0; i < m; i++ {
			w.WriteBit(uint(x))
			x >>= 1
		}
		// Step 3: unary run-length encode the remainder. Bit 0 of x is
		// position n. Each outer iteration emits a group-test bit
		// ("any 1s left in this plane?"); a positive test is followed
		// by the run of bits up to and including the next 1 — except
		// that a 1 in the final position is implied, not written.
		for n < size && bits > 0 {
			bits--
			if x == 0 {
				w.WriteBit(0)
				break
			}
			w.WriteBit(1)
			hit := false
			for n < size-1 && bits > 0 {
				bits--
				b := uint(x & 1)
				w.WriteBit(b)
				if b == 1 {
					hit = true
					break
				}
				x >>= 1
				n++
			}
			// Consume the position that held (or implies) the 1. When
			// bits ran out mid-run with positions left, this consumes
			// one position silently; the decoder mirrors that.
			_ = hit
			x >>= 1
			n++
		}
	}
}

// decodePlanesRef is the bit-serial reference of decodePlanes and
// mirrors encodePlanesRef exactly. maxPlanes > 0 stops the
// consumption early (progressive decode); the caller skips the block's
// remaining budget, which is only sound for fixed-rate blocks.
func decodePlanesRef(r *bitio.Reader, u []uint64, size, kmin, bits, maxPlanes int) error {
	n := 0
	for k := intPrec - 1; k >= kmin && bits > 0; k-- {
		if maxPlanes > 0 && intPrec-k > maxPlanes {
			break
		}
		m := n
		if m > bits {
			m = bits
		}
		bits -= m
		var x uint64
		for i := 0; i < m; i++ {
			b, err := r.ReadBit()
			if err != nil {
				return fmt.Errorf("%w: truncated plane", ErrCorrupt)
			}
			x |= uint64(b) << uint(i)
		}
		for n < size && bits > 0 {
			bits--
			g, err := r.ReadBit()
			if err != nil {
				return fmt.Errorf("%w: truncated group bit", ErrCorrupt)
			}
			if g == 0 {
				break
			}
			hit := false
			for n < size-1 && bits > 0 {
				bits--
				b, err := r.ReadBit()
				if err != nil {
					return fmt.Errorf("%w: truncated run", ErrCorrupt)
				}
				if b == 1 {
					hit = true
					break
				}
				n++
			}
			switch {
			case hit:
				// Explicit 1 at position n.
				x |= 1 << uint(n)
			case n == size-1:
				// The group test guaranteed a 1 remains and only the
				// final position is left: the 1 is implied.
				x |= 1 << uint(n)
			default:
				// Bits exhausted mid-run: the encoder consumed this
				// position without confirming it; leave it zero.
			}
			n++
		}
		for i := 0; x != 0; i, x = i+1, x>>1 {
			u[i] |= (x & 1) << uint(k)
		}
	}
	return nil
}
