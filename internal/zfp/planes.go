package zfp

import (
	"fmt"
	"math/bits"

	"repro/internal/bitio"
)

// ZFP's embedded group-testing bit-plane coder, word at a time. Each
// bit plane is held in one word y with coefficient i at bit 63-i, so
// the coder's position order (coefficient 0 first) is the word's
// MSB-first order and every field of the stream is a shift of y:
//
//   - the verbatim prefix of the n already-significant positions is
//     the top n bits of y;
//   - a group test asks whether y<<n is nonzero;
//   - the run that follows a positive test ends at the next 1, which
//     sits LeadingZeros64(y<<n) positions further on.
//
// The stream is bit-identical to the bit-serial reference coder in
// ref_test.go; docs/KERNELS.md gives the argument and
// FuzzZFPPlanes checks it.

// transpose64 transposes the 64×64 bit matrix whose row i is u[i] and
// whose column c is bit 63-c (Hacker's Delight, 7-3, widened to 64
// bits): afterwards bit 63-i of tr[j] is bit 63-j of u[i]. So tr[63-k]
// is bit plane k of the block with coefficient i at bit 63-i.
func transpose64(tr *[64]uint64, u []uint64) {
	*tr = [64]uint64(u)
	swapBlocks(tr, 32, 0x00000000FFFFFFFF)
	swapBlocks(tr, 16, 0x0000FFFF0000FFFF)
	swapBlocks(tr, 8, 0x00FF00FF00FF00FF)
	swapBlocks(tr, 4, 0x0F0F0F0F0F0F0F0F)
	swapBlocks(tr, 2, 0x3333333333333333)
	swapBlocks(tr, 1, 0x5555555555555555)
}

// swapBlocks is one step of transpose64: in every 2j-row band it swaps
// the j×j bit blocks above and below the diagonal, the low-mask (right)
// half of row k with the high half of row k+j. The indexes are masked
// with 63 so the compiler can drop their bounds checks.
func swapBlocks(a *[64]uint64, j int, m uint64) {
	for b := 0; b < 64; b += 2 * j {
		for k := b; k < b+j; k++ {
			t := (a[k&63] ^ a[(k+j)&63]>>uint(j)) & m
			a[k&63] ^= t
			a[(k+j)&63] ^= t << uint(j)
		}
	}
}

// encodePlanes implements ZFP's embedded group-testing coder: for each
// bit plane from MSB down, the first n bits (coefficients already
// significant) are written verbatim and the remainder is unary
// run-length coded. n grows monotonically as coefficients become
// significant. At most nbits bits are written; the coder stops
// mid-field when they run out.
func encodePlanes(w *bitio.Writer, u []uint64, size, kmin, nbits int) {
	var tr [64]uint64
	if size == 64 {
		transpose64(&tr, u)
	}
	n := 0
	for k := intPrec - 1; k >= kmin && nbits > 0; k-- {
		var y uint64
		if size == 64 {
			y = tr[63-k]
		} else {
			for i := 0; i < size; i++ {
				y |= (u[i] >> uint(k) & 1) << uint(63-i)
			}
		}
		// Step 2: the first n positions verbatim.
		m := min(n, nbits)
		nbits -= m
		w.WriteBits(y>>uint(64-m), m)
		// Step 3: group tests and runs over positions n and up. Each
		// positive test is followed by the run of zeros up to the next
		// 1 and the 1 itself, written as one field — except that a 1
		// in the final position is implied, not written. When the
		// budget ends mid-run only the run's leading zeros fit.
		y <<= uint(n)
		for n < size && nbits > 0 {
			nbits--
			if y == 0 {
				w.WriteBit(0)
				break
			}
			lz := bits.LeadingZeros64(y)
			run, hit := lz+1, uint64(1)
			if n+lz == size-1 {
				run, hit = lz, 0
			}
			if run > nbits {
				run, hit = nbits, 0
			}
			w.WriteBits(1<<uint(run)|hit, run+1)
			nbits -= run
			n += lz + 1
			y <<= uint(lz + 1)
		}
	}
}

// planeErr leaves r at the end of its buffer, where the bit-serial
// decoder stops when a read runs off the end, and reports what was
// truncated.
func planeErr(r *bitio.Reader, what string) error {
	_ = r.Skip(r.Remaining()) // cannot fail: exactly the remaining bits
	return fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
}

// decodePlanes mirrors encodePlanes exactly, ORing the decoded bits
// into u. maxPlanes > 0 stops the consumption early (progressive
// decode); the caller skips the block's remaining budget, which is
// only sound for fixed-rate blocks. On error the reader is left at
// the end of its buffer and u holds the planes completed before it.
func decodePlanes(r *bitio.Reader, u []uint64, size, kmin, nbits, maxPlanes int) error {
	n := 0
	for k := intPrec - 1; k >= kmin && nbits > 0; k-- {
		if maxPlanes > 0 && intPrec-k > maxPlanes {
			break
		}
		m := min(n, nbits)
		nbits -= m
		v, err := r.ReadBits(m)
		if err != nil {
			return planeErr(r, "plane")
		}
		y := v << uint(64-m)
		for n < size && nbits > 0 {
			// The group test bit, then a run of at most span bits that
			// ends at the first 1: one peek covers both.
			span := min(size-1-n, nbits-1)
			p, avail := r.Peek(span + 1)
			if avail == 0 {
				return planeErr(r, "group bit")
			}
			nbits--
			if p>>uint(span) == 0 {
				_ = r.Skip(1) // cannot fail: avail >= 1
				break
			}
			// zeros then, when the run found it, the 1.
			zeros, one := span, 0
			if run := p & (1<<uint(span) - 1); run != 0 {
				zeros, one = bits.LeadingZeros64(run)-(64-span), 1
			} else if avail-1 < span {
				return planeErr(r, "run")
			}
			_ = r.Skip(1 + zeros + one) // cannot fail: within avail
			nbits -= zeros + one
			n += zeros
			// An explicit 1, or the final position, which the group
			// test implies. A run cut short by the budget confirms
			// nothing: its position stays zero.
			if one == 1 || n == size-1 {
				y |= 1 << 63 >> uint(n)
			}
			n++
		}
		for ; y != 0; y &= y - 1 {
			u[63-bits.TrailingZeros64(y)] |= 1 << uint(k)
		}
	}
	return nil
}
