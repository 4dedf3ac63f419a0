package zfp

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/bitio"
)

// blockScratch is the per-block working set: gathered values, the
// fixed-point coefficients, and the negabinary magnitudes. Blocks are
// tiny (4^d values) but the codec touches one per 4^d samples, so
// allocating these per block dominated the encoder's garbage.
type blockScratch struct {
	vals   []float64
	coeffs []int64
	u      []uint64
}

var blockScratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// getBlockScratch returns a scratch sized for size-element blocks.
// Contents are unspecified; encodeBlock/decodeBlock assign (or clear)
// every element they read.
func getBlockScratch(size int) *blockScratch {
	s, ok := blockScratchPool.Get().(*blockScratch)
	if !ok {
		s = new(blockScratch) // unreachable: the pool's New returns *blockScratch
	}
	s.vals = growSlice(s.vals, size)
	s.coeffs = growSlice(s.coeffs, size)
	s.u = growSlice(s.u, size)
	return s
}

func putBlockScratch(s *blockScratch) { blockScratchPool.Put(s) }

func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// blockBits returns the exact bit budget of one fixed-rate block.
func blockBits(rate float64, size int) int {
	return int(math.Round(rate * float64(size)))
}

// minRate is the smallest fixed rate that can hold a block header
// (nonzero flag + exponent) plus one plane bit; lower rates would
// emit blocks larger than their own fixed budget, which cannot be
// decoded. Compress validates against it.
func minRate(size int) float64 {
	return float64(2+expBits) / float64(size)
}

// kminFor computes the lowest bit plane a variable-length mode must
// keep. For accuracy mode, bit k of a coefficient carries weight
// 2^(k-fixedPointBits+emax), and truncation below the tolerance (with
// a safety margin for inverse transform growth) is allowed. For
// precision mode, exactly Param planes from the top are kept.
func kminFor(opts Options, emax int) int {
	var k int
	switch opts.Mode {
	case ModePrecision:
		k = intPrec - int(opts.Param)
	default: // ModeAccuracy
		// 2^(kmin - fixedPointBits + emax) <= tol / 2^accMargin
		k = int(math.Floor(math.Log2(opts.Param))) + fixedPointBits - emax - accMargin
	}
	if k < 0 {
		k = 0
	}
	if k > intPrec {
		k = intPrec
	}
	return k
}

// blockExp returns the max binary exponent over the block per
// math.Frexp (value magnitude < 2^e), and whether any value is
// nonzero.
func blockExp(vals []float64) (int, bool) {
	e := math.MinInt32
	nonzero := false
	for _, v := range vals {
		if v == 0 {
			continue
		}
		nonzero = true
		_, ve := math.Frexp(v)
		if ve > e {
			e = ve
		}
	}
	return e, nonzero
}

// encodeBlock writes one block from s.vals (filled by the caller's
// gather); s.coeffs and s.u are scratch.
func encodeBlock(w *bitio.Writer, s *blockScratch, bl *blocker, opts Options) {
	vals, coeffs := s.vals, s.coeffs
	size := bl.blockSize
	rateMode := opts.Mode == ModeRate
	var budget int
	if rateMode {
		budget = blockBits(opts.Param, size)
	} else {
		budget = 1 + expBits + intPrec*size // effectively unlimited
	}
	start := w.Len()

	emax, nonzero := blockExp(vals)
	biased := emax + expBias
	if biased < 1 || biased > 2*expBias {
		nonzero = false // beyond double range: treat as zero block
	}
	if !nonzero {
		w.WriteBit(0)
	} else {
		w.WriteBit(1)
		w.WriteBits(uint64(biased), expBits) //arcvet:ignore mathbits biased is checked in [1, 2*expBias] above
		scale := math.Ldexp(1, fixedPointBits-emax)
		for i, v := range vals {
			coeffs[i] = int64(v * scale)
		}
		fwdXform(coeffs, bl.nd)
		// Reorder to sequency order and map to negabinary. Every entry
		// of the reused scratch is assigned, so no clearing is needed.
		u := s.u
		int2uintBlock(u, coeffs, bl.perm)
		kmin := 0
		if !rateMode {
			kmin = kminFor(opts, emax)
		}
		encodePlanes(w, u, size, kmin, budget-1-expBits)
	}
	if rateMode {
		// Pad to the exact fixed size, a word at a time.
		for pad := budget - (w.Len() - start); pad > 0; pad -= 64 {
			w.WriteBits(0, min(pad, 64))
		}
	}
}

// decodeBlock reads one block into s.vals (scattered by the caller);
// s.coeffs and s.u are scratch.
func decodeBlock(r *bitio.Reader, s *blockScratch, bl *blocker, opts Options) error {
	vals, coeffs := s.vals, s.coeffs
	size := bl.blockSize
	rateMode := opts.Mode == ModeRate
	var budget int
	if rateMode {
		budget = blockBits(opts.Param, size)
	} else {
		budget = 1 + expBits + intPrec*size
	}
	start := r.Pos()

	flag, err := r.ReadBit()
	if err != nil {
		return fmt.Errorf("%w: truncated block flag", ErrCorrupt)
	}
	if flag == 0 {
		for i := range vals {
			vals[i] = 0
		}
	} else {
		biasedU, err := r.ReadBits(expBits)
		if err != nil {
			return fmt.Errorf("%w: truncated exponent", ErrCorrupt)
		}
		emax := int(biasedU) - expBias //arcvet:ignore mathbits biasedU fits in expBits (11) bits
		kmin := 0
		if !rateMode {
			kmin = kminFor(opts, emax)
		}
		// decodePlanes ORs bits into u, so the reused scratch must start
		// zeroed.
		u := s.u
		clear(u)
		maxPlanes := 0
		if rateMode {
			maxPlanes = opts.maxDecodePlanes
		}
		if err := decodePlanes(r, u, size, kmin, budget-1-expBits, maxPlanes); err != nil {
			return err
		}
		uint2intBlock(coeffs, u, bl.perm)
		invXform(coeffs, bl.nd)
		scale := math.Ldexp(1, emax-fixedPointBits)
		for i := range vals {
			vals[i] = float64(coeffs[i]) * scale
		}
	}
	if rateMode {
		consumed := r.Pos() - start
		if consumed > budget {
			return fmt.Errorf("%w: block overran its budget", ErrCorrupt)
		}
		if err := r.Skip(budget - consumed); err != nil {
			return fmt.Errorf("%w: truncated block padding", ErrCorrupt)
		}
	}
	return nil
}
