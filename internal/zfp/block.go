package zfp

// blocker maps between the row-major data array and 4^d blocks,
// replicating edge values into partial blocks (ZFP's padding scheme)
// so every block is full.
type blocker struct {
	dims      []int // row-major: dims[0] slowest
	nd        int
	blockSize int   // 4^nd
	nBlk      []int // blocks along each dim
	numBlocks int
	perm      []int // sequency-order permutation of block-local indices
}

func newBlocker(dims []int) *blocker {
	b := &blocker{dims: dims, nd: len(dims)}
	b.blockSize = 1
	for i := 0; i < b.nd; i++ {
		b.blockSize *= 4
	}
	b.nBlk = make([]int, b.nd)
	b.numBlocks = 1
	for i, d := range dims {
		b.nBlk[i] = (d + 3) / 4
		b.numBlocks *= b.nBlk[i]
	}
	b.perm = sequencyPerm(b.nd)
	return b
}

// freqWeight orders block-local per-axis offsets by frequency after the
// two-level S-transform: slot 0 holds the DC average, slot 1 the
// level-2 detail, slots 2-3 the level-1 details.
var freqWeight = [4]int{0, 1, 2, 2}

// sequencyPerm returns block-local linear indices sorted by total
// frequency (low first), ZFP's "total sequency" coefficient order.
func sequencyPerm(nd int) []int {
	size := 1
	for i := 0; i < nd; i++ {
		size *= 4
	}
	idx := make([]int, size)
	for i := range idx {
		idx[i] = i
	}
	weight := func(i int) int {
		w := 0
		for d := 0; d < nd; d++ {
			w += freqWeight[i&3]
			i >>= 2
		}
		return w
	}
	// Insertion sort by (weight, index): size <= 64, stability matters
	// only for determinism.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			a, b := idx[j-1], idx[j]
			if weight(a) > weight(b) || (weight(a) == weight(b) && a > b) {
				idx[j-1], idx[j] = b, a
			} else {
				break
			}
		}
	}
	return idx
}

// blockCoords decomposes block index b into per-dim block coordinates
// (slowest dim first).
func (bl *blocker) blockCoords(b int) [3]int {
	var c [3]int
	for i := bl.nd - 1; i >= 0; i-- {
		c[i] = b % bl.nBlk[i]
		b /= bl.nBlk[i]
	}
	return c
}

// gather copies block b of data into dst (length blockSize), clamping
// out-of-range coordinates to the array edge.
func (bl *blocker) gather(data []float64, b int, dst []float64) {
	bc := bl.blockCoords(b)
	switch bl.nd {
	case 1:
		d0 := bl.dims[0]
		for i := 0; i < 4; i++ {
			x := clamp(bc[0]*4+i, d0)
			dst[i] = data[x]
		}
	case 2:
		d0, d1 := bl.dims[0], bl.dims[1]
		for i := 0; i < 4; i++ {
			x0 := clamp(bc[0]*4+i, d0)
			for j := 0; j < 4; j++ {
				x1 := clamp(bc[1]*4+j, d1)
				dst[i*4+j] = data[x0*d1+x1]
			}
		}
	default:
		d0, d1, d2 := bl.dims[0], bl.dims[1], bl.dims[2]
		for i := 0; i < 4; i++ {
			x0 := clamp(bc[0]*4+i, d0)
			for j := 0; j < 4; j++ {
				x1 := clamp(bc[1]*4+j, d1)
				for k := 0; k < 4; k++ {
					x2 := clamp(bc[2]*4+k, d2)
					dst[(i*4+j)*4+k] = data[(x0*d1+x1)*d2+x2]
				}
			}
		}
	}
}

// scatter writes block b back into out, skipping padded positions.
func (bl *blocker) scatter(out []float64, b int, src []float64) {
	bc := bl.blockCoords(b)
	switch bl.nd {
	case 1:
		d0 := bl.dims[0]
		for i := 0; i < 4; i++ {
			if x := bc[0]*4 + i; x < d0 {
				out[x] = src[i]
			}
		}
	case 2:
		d0, d1 := bl.dims[0], bl.dims[1]
		for i := 0; i < 4; i++ {
			x0 := bc[0]*4 + i
			if x0 >= d0 {
				continue
			}
			for j := 0; j < 4; j++ {
				if x1 := bc[1]*4 + j; x1 < d1 {
					out[x0*d1+x1] = src[i*4+j]
				}
			}
		}
	default:
		d0, d1, d2 := bl.dims[0], bl.dims[1], bl.dims[2]
		for i := 0; i < 4; i++ {
			x0 := bc[0]*4 + i
			if x0 >= d0 {
				continue
			}
			for j := 0; j < 4; j++ {
				x1 := bc[1]*4 + j
				if x1 >= d1 {
					continue
				}
				for k := 0; k < 4; k++ {
					if x2 := bc[2]*4 + k; x2 < d2 {
						out[(x0*d1+x1)*d2+x2] = src[(i*4+j)*4+k]
					}
				}
			}
		}
	}
}

func clamp(x, n int) int {
	if x >= n {
		return n - 1
	}
	return x
}

// negabinary mask for signed<->unsigned mapping (ZFP's int2uint).
const nbMask = 0xaaaaaaaaaaaaaaaa

//arcvet:ignore mathbits negabinary deliberately reinterprets the sign bit pattern
func int2uint(x int64) uint64 { return (uint64(x) + nbMask) ^ nbMask }

//arcvet:ignore mathbits negabinary deliberately reinterprets the sign bit pattern
func uint2int(x uint64) int64 { return int64((x ^ nbMask) - nbMask) }
