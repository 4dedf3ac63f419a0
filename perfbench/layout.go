package main

// Fault placement computed from the on-disk layouts in docs/FORMAT.md
// and docs/CONTAINER.md, not from program internals: a stream is a
// run of containers, each a 34-byte header written three times and
// then the ECC payload. SEC-DED(64) keeps the data verbatim, so data
// byte i of a chunk sits at payload offset i and codeword b covers
// bytes [8b, 8b+8). Reed-Solomon payloads are stripes of K data and M
// code devices of DevSize bytes, then a CRC-32C table of 4 bytes per
// device; any M or fewer damaged devices per stripe are rebuilt.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
)

const (
	headerLen         = 34
	headerReplicas    = 3
	containerOverhead = headerLen * headerReplicas

	methodSECDED      = 3
	methodReedSolomon = 4
	methodIndex       = 'I' // container v2 footer index chunk

	rsTotalDevices = 256 // K+M for every ARC Reed-Solomon configuration
	rsChecksumLen  = 4
)

// chunk is one container of a stream, as its first header replica
// describes it.
type chunk struct {
	Off     int64 // stream offset of the first header replica
	Method  byte
	Param   int
	DevSize int
	OrigLen int
	EncLen  int
}

// PayloadOff is the stream offset of the chunk's ECC payload.
func (c chunk) PayloadOff() int64 { return c.Off + containerOverhead }

// parseStream walks the containers of an ARC stream, stopping at a
// clean end or at a v2 index chunk. It trusts only replicas whose CRC
// checks, so it must run on an undamaged stream.
func parseStream(b []byte) ([]chunk, error) {
	var out []chunk
	off := int64(0)
	for off < int64(len(b)) {
		if int64(len(b))-off < containerOverhead {
			return nil, fmt.Errorf("layout: %d trailing bytes at offset %d", int64(len(b))-off, off)
		}
		h := b[off : off+headerLen]
		if string(h[:4]) != "ARC1" {
			return nil, fmt.Errorf("layout: bad magic at offset %d", off)
		}
		if crc32.ChecksumIEEE(h[:30]) != binary.LittleEndian.Uint32(h[30:]) {
			return nil, fmt.Errorf("layout: header CRC mismatch at offset %d", off)
		}
		c := chunk{
			Off:     off,
			Method:  h[5],
			Param:   int(binary.LittleEndian.Uint32(h[6:])),
			DevSize: int(binary.LittleEndian.Uint32(h[10:])),
			OrigLen: int(binary.LittleEndian.Uint64(h[14:])),
			EncLen:  int(binary.LittleEndian.Uint64(h[22:])),
		}
		if c.Method == methodIndex {
			break
		}
		if c.PayloadOff()+int64(c.EncLen) > int64(len(b)) {
			return nil, fmt.Errorf("layout: chunk at %d overruns the stream", off)
		}
		out = append(out, c)
		off = c.PayloadOff() + int64(c.EncLen)
	}
	return out, nil
}

// rsStripes returns the stripe geometry of a Reed-Solomon chunk.
func (c chunk) rsStripes() (k, stripes, stripeEnc int) {
	k = rsTotalDevices - c.Param
	stripeData := k * c.DevSize
	stripes = (c.OrigLen + stripeData - 1) / stripeData
	stripeEnc = rsTotalDevices * (c.DevSize + rsChecksumLen)
	return k, stripes, stripeEnc
}

// secdedFlips returns stream bit positions for n single-bit flips in n
// distinct SEC-DED(64) codewords, drawn uniformly over every chunk's
// data bytes. Each flip lies inside the data bytes of its codeword, so
// each is one correctable error.
func secdedFlips(chunks []chunk, n int, rng *rand.Rand) ([]int64, error) {
	total := 0
	for _, c := range chunks {
		if c.Method != methodSECDED || c.Param != 64 {
			return nil, fmt.Errorf("layout: chunk at %d is method %d/%d, not secded64", c.Off, c.Method, c.Param)
		}
		total += (c.OrigLen + 7) / 8
	}
	if n > total {
		return nil, fmt.Errorf("layout: %d flips exceed %d codewords", n, total)
	}
	picked := make(map[int]bool, n)
	bits := make([]int64, 0, n)
	for len(bits) < n {
		g := rng.Intn(total)
		if picked[g] {
			continue
		}
		picked[g] = true
		for _, c := range chunks {
			words := (c.OrigLen + 7) / 8
			if g >= words {
				g -= words
				continue
			}
			lo := g * 8
			width := min(8, c.OrigLen-lo)
			bits = append(bits, (c.PayloadOff()+int64(lo))*8+int64(rng.Intn(width*8)))
			break
		}
	}
	return bits, nil
}

// deviceDamage is one whole Reed-Solomon device to overwrite.
type deviceDamage struct {
	Off int64 // stream offset of the device's first byte
	Len int
}

// rsDamage picks, in each of the given number of distinct stripes of
// the stream, perStripe distinct devices (data or code, never the CRC
// table) to destroy. perStripe must not exceed M.
func rsDamage(chunks []chunk, stripes, perStripe int, rng *rand.Rand) ([]deviceDamage, error) {
	type stripeRef struct{ chunk, stripe int }
	var all []stripeRef
	for ci, c := range chunks {
		if c.Method != methodReedSolomon {
			return nil, fmt.Errorf("layout: chunk at %d is method %d, not reed-solomon", c.Off, c.Method)
		}
		if perStripe > c.Param {
			return nil, fmt.Errorf("layout: %d devices per stripe exceed m=%d", perStripe, c.Param)
		}
		_, ns, _ := c.rsStripes()
		for s := 0; s < ns; s++ {
			all = append(all, stripeRef{ci, s})
		}
	}
	if stripes > len(all) {
		return nil, fmt.Errorf("layout: %d damaged stripes exceed %d stripes", stripes, len(all))
	}
	var out []deviceDamage
	for _, i := range rng.Perm(len(all))[:stripes] {
		ref := all[i]
		c := chunks[ref.chunk]
		_, _, stripeEnc := c.rsStripes()
		base := c.PayloadOff() + int64(ref.stripe*stripeEnc)
		for _, d := range rng.Perm(rsTotalDevices)[:perStripe] {
			out = append(out, deviceDamage{Off: base + int64(d*c.DevSize), Len: c.DevSize})
		}
	}
	return out, nil
}

// flipBits flips the given stream bit positions in b (MSB-first within
// a byte, the order faultinject uses).
func flipBits(b []byte, bits []int64) {
	for _, bit := range bits {
		b[bit/8] ^= 0x80 >> (bit % 8)
	}
}

// smash overwrites every byte of each device with a different value.
func smash(b []byte, devs []deviceDamage, rng *rand.Rand) {
	for _, d := range devs {
		for i := d.Off; i < d.Off+int64(d.Len); i++ {
			b[i] ^= byte(1 + rng.Intn(255))
		}
	}
}
