package main

// ECC kernel replays: the Table 1 engine functions (arc.SecdedEncode,
// arc.ReedSolomonDecode, ...) timed alone on the bytes a workload
// protects, so the per-layer view splits ECC kernel time from the
// container and stream machinery around it.

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	arc "repro"
)

// eccCase is one replay input: the plaintext, its encoding with the
// workload's at-rest damage applied, and how many faults that damage
// is.
type eccCase struct {
	plain   []byte
	damaged []byte
	faults  int
}

type eccKernel struct {
	name     string // metric infix: secded64 or rs15
	encode   func(plain []byte) ([]byte, error)
	decode   func(enc []byte, origLen int) ([]byte, arc.Report, error)
	repaired func(arc.Report) int
}

// replayRounds is how many times each case is encoded and decoded; the
// reported MB/s is the median over rounds.
const replayRounds = 5

// time replays every case replayRounds times, checks each decode
// against the plaintext and the damage, and records
// ecc.<name>.{encode,decode}_mb_s.
func (k eccKernel) time(cases []eccCase, t *tracer, o *outcome) error {
	total := 0
	for _, c := range cases {
		total += len(c.plain)
	}
	var encRates, decRates []float64
	for r := 0; r < replayRounds; r++ {
		var encT, decT time.Duration
		for _, c := range cases {
			sp := t.begin("ecc."+k.name+".encode", 0, 0)
			t0 := time.Now()
			_, err := k.encode(c.plain)
			encT += time.Since(t0)
			t.end(sp)
			if err != nil {
				return err
			}
			sp = t.begin("ecc."+k.name+".decode", 0, 0)
			t0 = time.Now()
			got, rep, err := k.decode(c.damaged, len(c.plain))
			decT += time.Since(t0)
			t.end(sp)
			o.Attempted++
			switch {
			case err != nil:
				o.fail("ecc %s replay decode: %v", k.name, err)
			case !bytes.Equal(got, c.plain):
				o.fail("ecc %s replay decode returned wrong bytes", k.name)
			case k.repaired(rep) != c.faults:
				o.fail("ecc %s replay repaired %+v, injected %d", k.name, rep, c.faults)
			}
		}
		encRates = append(encRates, float64(total)/1e6/encT.Seconds())
		decRates = append(decRates, float64(total)/1e6/decT.Seconds())
	}
	o.PerLayer["ecc."+k.name+".encode_mb_s"] = median(encRates)
	o.PerLayer["ecc."+k.name+".decode_mb_s"] = median(decRates)
	return nil
}

// rawChunk describes a bare ECC stream (no container header) so the
// stream-layout fault placement applies to it unchanged.
func rawChunk(method byte, param, devSize, n int) chunk {
	return chunk{Off: -containerOverhead, Method: method, Param: param, DevSize: devSize, OrigLen: n}
}

func secdedKernel(encThreads, decWorkers int) eccKernel {
	return eccKernel{
		name:     "secded64",
		encode:   func(p []byte) ([]byte, error) { return arc.SecdedEncode(p, 64, encThreads), nil },
		decode:   func(e []byte, n int) ([]byte, arc.Report, error) { return arc.SecdedDecode(e, n, 64, decWorkers) },
		repaired: secdedRepaired,
	}
}

// secdedRepaired is the fault count a SEC-DED report accounts for:
// every damaged codeword holds one flip, so detected blocks, corrected
// blocks and corrected bits must agree. -1 when they do not.
func secdedRepaired(r arc.Report) int {
	if r.CorrectedBlocks != r.CorrectedBits || r.DetectedBlocks != r.CorrectedBits {
		return -1
	}
	return r.CorrectedBits
}

// rsRepaired is the fault count a Reed-Solomon report accounts for:
// whole devices are rebuilt and no single bits are corrected. -1 when
// the report says otherwise.
func rsRepaired(r arc.Report) int {
	if r.CorrectedBits != 0 || r.DetectedBlocks != r.CorrectedBlocks {
		return -1
	}
	return r.CorrectedBlocks
}

func rsKernel(devSize, encThreads, decWorkers int) eccKernel {
	const m = 15
	return eccKernel{
		name: "rs15",
		encode: func(p []byte) ([]byte, error) {
			return arc.ReedSolomonEncode(p, rsTotalDevices-m, m, devSize, encThreads)
		},
		decode: func(e []byte, n int) ([]byte, arc.Report, error) {
			return arc.ReedSolomonDecode(e, n, rsTotalDevices-m, m, devSize, decWorkers)
		},
		repaired: rsRepaired,
	}
}

// secdedPayloadKernel replays SEC-DED(64) over a whole checkpoint
// payload with the per-load flip count, at the save's encode threads
// and the load's decode workers.
func secdedPayloadKernel(payload []byte, choice arc.Choice, rng *rand.Rand) (eccKernel, []eccCase, error) {
	k := secdedKernel(choice.Threads, arc.AnyThreads)
	enc, err := k.encode(payload)
	if err != nil {
		return eccKernel{}, nil, err
	}
	bits, err := secdedFlips([]chunk{rawChunk(methodSECDED, 64, 0, len(payload))}, secdedFlipsPerLoad, rng)
	if err != nil {
		return eccKernel{}, nil, err
	}
	flipBits(enc, bits)
	return k, []eccCase{{payload, enc, len(bits)}}, nil
}

// rsPayloadKernel replays rs-m15 over a whole checkpoint payload with
// full-size devices and the per-load device damage.
func rsPayloadKernel(payload []byte, choice arc.Choice, rng *rand.Rand) (eccKernel, []eccCase, error) {
	if choice.Config.String() != "rs-m15" {
		return eccKernel{}, nil, fmt.Errorf("rs replay needs rs-m15, have %s", choice.Config)
	}
	const devSize = 1024
	k := rsKernel(devSize, choice.Threads, arc.AnyThreads)
	enc, err := k.encode(payload)
	if err != nil {
		return eccKernel{}, nil, err
	}
	devs, err := rsDamage([]chunk{rawChunk(methodReedSolomon, 15, devSize, len(payload))}, rsStripesPerLoad, rsDevicesPerStripe, rng)
	if err != nil {
		return eccKernel{}, nil, err
	}
	smash(enc, devs, rng)
	return k, []eccCase{{payload, enc, len(devs)}}, nil
}
