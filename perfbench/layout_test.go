package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"testing"

	arc "repro"
	"repro/internal/core"
)

// stream writes data as an ARC stream with the named configuration and
// a small chunk size, so the stream has several chunks and a short last
// one.
func stream(t *testing.T, config string, data []byte, chunk int) []byte {
	t.Helper()
	a, err := arc.InitWithOptions(1, arc.Options{CacheDir: "-", TrainSampleBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cfg, err := core.ParseConfig(config)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := a.NewWriterChoice(&buf, arc.Choice{Config: cfg, Threads: 1}, arc.StreamOptions{ChunkSize: chunk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func decodeStream(t *testing.T, s []byte) ([]byte, arc.StreamReport) {
	t.Helper()
	r := arc.NewReader(bytes.NewReader(s), 1)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got, r.Report()
}

func TestParseStreamMatchesInspectStream(t *testing.T) {
	data := randBytes(300<<10+123, 1)
	for _, config := range []string{"secded64", "rs-m15"} {
		s := stream(t, config, data, 64<<10)
		chunks, err := parseStream(s)
		if err != nil {
			t.Fatal(err)
		}
		infos, err := arc.InspectStream(bytes.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != len(infos) {
			t.Fatalf("%s: %d chunks, InspectStream %d", config, len(chunks), len(infos))
		}
		for i, in := range infos {
			c := chunks[i]
			if in.OrigLen != c.OrigLen || in.EncLen != c.EncLen || in.DevSize != c.DevSize || in.Config.String() != config {
				t.Fatalf("%s chunk %d: parsed %+v, InspectStream %+v", config, i, c, in)
			}
		}
	}
}

// TestSECDEDFlipsWithinBudget pins that every flip lands in the data
// bytes of its own codeword, and that the stream decodes bit-exactly
// with one repaired bit per flip.
func TestSECDEDFlipsWithinBudget(t *testing.T) {
	data := randBytes(300<<10+5, 2)
	clean := stream(t, "secded64", data, 64<<10)
	chunks, err := parseStream(clean)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		const n = 700
		bits, err := secdedFlips(chunks, n, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		words := map[[2]int64]bool{}
		for _, b := range bits {
			byteOff := b / 8
			inData := false
			for ci, c := range chunks {
				lo := c.PayloadOff()
				if byteOff >= lo && byteOff < lo+int64(c.OrigLen) {
					inData = true
					w := [2]int64{int64(ci), (byteOff - lo) / 8}
					if words[w] {
						t.Fatalf("seed %d: two flips in chunk %d codeword %d", seed, w[0], w[1])
					}
					words[w] = true
				}
			}
			if !inData {
				t.Fatalf("seed %d: flip at byte %d is outside every chunk's data bytes", seed, byteOff)
			}
		}
		if len(bits) != n {
			t.Fatalf("seed %d: %d flips, want %d", seed, len(bits), n)
		}
		s := append([]byte(nil), clean...)
		flipBits(s, bits)
		got, rep := decodeStream(t, s)
		if !bytes.Equal(got, data) {
			t.Fatalf("seed %d: decoded bytes differ", seed)
		}
		if rep.CorrectedBits != n || rep.CorrectedBlocks != n || rep.DetectedBlocks != n {
			t.Fatalf("seed %d: report %+v, injected %d", seed, rep, n)
		}
	}
}

// TestRSDamageWithinBudget pins that damage touches at most perStripe
// whole devices per stripe and never a header or CRC table, and that
// the stream decodes bit-exactly with one rebuilt device per damaged
// device.
func TestRSDamageWithinBudget(t *testing.T) {
	data := randBytes(700<<10+77, 3)
	clean := stream(t, "rs-m15", data, 300<<10)
	chunks, err := parseStream(clean)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		const stripes, per = 3, 15
		devs, err := rsDamage(chunks, stripes, per, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if len(devs) != stripes*per {
			t.Fatalf("seed %d: %d devices, want %d", seed, len(devs), stripes*per)
		}
		perStripe := map[int64]int{}
		seen := map[int64]bool{}
		for _, d := range devs {
			found := false
			for _, c := range chunks {
				_, ns, stripeEnc := c.rsStripes()
				rel := d.Off - c.PayloadOff()
				if rel < 0 || rel >= int64(ns*stripeEnc) {
					continue
				}
				found = true
				inStripe := rel % int64(stripeEnc)
				if d.Len != c.DevSize || inStripe%int64(c.DevSize) != 0 || inStripe+int64(d.Len) > int64(rsTotalDevices*c.DevSize) {
					t.Fatalf("seed %d: damage %+v is not one whole device of chunk %+v", seed, d, c)
				}
				perStripe[c.PayloadOff()+rel-inStripe]++
			}
			if !found || seen[d.Off] {
				t.Fatalf("seed %d: damage %+v outside every payload or repeated", seed, d)
			}
			seen[d.Off] = true
		}
		for base, k := range perStripe {
			if k > per {
				t.Fatalf("seed %d: stripe at %d loses %d devices, budget %d", seed, base, k, per)
			}
		}
		s := append([]byte(nil), clean...)
		smash(s, devs, rand.New(rand.NewSource(seed)))
		got, rep := decodeStream(t, s)
		if !bytes.Equal(got, data) {
			t.Fatalf("seed %d: decoded bytes differ", seed)
		}
		if rep.CorrectedBlocks != len(devs) || rep.DetectedBlocks != len(devs) || rep.CorrectedBits != 0 {
			t.Fatalf("seed %d: report %+v, damaged %d devices", seed, rep, len(devs))
		}
	}
}

func TestRSDamageRefusesOverBudget(t *testing.T) {
	clean := stream(t, "rs-m15", randBytes(100<<10, 4), 0)
	chunks, err := parseStream(clean)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rsDamage(chunks, 1, 16, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("16 devices per stripe of rs-m15 accepted")
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metrics the final line
// carries identical to BENCHMARK.json's.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		name  string
		json  []struct{ Name, Unit string }
		units map[string]string
	}{{"end_to_end", b.EndToEnd, endToEndUnits}, {"per_layer", b.PerLayer, perLayerUnits}} {
		if len(set.json) != len(set.units) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", set.name, len(set.json), len(set.units))
		}
		for _, m := range set.json {
			if u, ok := set.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json metric %s (%s), benchmark unit %q", set.name, m.Name, m.Unit, u)
			}
		}
	}
}
