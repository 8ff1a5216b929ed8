// Kernel microbenchmarks: throughput of the arithmetic and codec layers
// every experiment sits on.
package pair_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"pair/internal/core"
	"pair/internal/dram"
	"pair/internal/ecc"
	"pair/internal/gf256"
	"pair/internal/hamming"
	"pair/internal/memsim"
	"pair/internal/rs"
	"pair/internal/trace"
)

func BenchmarkGF256Mul(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= gf256.Mul(byte(i), byte(i>>8)|1)
	}
	_ = acc
}

func BenchmarkRSEncode2016(b *testing.B) {
	c := rs.MustNew(20, 16)
	msg := make([]byte, 16)
	rand.New(rand.NewSource(1)).Read(msg)
	cw := make([]byte, 20)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.EncodeTo(msg, cw)
	}
}

func BenchmarkRSDecodeClean(b *testing.B) {
	c := rs.MustNew(20, 16)
	d := c.NewDecoder()
	msg := make([]byte, 16)
	rand.New(rand.NewSource(1)).Read(msg)
	cw := c.Encode(msg)
	dst := make([]byte, 20)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		if _, err := d.DecodeInto(dst, cw, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSDecodeTwoErrors(b *testing.B) {
	c := rs.MustNew(20, 16)
	d := c.NewDecoder()
	msg := make([]byte, 16)
	rand.New(rand.NewSource(1)).Read(msg)
	cw := c.Encode(msg)
	rx := append([]byte(nil), cw...)
	rx[3] ^= 0x55
	rx[17] ^= 0xAA
	dst := make([]byte, 20)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		if _, err := d.DecodeInto(dst, rx, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpandableDecodeClean(b *testing.B) {
	e, _ := rs.NewEvaluation(20, 16)
	d := e.NewDecoder()
	msg := make([]byte, 16)
	rand.New(rand.NewSource(1)).Read(msg)
	cw := e.Encode(msg)
	dst := make([]byte, 20)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		if _, err := d.DecodeInto(dst, cw, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpandableDecodeTwoErrors(b *testing.B) {
	e, _ := rs.NewEvaluation(20, 16)
	d := e.NewDecoder()
	msg := make([]byte, 16)
	rand.New(rand.NewSource(1)).Read(msg)
	cw := e.Encode(msg)
	rx := append([]byte(nil), cw...)
	rx[3] ^= 0x55
	rx[17] ^= 0xAA
	dst := make([]byte, 20)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		if _, err := d.DecodeInto(dst, rx, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHammingDecode136(b *testing.B) {
	c := hamming.MustSEC(128)
	data := make([]byte, 16)
	for i := 0; i < 128; i += 3 {
		data[i/8] |= 1 << (i % 8)
	}
	check := c.CheckBits(data)
	data[40/8] ^= 1 << (40 % 8)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		if _, outcome := c.DecodeSyndrome(c.CheckBits(data) ^ check); outcome != hamming.Corrected {
			b.Fatal("unexpected outcome")
		}
	}
}

// BenchmarkSchemeEncodeDecode measures one line's width-1 encode and
// decode through the codec contract, on reused buffers.
func BenchmarkSchemeEncodeDecode(b *testing.B) {
	for _, mk := range []struct {
		name string
		s    ecc.Scheme
	}{
		{"iecc", ecc.NewIECC(dram.DDR4x16())},
		{"xed", ecc.NewXED(dram.DDR4x16())},
		{"duo", ecc.NewDUO(dram.DDR4x16())},
		{"pair", core.MustNew(dram.DDR4x16(), core.DefaultConfig())},
	} {
		b.Run(mk.name, func(b *testing.B) {
			line := make([]byte, 64)
			rand.New(rand.NewSource(1)).Read(line)
			lines, sts := [][]byte{line}, []*ecc.Stored{mk.s.NewStored()}
			dst, claims := [][]byte{make([]byte, 64)}, make([]ecc.Claim, 1)
			b.SetBytes(64)
			for i := 0; i < b.N; i++ {
				mk.s.EncodeBatchInto(sts, lines)
				if mk.s.DecodeBatchInto(dst, sts, claims); claims[0] != ecc.ClaimClean {
					b.Fatal("clean decode failed")
				}
			}
		})
	}
}

// BenchmarkSchemeBatchDecode measures one DecodeBatchInto call over a
// clean batch of 64 images, decoded one image at a time.
func BenchmarkSchemeBatchDecode(b *testing.B) {
	for _, mk := range []struct {
		name string
		s    ecc.Scheme
	}{
		{"iecc", ecc.NewIECC(dram.DDR4x16())},
		{"xed", ecc.NewXED(dram.DDR4x16())},
		{"duo", ecc.NewDUO(dram.DDR4x16())},
		{"pair", core.MustNew(dram.DDR4x16(), core.DefaultConfig())},
	} {
		b.Run(mk.name, func(b *testing.B) {
			const width = 64
			rng := rand.New(rand.NewSource(1))
			lines := make([][]byte, width)
			dst := make([][]byte, width)
			sts := make([]*ecc.Stored, width)
			claims := make([]ecc.Claim, width)
			for i := range lines {
				lines[i] = make([]byte, 64)
				rng.Read(lines[i])
				dst[i] = make([]byte, 64)
				sts[i] = mk.s.NewStored()
			}
			mk.s.EncodeBatchInto(sts, lines)
			b.SetBytes(64 * width)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mk.s.DecodeBatchInto(dst, sts, claims)
				if claims[0] != ecc.ClaimClean {
					b.Fatal("clean batch decode failed")
				}
			}
		})
	}
}

func BenchmarkMemsim(b *testing.B) {
	wl := trace.SPECLike(4000)[0]
	cfg := memsim.DefaultConfig()
	b.SetBytes(int64(len(wl.Reqs)))
	for i := 0; i < b.N; i++ {
		res := memsim.MustRun(cfg, wl)
		if res.Cycles == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkSimThroughput measures simulator speed in simulated requests
// per wall-clock second on each builtin profile — the regression gate
// for the scheduling hot path (benchjson records the req/s metric).
func BenchmarkSimThroughput(b *testing.B) {
	wl := trace.Generate(trace.Params{
		Name: "mix", Requests: 4000, Lines: 1 << 18, Pattern: trace.Random,
		ReadFrac: 0.6, MaskedFrac: 0.3, MeanGap: 2, Window: 16, Seed: 21,
	})
	for _, spec := range []string{"ddr4-2400", "ddr5-4800", "lpddr5-6400"} {
		// Underscored name: a trailing -digits segment would be eaten by
		// benchjson's GOMAXPROCS-suffix stripper (and differ across
		// machines that do/don't print the -N suffix).
		b.Run(strings.ReplaceAll(spec, "-", "_"), func(b *testing.B) {
			cfg := memsim.MustProfile(spec).Config()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res := memsim.MustRun(cfg, wl)
				if res.Cycles == 0 {
					b.Fatal("empty run")
				}
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*len(wl.Reqs))/elapsed, "req/s")
			}
		})
	}
}
