// Quickstart: protect a cache line with PAIR, break it three ways, watch
// the pin-aligned decoder cope.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"pair"
)

func main() {
	// Schemes are built from registry specs, name[@org][:key=val,...] —
	// "pair" is the headline pin-aligned RS(20,16), t=2, in-DRAM. Try
	// "pair@ddr5x16" or "pair:spare=3.7" for variants; `pairsim
	// -list-schemes` prints the whole registry.
	scheme, err := pair.SchemeBySpec("pair")
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(42))

	// A 64-byte cache line of "application data".
	line := make([]byte, 64)
	rng.Read(line)

	// Encode: the line is split over the rank's four x16 chips; each chip
	// access gets a pin-aligned Reed-Solomon codeword whose parity lives
	// in the on-die redundancy region.
	stored := pair.Encode(scheme, line)
	fmt.Printf("stored image: %d chips, %d bits total (%.1f%% redundancy)\n\n",
		len(stored.Chips), stored.TotalBits(), scheme.StorageOverhead()*100)

	// Case 1: a weak cell flips one bit.
	st := stored.Clone()
	st.Chips[0].Data.Flip(5, 3) // pin 5, beat 3
	report("single weak cell", scheme, line, st)

	// Case 2: a DQ pin dies — every beat on pin 9 of chip 2 is garbage.
	// Pin alignment makes this a single-symbol error.
	st = stored.Clone()
	st.Chips[2].Data.SetPinSymbolPart(9, 0, st.Chips[2].Data.PinSymbolPart(9, 0)^0xB7)
	report("dead DQ pin", scheme, line, st)

	// Case 3: two corrupted pins in one chip — needs the expanded t=2
	// code (the base RS(18,16) would have flagged this as uncorrectable).
	st = stored.Clone()
	st.Chips[1].Data.SetPinSymbolPart(3, 0, st.Chips[1].Data.PinSymbolPart(3, 0)^0x01)
	st.Chips[1].Data.SetPinSymbolPart(14, 0, st.Chips[1].Data.PinSymbolPart(14, 0)^0xFF)
	report("two corrupted pins", scheme, line, st)

	// Case 4: a whole row goes bad — beyond any per-access code's
	// correction power, but PAIR flags it instead of lying.
	st = stored.Clone()
	for p := 0; p < 16; p++ {
		st.Chips[3].Data.SetPinSymbolPart(p, 0, byte(rng.Intn(256)))
	}
	for i := 0; i < st.Chips[3].OnDie.Len(); i++ { // the on-die parity is one beat
		if rng.Intn(2) == 1 {
			st.Chips[3].OnDie.Flip(i, 0)
		}
	}
	report("row failure (whole access garbage)", scheme, line, st)

	// Case 5: a device with two known-bad pins, built as spared-PAIR
	// straight from a spec string — the repair map turns pins 3 and 7 of
	// chip 0 into erasures, so both dead pins AND a fresh weak cell still
	// decode (budget: 2*errors + erasures <= 4).
	spared, err := pair.SchemeBySpec("pair:spare=3.7")
	if err != nil {
		panic(err)
	}
	st = pair.Encode(spared, line)
	st.Chips[0].Data.SetPinSymbolPart(3, 0, st.Chips[0].Data.PinSymbolPart(3, 0)^0x5A)
	st.Chips[0].Data.SetPinSymbolPart(7, 0, st.Chips[0].Data.PinSymbolPart(7, 0)^0xC3)
	st.Chips[0].Data.Flip(12, 1)
	report("two dead pins + weak cell (spared)", spared, line, st)
}

func report(what string, scheme pair.Scheme, golden []byte, st *pair.Stored) {
	decoded, claim := pair.Decode(scheme, st)
	outcome := pair.Classify(golden, decoded, claim)
	fmt.Printf("%-36s decoder claim: %-9s  data intact: %-5v  outcome: %s\n",
		what, claim, bytes.Equal(decoded, golden), outcome)
}
