// Repair-flow example: the vendor lifecycle PAIR's expandability and pin
// alignment enable, end to end on a DDR5 device.
//
//  1. Ship: DDR5 x16 BL16 with the base RS(34,32) code (t=1).
//
//  2. Field: DQ pin 6 of chip 1 degrades. On BL16 a pin carries TWO
//     symbols, so the base code starts flagging uncorrectable accesses.
//
//  3. Repair, step 1 — expand: the controller writes two expansion
//     symbols per access into the spare-column region (no stored data
//     rewritten) and switches to the RS(36,32) t=2 decoder. The dead
//     pin is again correctable.
//
//  4. Repair, step 2 — spare: test flow confirms pin 6 is dead; marking
//     it spared turns its two symbols into erasures, leaving budget for
//     one more fresh error per access on top of the dead pin.
//
//     go run ./examples/repairflow
package main

import (
	"fmt"
	"math/rand"

	"pair"
)

func main() {
	org := pair.DDR5x16()
	base, err := pair.NewPAIRWith(org, pair.PAIRConfig{BaseParity: 2, Expansion: 0, DecodeLatencyNS: 2})
	check(err)
	full, err := pair.NewPAIRWith(org, pair.PAIRConfig{BaseParity: 2, Expansion: 2, DecodeLatencyNS: 2})
	check(err)

	rng := rand.New(rand.NewSource(9))
	line := make([]byte, org.LineBytes())
	rng.Read(line)

	fmt.Printf("1. shipped: DDR5 x16 BL16, RS(%d,32) t=%d\n", base.CodewordLength(), base.T())
	stored := pair.Encode(base, line)

	// Field failure: pin 6 of chip 1 dies (both symbol halves garbage).
	deadChip, deadPin := 1, 6
	kill := func(st *pair.Stored) {
		for part := 0; part < 2; part++ {
			old := st.Chips[deadChip].Data.PinSymbolPart(deadPin, part)
			st.Chips[deadChip].Data.SetPinSymbolPart(deadPin, part, old^byte(1+rng.Intn(255)))
		}
	}
	st := stored.Clone()
	kill(st)
	_, claim := pair.Decode(base, st)
	fmt.Printf("2. pin %d of chip %d dies -> two bad symbols; base decoder: %v\n", deadPin, deadChip, claim)

	// Repair step 1: in-place expansion to t=2.
	upgraded, err := full.ExpandStored(base, stored)
	check(err)
	st = upgraded.Clone()
	kill(st)
	decoded, claim := pair.Decode(full, st)
	fmt.Printf("3. expand to RS(%d,32) t=%d in place (stored data untouched); decoder: %v, outcome: %v\n",
		full.CodewordLength(), full.T(), claim, pair.Classify(line, decoded, claim))

	// Repair step 2: mark the pin spared; now a fresh weak cell on
	// another pin is also survivable.
	spared, err := full.WithSparedPins(map[int][]int{deadChip: {deadPin}})
	check(err)
	st = upgraded.Clone()
	kill(st)
	st.Chips[deadChip].Data.Flip(11, 13) // fresh weak cell, third symbol
	if d, c := pair.Decode(full, st.Clone()); pair.Classify(line, d, c).IsFailure() {
		fmt.Printf("4. dead pin + fresh cell = 3 bad symbols: plain t=2 decoder fails (%v)...\n", c)
	}
	decoded, claim = pair.Decode(spared, st)
	fmt.Printf("   ...spared decoder (pin as erasure): %v, outcome: %v\n",
		claim, pair.Classify(line, decoded, claim))
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
