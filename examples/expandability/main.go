// Expandability example: the property the paper's title is about. A
// vendor ships DRAM with the base RS(18,16) pin-aligned code; later (for
// a weak die, or a high-reliability SKU) the correction capability is
// raised to t=2 by *appending* two evaluation symbols to the spare-column
// region — without rewriting one bit of the already-programmed array.
//
//	go run ./examples/expandability
package main

import (
	"fmt"
	"math/rand"

	"pair"
	"pair/internal/rs"
)

func main() {
	rng := rand.New(rand.NewSource(1))

	// --- Code level -----------------------------------------------------
	fmt.Println("code level: RS(18,16) -> RS(20,16) by appending evaluations")
	base, _ := rs.NewEvaluation(18, 16)
	expanded, _ := base.Expand(2)

	msg := make([]byte, 16)
	rng.Read(msg)
	cwBase := base.Encode(msg)
	cwFull, _ := base.ExtendCodeword(cwBase, expanded)
	fmt.Printf("  base codeword:      %x\n", cwBase)
	fmt.Printf("  expanded codeword:  %x\n", cwFull)
	fmt.Printf("  first 18 symbols unchanged: %v\n\n", equal(cwBase, cwFull[:18]))

	// Two symbol errors: base code (t=1) must give up, expanded corrects.
	rx := append([]byte(nil), cwBase...)
	rx[2] ^= 0x5A
	rx[11] ^= 0xC3
	_, errBase := base.NewDecoder().DecodeInto(rx, rx, nil)
	rxFull := append([]byte(nil), cwFull...)
	rxFull[2] ^= 0x5A
	rxFull[11] ^= 0xC3
	nFixed, errFull := expanded.NewDecoder().DecodeInto(rxFull, rxFull, nil)
	fmt.Printf("  double error: base decoder says %q, expanded decoder fixed %d symbols (err=%v)\n\n",
		errMsg(errBase), nFixed, errFull)

	// --- Architecture level ----------------------------------------------
	fmt.Println("architecture level: upgrade a stored image in place")
	baseScheme := pair.NewPAIRBase()
	fullScheme := pair.NewPAIR()

	line := make([]byte, 64)
	rng.Read(line)
	stored := pair.Encode(baseScheme, line)
	upgraded, err := fullScheme.ExpandStored(baseScheme, stored)
	if err != nil {
		panic(err)
	}
	same := true
	for i := range stored.Chips {
		if !equal(upgraded.Chips[i].Data.Bits, stored.Chips[i].Data.Bits) {
			same = false
		}
		// The on-die region is one beat; its first 16 bits are the base
		// parity.
		for j := 0; j < 16; j++ {
			if upgraded.Chips[i].OnDie.Get(j, 0) != stored.Chips[i].OnDie.Get(j, 0) {
				same = false
			}
		}
	}
	fmt.Printf("  data and base parity preserved verbatim: %v\n", same)

	// The upgraded image now survives a double-pin failure.
	upgraded.Chips[0].Data.SetPinSymbolPart(1, 0, 0x00)
	upgraded.Chips[0].Data.SetPinSymbolPart(8, 0, 0xFF)
	decoded, claim := pair.Decode(fullScheme, upgraded)
	fmt.Printf("  double-pin failure after upgrade: claim=%v, outcome=%v\n",
		claim, pair.Classify(line, decoded, claim))
}

func equal(a, b []byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func errMsg(err error) string {
	if err == nil {
		return "corrected (!)"
	}
	return err.Error()
}
