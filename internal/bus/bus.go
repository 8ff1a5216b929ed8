// Package bus models the DDR4 data-bus signaling cost that differentiates
// the ECC architectures: driven zeros under Data Bus Inversion (DBI).
//
// DDR4 x16 devices drive a terminated (POD12) bus where transmitting a
// zero burns static current; the DBI-DC scheme inverts any byte lane with
// more than four zeros and asserts a ninth (DBI) line, roughly halving
// worst-case zero counts. XED cannot use DBI: its catch-word signaling
// repurposes exactly this side-band/encoding freedom (per the ISCA 2016
// design), so an XED system drives the bus un-inverted — the power-side
// cost the PAIR paper's comparison context implies. DUO transfers extra
// beats; PAIR changes nothing.
//
// The model is deliberately at the accounting level the study needs: it
// counts driven zeros (a static power proxy) per lane-beat and their
// uniform-random expectation, with and without DBI.
package bus

import "math/bits"

// DBIThreshold is the zero-count above which DBI-DC inverts a byte lane.
const DBIThreshold = 4

// LaneBeat is the unit the bus drives: one byte lane in one beat.
// EncodeDBI returns the wire byte and whether the DBI line is asserted.
func EncodeDBI(data byte) (wire byte, invert bool) {
	zeros := 8 - bits.OnesCount8(data)
	if zeros > DBIThreshold {
		return ^data, true
	}
	return data, false
}

// ZerosDriven counts the zero bits the bus drives for one lane-beat under
// the given DBI mode, including the DBI line itself (driven low = zero
// when asserted, matching DDR4's active-low DBI_n convention where an
// asserted DBI costs one driven zero).
func ZerosDriven(data byte, dbi bool) int {
	if !dbi {
		return 8 - bits.OnesCount8(data)
	}
	wire, invert := EncodeDBI(data)
	z := 8 - bits.OnesCount8(wire)
	if invert {
		z++ // DBI_n driven low
	}
	return z
}

// ExpectedZerosPerByte returns the exact expectation of ZerosDriven for a
// uniformly random data byte, with or without DBI — the number the
// energy-proxy table uses for trace-free accounting.
func ExpectedZerosPerByte(dbi bool) float64 {
	total := 0
	for v := 0; v < 256; v++ {
		total += ZerosDriven(byte(v), dbi)
	}
	return float64(total) / 256.0
}

// AccessEnergyProxy estimates the driven-zero count of one 64-byte line
// transfer: lanes x beats x expected zeros, scaled by extraBeats beyond
// BL8 (DUO's extension) and by trafficFactor (XED's doubled write
// traffic). It is a relative proxy, not joules.
func AccessEnergyProxy(lanes, beats int, dbi bool, extraBeats int, trafficFactor float64) float64 {
	perByte := ExpectedZerosPerByte(dbi)
	return float64(lanes) * float64(beats+extraBeats) * perByte * trafficFactor
}
