// Package ecc defines the common framework the five evaluated ECC schemes
// implement — No-ECC, conventional In-DRAM ECC (IECC), rank-level SECDED,
// XED, DUO and (in internal/core) PAIR — plus the fault-injection bridge
// that corrupts a scheme's physical storage image and the outcome
// classification the reliability experiments use.
//
// All commodity-context schemes run on the same DDR4 x16 organization so
// the comparison is apples-to-apples: one rank access moves a 64-byte
// cache line over 4 chips x 16 pins x 8 beats. The rank-level SECDED
// baseline uses its natural 9-chip x8 ECC-DIMM organization. Reliability
// is always accounted per 64-byte line.
package ecc

import (
	"bytes"
	"fmt"

	"pair/internal/dram"
)

// Claim is what a scheme's decoder believes happened. It cannot see the
// golden data, so a "clean"/"corrected" claim may still be wrong — the
// evaluator cross-checks against the golden line to expose miscorrections.
type Claim int

const (
	// ClaimClean: no error observed.
	ClaimClean Claim = iota
	// ClaimCorrected: errors observed and (believed) repaired.
	ClaimCorrected
	// ClaimDetected: an uncorrectable pattern was flagged (DUE).
	ClaimDetected
)

func (c Claim) String() string {
	switch c {
	case ClaimClean:
		return "clean"
	case ClaimCorrected:
		return "corrected"
	case ClaimDetected:
		return "detected"
	default:
		return fmt.Sprintf("Claim(%d)", int(c))
	}
}

// Outcome is the ground-truth classification of one protected access.
type Outcome int

const (
	// OutcomeOK: data returned intact without any correction activity.
	OutcomeOK Outcome = iota
	// OutcomeCE: corrected error — data intact after repair.
	OutcomeCE
	// OutcomeDUE: detected uncorrectable error — no silent damage, but
	// the access failed (machine-check in a real system).
	OutcomeDUE
	// OutcomeSDC: silent data corruption — wrong data returned without a
	// flag, either undetected or miscorrected. The worst case.
	OutcomeSDC
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeCE:
		return "ce"
	case OutcomeDUE:
		return "due"
	case OutcomeSDC:
		return "sdc"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// IsFailure reports whether the outcome counts as a reliability failure
// (DUE or SDC).
func (o Outcome) IsFailure() bool { return o == OutcomeDUE || o == OutcomeSDC }

// Classify turns a decode result into the ground-truth outcome.
func Classify(golden, decoded []byte, claim Claim) Outcome {
	match := bytes.Equal(golden, decoded)
	switch claim {
	case ClaimDetected:
		return OutcomeDUE
	case ClaimClean:
		if match {
			return OutcomeOK
		}
		return OutcomeSDC
	case ClaimCorrected:
		if match {
			return OutcomeCE
		}
		return OutcomeSDC
	default:
		panic(fmt.Sprintf("ecc: unknown claim %v", claim))
	}
}

// Stored is the complete physical image of one protected line: one
// dram.Chip per chip the scheme stores bits on (data chips first; schemes
// with extra parity storage, like XED's inline parity line, append the
// extra images after the data chips and document the layout). Every chip
// of an image has one shape, and all of them are sliced from one buffer.
// Images come from a scheme's NewStored (built with NewImage).
type Stored struct {
	Org   dram.Organization
	Chips []dram.Chip
	buf   []byte // backs every chip's regions
	per   int    // stored bytes per chip
}

// NewImage returns a zeroed image of n chips, each a Pins x BurstLen data
// burst of org plus onDie on-die bits and xfer extension beats (0 for an
// absent region), all sliced from one buffer.
func NewImage(org dram.Organization, n, onDie, xfer int) *Stored {
	chips, buf := dram.NewChips(n, dram.Shape{Pins: org.Pins, Beats: org.BurstLen, OnDie: onDie, Xfer: xfer})
	return &Stored{Org: org, Chips: chips, buf: buf, per: len(buf) / n}
}

// ChipBytes returns chip i's stored bytes as one view of the buffer:
// its Data, then OnDie, then Xfer bytes, in the order NewChips slices
// them. A scheme's stored-byte syndrome table reads a chip through it.
func (s *Stored) ChipBytes(i int) []byte {
	return s.buf[i*s.per : (i+1)*s.per : (i+1)*s.per]
}

// Clone deep-copies the stored image (the unit of fault injection: inject
// into a clone, decode, compare with the original) with one copy.
func (s *Stored) Clone() *Stored {
	sh := s.Chips[0].Shape()
	out := NewImage(s.Org, len(s.Chips), sh.OnDie, sh.Xfer)
	copy(out.buf, s.buf)
	return out
}

// Zero clears every stored bit of the image with one clear of the buffer
// behind its chips: the image of the all-zero line under every scheme,
// since each is a linear code.
func (s *Stored) Zero() { clear(s.buf) }

// TotalBits sums stored bits over all chips.
func (s *Stored) TotalBits() int {
	n := 0
	for i := range s.Chips {
		n += s.Chips[i].TotalBits()
	}
	return n
}

// CheckShape returns an error naming the first difference when st is not
// shaped like want — chip count, then each chip's region sizes — and nil
// when the two images have the same layout.
func CheckShape(st, want *Stored) error {
	if len(st.Chips) != len(want.Chips) {
		return fmt.Errorf("ecc: image has %d chips, want %d", len(st.Chips), len(want.Chips))
	}
	for i := range st.Chips {
		if got, w := st.Chips[i].Shape(), want.Chips[i].Shape(); got != w {
			return fmt.Errorf("ecc: chip %d is shaped %+v, want %+v", i, got, w)
		}
	}
	return nil
}

// AccessCost captures the performance-relevant mechanics of a scheme; the
// timing simulator applies these mechanically. Rates are per triggering
// access (1.0 = always).
type AccessCost struct {
	// ExtraReadBeats / ExtraWriteBeats extend the burst (DUO's forwarded
	// redundancy beat).
	ExtraReadBeats  int
	ExtraWriteBeats int
	// DecodeLatencyNS is added to every read's completion (ECC decode).
	DecodeLatencyNS float64
	// ExtraWritesPerWrite issues additional write accesses per line write
	// (XED's inline parity-line update).
	ExtraWritesPerWrite float64
	// ExtraReadsPerWrite issues additional read accesses per full-line
	// write (none of the schemes need this; masked writes are separate).
	ExtraReadsPerWrite float64
	// ExtraReadsPerMaskedWrite issues additional reads per masked
	// (sub-line) write — the read-modify-write penalty.
	ExtraReadsPerMaskedWrite float64
	// DetectionRereadRate issues an additional read per read at this
	// rate (XED's catch-word reconstruction path; effectively 0 in
	// healthy devices but the knob exists for degraded-mode studies).
	DetectionRereadRate float64
}

// Scheme is one ECC architecture under evaluation, and the one codec
// contract every scheme implements. The codec calls work on batches of
// caller-owned images and lines; width 1 is the scalar case. Every scheme
// encodes and decodes its batch one image at a time, so a batch call is
// defined to equal, image by image, the same calls at width 1.
//
// Ownership rules: EncodeBatchInto overwrites every stored bit of each
// image (an image may carry fault-injection corruption from a previous
// trial), and DecodeBatchInto overwrites every byte of each line.
// Neither retains references to the caller's buffers. Implementations
// keep per-call scratch in an internal sync.Pool, so a single scheme
// value stays safe for concurrent use.
type Scheme interface {
	// Name is a short stable identifier ("pair", "xed", ...).
	Name() string
	// Org returns the DRAM organization the scheme runs on.
	Org() dram.Organization
	// StorageOverhead returns redundancy bits / data bits for the whole
	// scheme (on-die plus any capacity consumed for parity storage).
	StorageOverhead() float64
	// Cost returns the performance model parameters.
	Cost() AccessCost
	// NewStored allocates a Stored image shaped for this scheme.
	NewStored() *Stored
	// EncodeBatchInto rebuilds the physical storage image sts[i] of the
	// cache line lines[i] (Org().LineBytes() bytes) for every i.
	// len(sts) must equal len(lines).
	EncodeBatchInto(sts []*Stored, lines [][]byte)
	// DecodeBatchInto recovers dst[i] (Org().LineBytes() bytes) from the
	// possibly corrupted image sts[i] and reports the decoder's claim in
	// claims[i], for every i. dst, sts and claims must have equal lengths.
	DecodeBatchInto(dst [][]byte, sts []*Stored, claims []Claim)
}

// BatchScheme is the former name of Scheme, kept for callers that still
// assert to it.
type BatchScheme = Scheme

// EncodeEach implements EncodeBatchInto as the loop over a scheme's
// per-image encoder.
func EncodeEach(sts []*Stored, lines [][]byte, encode func(st *Stored, line []byte)) {
	if len(sts) != len(lines) {
		panic(fmt.Sprintf("ecc: EncodeBatchInto length mismatch: %d images, %d lines", len(sts), len(lines)))
	}
	for i, st := range sts {
		encode(st, lines[i])
	}
}

// DecodeEach implements DecodeBatchInto as the loop over a scheme's
// per-image decoder.
func DecodeEach(dst [][]byte, sts []*Stored, claims []Claim, decode func(dst []byte, st *Stored) Claim) {
	if len(dst) != len(sts) || len(claims) != len(sts) {
		panic(fmt.Sprintf("ecc: DecodeBatchInto length mismatch: %d lines, %d images, %d claims", len(dst), len(sts), len(claims)))
	}
	for i, st := range sts {
		claims[i] = decode(dst[i], st)
	}
}

// Encode returns a freshly allocated storage image of line: the
// allocating convenience form of a width-1 EncodeBatchInto.
func Encode(s Scheme, line []byte) *Stored {
	st := s.NewStored()
	s.EncodeBatchInto([]*Stored{st}, [][]byte{line})
	return st
}

// Decode recovers a freshly allocated line from a (possibly corrupted)
// image and reports the decoder's claim: the allocating convenience form
// of a width-1 DecodeBatchInto.
func Decode(s Scheme, st *Stored) ([]byte, Claim) {
	line := make([]byte, s.Org().LineBytes())
	claims := make([]Claim, 1)
	s.DecodeBatchInto([][]byte{line}, []*Stored{st}, claims)
	return line, claims[0]
}
