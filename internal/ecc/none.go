package ecc

import "pair/internal/dram"

// None is the unprotected baseline: data is stored as-is and every read is
// believed clean. It anchors both the reliability floor and the
// performance ceiling (normalization target of the paper's Figure 4).
type None struct {
	org dram.Organization
}

// NewNone returns the unprotected scheme on the given organization.
func NewNone(org dram.Organization) *None {
	if err := org.Validate(); err != nil {
		panic(err)
	}
	return &None{org: org}
}

// Name implements Scheme.
func (n *None) Name() string { return "none" }

// Org implements Scheme.
func (n *None) Org() dram.Organization { return n.org }

// NewStored implements Scheme.
func (n *None) NewStored() *Stored { return NewImage(n.org, n.org.ChipsPerRank, 0, 0) }

// EncodeBatchInto implements Scheme.
func (n *None) EncodeBatchInto(sts []*Stored, lines [][]byte) { EncodeEach(sts, lines, n.encode) }

// encode stores the line as-is.
func (n *None) encode(st *Stored, line []byte) {
	for i := range st.Chips {
		dram.SplitChip(&n.org, line, i, st.Chips[i].Data)
	}
}

// DecodeBatchInto implements Scheme.
func (n *None) DecodeBatchInto(dst [][]byte, sts []*Stored, claims []Claim) {
	DecodeEach(dst, sts, claims, n.decode)
}

// decode reads the line back and believes it clean.
func (n *None) decode(dst []byte, st *Stored) Claim {
	for i := range st.Chips {
		dram.JoinChip(&n.org, dst, i, st.Chips[i].Data)
	}
	return ClaimClean
}

// StorageOverhead implements Scheme.
func (n *None) StorageOverhead() float64 { return 0 }

// Cost implements Scheme.
func (n *None) Cost() AccessCost { return AccessCost{} }
