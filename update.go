package pair

import (
	"fmt"

	"pair/internal/ecc"
)

// Update performs a masked (partial) write against a stored image: the
// bytes data[0:len(data)] replace the line content at byte offset off,
// and the image is re-encoded.
//
// This is the read-modify-write every per-access ECC scheme performs for
// sub-line writes — the operation the timing model charges as
// ExtraReadsPerMaskedWrite. It decodes the current image first, so a
// masked write on top of latent corruption behaves like real hardware:
// correctable errors are scrubbed in passing; an uncorrectable pattern
// surfaces as an error here instead of being silently folded into fresh
// parity. An image not shaped like the scheme's own is an error too.
func Update(scheme Scheme, st *Stored, off int, data []byte) (*Stored, error) {
	lineBytes := scheme.Org().LineBytes()
	if off < 0 || off+len(data) > lineBytes {
		return nil, fmt.Errorf("pair: update [%d,%d) outside %d-byte line", off, off+len(data), lineBytes)
	}
	if err := ecc.CheckShape(st, scheme.NewStored()); err != nil {
		return nil, fmt.Errorf("pair: update of a non-%s image: %w", scheme.Name(), err)
	}
	current, claim := ecc.Decode(scheme, st)
	if claim == ecc.ClaimDetected {
		return nil, fmt.Errorf("pair: masked write hit an uncorrectable line")
	}
	merged := make([]byte, lineBytes)
	copy(merged, current)
	copy(merged[off:], data)
	return ecc.Encode(scheme, merged), nil
}
