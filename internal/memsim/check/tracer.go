package check

import (
	"fmt"
	"io"

	"pair/internal/memsim"
)

// Tracer streams every command as one line of text — the -cmdtrace mode
// of the CLIs. Lines look like:
//
//	@1184 ACT rk0 bg1 ba2 r0x1a c0x0
//	@1200 RD rk0 bg1 ba2 r0x1a c0x7 data 1216..1220
type Tracer struct {
	W io.Writer
	// Limit, when positive, caps the number of lines written (the stream
	// can be long); a final ellipsis line marks truncation.
	Limit   int
	written int
}

// Observe implements memsim.Observer.
func (t *Tracer) Observe(c memsim.Command) {
	if t.Limit > 0 {
		if t.written == t.Limit {
			fmt.Fprintln(t.W, "... (command trace truncated)")
			t.written++
			return
		}
		if t.written > t.Limit {
			return
		}
	}
	fmt.Fprintln(t.W, c)
	t.written++
}
