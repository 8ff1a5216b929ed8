package faults

import (
	"fmt"
	"strings"
)

// ListFaultsText renders the scenario registry as the text every CLI
// prints for -list-faults: the spec grammar, one line per scenario and
// the per-scenario option keys. The output is deterministic; CI diffs it
// against the README fault-scenario table so docs cannot drift.
func ListFaultsText() string {
	var b strings.Builder
	b.WriteString("fault spec grammar: name[:key=val,...] or compose(spec,spec,...)   e.g. pinburst:b=4, compose(pin,inherent:ber=1e-5)\n\n")

	b.WriteString("scenarios\n")
	for _, e := range scenarios.All() {
		fmt.Fprintf(&b, "  %-14s %s\n", e.ID, e.Description)
	}

	b.WriteString("\noptions\n")
	for _, e := range scenarios.All() {
		if len(e.Options) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %s:\n", e.ID)
		for _, o := range e.Options {
			fmt.Fprintf(&b, "    %-8s %s\n", o.Key, o.Doc)
		}
	}
	return b.String()
}
