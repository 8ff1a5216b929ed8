package schemes

import (
	"fmt"
	"strings"

	"pair/internal/ecc"
)

// costSummary renders an AccessCost as a compact human-readable string
// for listings ("-" for a free scheme), so the listed cost model always
// reflects the scheme's actual cost hooks.
func costSummary(c ecc.AccessCost) string {
	var parts []string
	if c.ExtraReadBeats != 0 {
		parts = append(parts, fmt.Sprintf("+%d rd beat", c.ExtraReadBeats))
	}
	if c.ExtraWriteBeats != 0 {
		parts = append(parts, fmt.Sprintf("+%d wr beat", c.ExtraWriteBeats))
	}
	if c.DecodeLatencyNS != 0 {
		parts = append(parts, fmt.Sprintf("%.1fns dec", c.DecodeLatencyNS))
	}
	if c.ExtraWritesPerWrite != 0 {
		parts = append(parts, fmt.Sprintf("+%g wr/wr", c.ExtraWritesPerWrite))
	}
	if c.ExtraReadsPerWrite != 0 {
		parts = append(parts, fmt.Sprintf("+%g rd/wr", c.ExtraReadsPerWrite))
	}
	if c.ExtraReadsPerMaskedWrite != 0 {
		parts = append(parts, fmt.Sprintf("+%g rd/masked-wr", c.ExtraReadsPerMaskedWrite))
	}
	if c.DetectionRereadRate != 0 {
		parts = append(parts, fmt.Sprintf("+%g reread/rd", c.DetectionRereadRate))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ", ")
}

// ListText renders the registry as the text every CLI prints for
// -list-schemes: the spec grammar, one line per scheme (organizations
// with the default starred, codec, cost model on the default
// organization), the per-scheme option keys, the registered
// organizations and the named sets. The output is deterministic; CI
// diffs it against the README scheme table so docs cannot drift.
func ListText() string {
	var b strings.Builder
	b.WriteString("scheme spec grammar: name[@org][:key=val,...]   e.g. pair@ddr5x16, pair:spare=3.7\n\n")

	b.WriteString("schemes\n")
	for _, e := range All() {
		fmt.Fprintf(&b, "  %-10s %s\n", e.ID, e.Description)
	}
	b.WriteString("\n")

	fmt.Fprintf(&b, "%-10s %-44s %-24s %s\n", "scheme", "organizations (default *)", "codec", "cost model")
	for _, e := range All() {
		orgs := make([]string, len(e.Orgs))
		for i, id := range e.Orgs {
			orgs[i] = id
			if id == e.DefaultOrg {
				orgs[i] += "*"
			}
		}
		s, err := New(e.ID)
		if err != nil {
			panic(err) // registration already proved the default builds
		}
		fmt.Fprintf(&b, "%-10s %-44s %-24s %s\n", e.ID, strings.Join(orgs, " "), e.Codec, costSummary(s.Cost()))
	}

	b.WriteString("\noptions\n")
	for _, e := range All() {
		if len(e.Options) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %s:\n", e.ID)
		for _, o := range e.Options {
			fmt.Fprintf(&b, "    %-8s %s\n", o.Key, o.Doc)
		}
	}

	b.WriteString("\norganizations\n")
	for _, o := range orgReg.All() {
		fmt.Fprintf(&b, "  %-10s %s\n", o.ID, o.Description)
	}

	b.WriteString("\nsets\n")
	for _, s := range setReg.All() {
		fmt.Fprintf(&b, "  %-10s %-52s %s\n", s.ID, strings.Join(s.Specs, ","), s.Description)
	}
	return b.String()
}
