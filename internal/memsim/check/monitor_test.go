package check_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"pair/internal/memsim"
	"pair/internal/memsim/check"
	"pair/internal/trace"
)

// monitor is an observability sink over the command stream: per-kind
// command histograms, row-buffer hit breakdown, data-bus occupancy and
// the per-bank activate distribution. It recounts from the stream alone
// what the simulator reports in its Result, so comparing the two checks
// the simulator's own accounting.
type monitor struct {
	Counts   memsim.CmdCounts
	RowHits  uint64
	RowMiss  uint64
	BusBusy  uint64 // cycles of data-bus occupancy
	FirstAt  uint64
	LastAt   uint64 // includes data tail of the last burst
	started  bool
	bankACTs map[busBank]uint64
	bankAddr map[busBank]memsim.Command // a representative command per bank
	fresh    map[busBank]bool           // bank was activated since its last CAS
}

// busBank names one bank: its data bus (Command.Channel) and flat bank.
type busBank struct{ ch, fb int }

func newMonitor() *monitor {
	return &monitor{
		bankACTs: map[busBank]uint64{},
		bankAddr: map[busBank]memsim.Command{},
		fresh:    map[busBank]bool{},
	}
}

// Observe implements memsim.Observer.
func (m *monitor) Observe(c memsim.Command) {
	if !m.started {
		m.FirstAt = c.At
		m.started = true
	}
	if c.At > m.LastAt {
		m.LastAt = c.At
	}
	key := busBank{c.Channel, c.FlatBank}
	switch c.Kind {
	case memsim.CmdACT:
		m.Counts.ACT++
		m.bankACTs[key]++
		m.bankAddr[key] = c
		m.fresh[key] = true
	case memsim.CmdPRE:
		m.Counts.PRE++
	case memsim.CmdRD, memsim.CmdWR:
		if c.Kind == memsim.CmdRD {
			m.Counts.RD++
		} else {
			m.Counts.WR++
		}
		// The first CAS after an ACT is the miss that opened the row;
		// every further CAS to the open row is a hit.
		if m.fresh[key] {
			m.RowMiss++
			m.fresh[key] = false
		} else {
			m.RowHits++
		}
		m.BusBusy += c.DataEnd - c.DataStart
		if c.DataEnd > m.LastAt {
			m.LastAt = c.DataEnd
		}
	case memsim.CmdREF, memsim.CmdREFSB:
		m.Counts.REF++
	}
}

// RowHitRate returns the fraction of CAS commands that hit an open row.
func (m *monitor) RowHitRate() float64 {
	if n := m.RowHits + m.RowMiss; n > 0 {
		return float64(m.RowHits) / float64(n)
	}
	return 0
}

// BusUtilization returns data-bus occupancy over the observed span.
func (m *monitor) BusUtilization() float64 {
	if span := m.LastAt - m.FirstAt; span > 0 {
		return float64(m.BusBusy) / float64(span)
	}
	return 0
}

// Render formats the run summary.
func (m *monitor) Render() string {
	var sb strings.Builder
	c := m.Counts
	fmt.Fprintf(&sb, "commands: ACT %d  PRE %d  RD %d  WR %d  REF %d\n",
		c.ACT, c.PRE, c.RD, c.WR, c.REF)
	fmt.Fprintf(&sb, "row buffer: %.1f%% hits (%d hits / %d misses)\n",
		m.RowHitRate()*100, m.RowHits, m.RowMiss)
	fmt.Fprintf(&sb, "data bus: %.1f%% utilized (%d busy / %d observed cycles)\n",
		m.BusUtilization()*100, m.BusBusy, m.LastAt-m.FirstAt)
	if len(m.bankACTs) > 0 {
		type ba struct {
			fb busBank
			n  uint64
		}
		all := make([]ba, 0, len(m.bankACTs))
		for fb, n := range m.bankACTs {
			all = append(all, ba{fb, n})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].n != all[j].n {
				return all[i].n > all[j].n
			}
			if all[i].fb.ch != all[j].fb.ch {
				return all[i].fb.ch < all[j].fb.ch
			}
			return all[i].fb.fb < all[j].fb.fb
		})
		top := all[0]
		a := m.bankAddr[top.fb].Addr
		fmt.Fprintf(&sb, "banks: %d touched; busiest rk%d bg%d ba%d with %d ACTs (%.1f%%)\n",
			len(all), a.Rank, a.Group, a.Bank, top.n, float64(top.n)/float64(c.ACT)*100)
	}
	return sb.String()
}

func mixWorkload(requests int) trace.Workload {
	return trace.Generate(trace.Params{
		Name: "mon", Requests: requests, Lines: 1 << 14, Pattern: trace.Random,
		ReadFrac: 0.7, MaskedFrac: 0.1, MeanGap: 2, Window: 8, Seed: 9,
	})
}

func TestMonitorAgreesWithResult(t *testing.T) {
	mon := newMonitor()
	cfg := memsim.DefaultConfig()
	cfg.Observer = mon
	res := memsim.MustRun(cfg, mixWorkload(2000))

	if mon.Counts != res.Cmds {
		t.Fatalf("monitor counts %+v != Result.Cmds %+v", mon.Counts, res.Cmds)
	}
	// The monitor infers row hits from the stream alone (first CAS after
	// an ACT is the miss); it must reproduce the simulator's accounting.
	if mon.RowHits != res.RowHits || mon.RowMiss != res.RowMisses {
		t.Fatalf("monitor hits/misses %d/%d != result %d/%d",
			mon.RowHits, mon.RowMiss, res.RowHits, res.RowMisses)
	}
	if mon.BusBusy != res.BusBusyCycles {
		t.Fatalf("monitor bus busy %d != result %d", mon.BusBusy, res.BusBusyCycles)
	}
	if u := mon.BusUtilization(); u <= 0 || u > 1 {
		t.Fatalf("bus utilization %v", u)
	}

	out := mon.Render()
	for _, want := range []string{"commands:", "row buffer:", "data bus:", "banks:", "busiest"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMonitorEmpty(t *testing.T) {
	mon := newMonitor()
	if mon.RowHitRate() != 0 || mon.BusUtilization() != 0 {
		t.Fatal("empty monitor reported nonzero rates")
	}
	if out := mon.Render(); !strings.Contains(out, "commands:") {
		t.Fatalf("empty render:\n%s", out)
	}
}

func TestTracerLimitTruncates(t *testing.T) {
	var sb strings.Builder
	tr := &check.Tracer{W: &sb, Limit: 5}
	cfg := memsim.DefaultConfig()
	cfg.Observer = tr
	memsim.MustRun(cfg, mixWorkload(200))

	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("%d lines, want 5 + ellipsis", len(lines))
	}
	if !strings.Contains(lines[5], "truncated") {
		t.Fatalf("no truncation marker: %q", lines[5])
	}
	for _, ln := range lines[:5] {
		if !strings.HasPrefix(ln, "@") {
			t.Fatalf("malformed trace line %q", ln)
		}
	}
}

func TestTracerUnlimited(t *testing.T) {
	var sb strings.Builder
	tr := &check.Tracer{W: &sb}
	cfg := memsim.DefaultConfig()
	cfg.Observer = tr
	res := memsim.MustRun(cfg, mixWorkload(200))

	n := strings.Count(sb.String(), "\n")
	want := res.Cmds.ACT + res.Cmds.PRE + res.Cmds.RD + res.Cmds.WR + res.Cmds.REF
	if uint64(n) != want {
		t.Fatalf("%d trace lines, want %d commands", n, want)
	}
}
