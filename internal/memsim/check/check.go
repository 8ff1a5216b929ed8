// Package check is an independent JEDEC protocol checker and
// observability layer over the memsim command stream.
//
// The timing simulator asserts its constraints implicitly, by
// construction of the scheduler's arithmetic; nothing there can tell you
// when a constraint is silently missing (the class of bug where a timing
// field is defined but never wired into schedule()). The Checker closes
// that loop: it observes the typed ACT/PRE/RD/WR/REF/REFsb command stream
// a run emits through memsim.Config.Observer and re-derives every claimed
// constraint from first principles — per-bank (tRC, tRCD, tRP, tRAS,
// tWR, tRTP), per-rank (tRRD_S, tRRD_L, tFAW), per-bus (tCCD_S, tCCD_L,
// tWTR, tRTW, data-bus overlap, burst occupancy) and refresh (tREFI
// cadence, the tRFC blackout, staggered same-bank tRFCsb windows) —
// reporting each violation with full command context. Because the checker
// shares no code with the scheduler, a bug must be made twice,
// independently, to go unseen.
//
// ForProfile derives everything the checker asserts (timing table,
// burst occupancy, per-subchannel buses, refresh mode) from a
// memsim.Profile.
package check

import (
	"fmt"

	"pair/internal/memsim"
)

// Violation is one observed protocol breach.
type Violation struct {
	Rule string         // constraint name, e.g. "tRRD_L"
	Cmd  memsim.Command // the offending command
	Prev memsim.Command // the earlier command establishing the constraint
	Need uint64         // minimum spacing in cycles (0 for state-machine rules)
	Got  int64          // observed spacing (may be negative on ordering bugs)
}

// String renders the violation with command context.
func (v Violation) String() string {
	if v.Need == 0 && v.Got == 0 {
		return fmt.Sprintf("%s: %s (after %s)", v.Rule, v.Cmd, v.Prev)
	}
	return fmt.Sprintf("%s: %s only %d cycles after %s, need %d", v.Rule, v.Cmd, v.Got, v.Prev, v.Need)
}

// seen is a command slot that may not have been observed yet.
type seen struct {
	cmd memsim.Command
	ok  bool
}

func (s *seen) set(c memsim.Command) {
	s.cmd, s.ok = c, true
}

// bankHist is the checker's per-bank state.
type bankHist struct {
	lastACT seen
	lastPRE seen
	lastRD  seen // CAS of the last read (tRTP)
	lastWR  seen // last write; its DataEnd anchors tWR
	open    bool
	everACT bool
}

// Channel-qualified keys: every piece of bus-local state is tracked per
// data bus, so independent subchannels never constrain each other while
// commands sharing a bus still do. Single-bus streams carry Channel 0
// everywhere.
type chanBank struct{ ch, fb int }
type chanRank struct{ ch, rank int }
type chanRankGroup struct{ ch, rank, group int }

// Checker verifies the JEDEC timing constraints of an observed command
// stream. Attach it via memsim.Config.Observer, run, then consult
// Violations or Err. The zero limit keeps the first 32 violations with
// full context; Total always counts all of them.
type Checker struct {
	t   memsim.Timing
	max int

	// Profile-derived stream expectations. minBurst is the clean burst
	// occupancy in cycles (4 for BL8, 8 for BL16); sameBank selects the
	// staggered REFsb refresh discipline re-derived from slotPeriod,
	// numBanks and banksPerGrp.
	minBurst    int
	sameBank    bool
	slotPeriod  uint64
	numBanks    int
	banksPerGrp int

	banks    map[chanBank]*bankHist
	rankACT  map[chanRank]seen      // last ACT per bus+rank (tRRD_S)
	groupACT map[chanRankGroup]seen // last ACT per bus+rank+group (tRRD_L)
	faw      map[chanRank]*[4]seen  // last 4 ACTs per bus+rank, oldest first
	groupCAS map[chanRankGroup]seen // last CAS per bus+rank+group (tCCD_L)
	lastCAS  map[int]seen           // any CAS per bus (tCCD_S)
	lastWR   map[int]seen           // last write per bus (tWTR anchor)
	lastRD   map[int]seen           // last read per bus (tRTW anchor)
	lastData map[int]seen           // last data burst per bus (overlap)
	lastREF  seen
	lastAt   uint64
	started  bool

	commands uint64
	total    int
	viol     []Violation
}

// ForProfile builds a checker asserting the profile's timing table with
// the profile's burst occupancy, per-bus constraint scoping and refresh
// mode. The REFsb stagger geometry is re-derived here, independently of
// the scheduler's arithmetic. Pass the profile the simulated controller
// runs to audit the model against its own claims, or a reference profile
// to audit one model against another.
func ForProfile(p *memsim.Profile) *Checker {
	c := &Checker{
		t:           p.Timing,
		max:         32,
		minBurst:    p.BurstCycles(0),
		numBanks:    p.NumBanks(),
		banksPerGrp: p.Org.BanksPerGrp,
		banks:       map[chanBank]*bankHist{},
		rankACT:     map[chanRank]seen{},
		groupACT:    map[chanRankGroup]seen{},
		faw:         map[chanRank]*[4]seen{},
		groupCAS:    map[chanRankGroup]seen{},
		lastCAS:     map[int]seen{},
		lastWR:      map[int]seen{},
		lastRD:      map[int]seen{},
		lastData:    map[int]seen{},
	}
	if p.Refresh == memsim.RefreshSameBank {
		c.sameBank = true
		c.slotPeriod = p.RefSlotPeriod()
	}
	return c
}

// Commands returns the number of commands observed.
func (c *Checker) Commands() uint64 { return c.commands }

// Total returns the total number of violations, including any beyond the
// recorded cap.
func (c *Checker) Total() int { return c.total }

// Violations returns the recorded violations (capped at 32).
func (c *Checker) Violations() []Violation { return c.viol }

// Err summarizes the run: nil when the stream was clean, otherwise an
// error naming the count and the first violation.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	return fmt.Errorf("check: %d protocol violations in %d commands; first: %s",
		c.total, c.commands, c.viol[0])
}

func (c *Checker) add(rule string, prev, cmd memsim.Command, need uint64, got int64) {
	c.total++
	if len(c.viol) < c.max {
		c.viol = append(c.viol, Violation{Rule: rule, Cmd: cmd, Prev: prev, Need: need, Got: got})
	}
}

// require asserts cmd.At >= from+need, where from is a reference point on
// the earlier command prev (its issue time or data end).
func (c *Checker) require(rule string, prev memsim.Command, from uint64, cmd memsim.Command, need int) {
	if cmd.At < from+uint64(need) {
		c.add(rule, prev, cmd, uint64(need), int64(cmd.At)-int64(from))
	}
}

func (c *Checker) bank(ch, fb int) *bankHist {
	k := chanBank{ch, fb}
	b := c.banks[k]
	if b == nil {
		b = &bankHist{}
		c.banks[k] = b
	}
	return b
}

// Observe implements memsim.Observer.
func (c *Checker) Observe(cmd memsim.Command) {
	c.commands++

	// The stream contract: events arrive in non-decreasing time order.
	if c.started && cmd.At < c.lastAt {
		c.add("event-order", memsim.Command{At: c.lastAt}, cmd, 0, int64(cmd.At)-int64(c.lastAt))
	}
	c.started = true
	if cmd.At > c.lastAt {
		c.lastAt = cmd.At
	}

	if cmd.Kind != memsim.CmdREF && cmd.Kind != memsim.CmdREFSB {
		c.checkRefreshBlackout(cmd)
	}

	switch cmd.Kind {
	case memsim.CmdACT:
		c.observeACT(cmd)
	case memsim.CmdPRE:
		c.observePRE(cmd)
	case memsim.CmdRD, memsim.CmdWR:
		c.observeCAS(cmd)
	case memsim.CmdREF, memsim.CmdREFSB:
		c.observeREF(cmd)
	}
}

// checkRefreshBlackout asserts the command lies outside the refresh
// window its mode implies. All-bank: no command may issue inside
// [k*tREFI, k*tREFI+tRFC). Same-bank: a REFsb slot fires every
// slotPeriod cycles rotating through the banks, and only commands to the
// refreshing bank must stay out of [slot, slot+tRFCsb).
func (c *Checker) checkRefreshBlackout(cmd memsim.Command) {
	if c.sameBank {
		bank := uint64(cmd.Addr.Group*c.banksPerGrp + cmd.Addr.Bank)
		g := cmd.At / c.slotPeriod
		if g < bank {
			return
		}
		g -= (g - bank) % uint64(c.numBanks)
		if g == 0 {
			return
		}
		if start := g * c.slotPeriod; cmd.At < start+uint64(c.t.TRFCSB) {
			ref := memsim.Command{Kind: memsim.CmdREFSB, At: start, FlatBank: -1, Addr: cmd.Addr}
			c.require("tRFCsb", ref, start, cmd, c.t.TRFCSB)
		}
		return
	}
	if idx := cmd.At / uint64(c.t.TREFI); idx > 0 {
		start := idx * uint64(c.t.TREFI)
		if cmd.At < start+uint64(c.t.TRFC) {
			ref := memsim.Command{Kind: memsim.CmdREF, At: start, FlatBank: -1}
			c.require("tRFC", ref, start, cmd, c.t.TRFC)
		}
	}
}

func (c *Checker) observeACT(cmd memsim.Command) {
	ch := cmd.Channel
	b := c.bank(ch, cmd.FlatBank)
	if b.open {
		c.add("ACT-on-open-row", b.lastACT.cmd, cmd, 0, 0)
	}
	if b.lastACT.ok {
		c.require("tRC", b.lastACT.cmd, b.lastACT.cmd.At, cmd, c.t.TRC)
	}
	if b.lastPRE.ok {
		c.require("tRP", b.lastPRE.cmd, b.lastPRE.cmd.At, cmd, c.t.TRP)
	}
	rank := chanRank{ch, cmd.Addr.Rank}
	if p := c.rankACT[rank]; p.ok {
		// Any two ACTs in a rank are at least tRRD_S apart; same bank
		// group tightens that to tRRD_L below.
		c.require("tRRD_S", p.cmd, p.cmd.At, cmd, c.t.TRRDS)
	}
	rg := chanRankGroup{ch, cmd.Addr.Rank, cmd.Addr.Group}
	if p := c.groupACT[rg]; p.ok {
		c.require("tRRD_L", p.cmd, p.cmd.At, cmd, c.t.TRRDL)
	}
	ring := c.faw[rank]
	if ring == nil {
		ring = &[4]seen{}
		c.faw[rank] = ring
	}
	if ring[0].ok {
		// This is the 5th ACT counted from ring[0]: at most 4 ACTs may
		// land in any tFAW window.
		c.require("tFAW", ring[0].cmd, ring[0].cmd.At, cmd, c.t.TFAW)
	}
	copy(ring[:], ring[1:])
	ring[3] = seen{}
	ring[3].set(cmd)

	b.lastACT.set(cmd)
	b.open = true
	b.everACT = true
	p := c.rankACT[rank]
	p.set(cmd)
	c.rankACT[rank] = p
	g := c.groupACT[rg]
	g.set(cmd)
	c.groupACT[rg] = g
}

func (c *Checker) observePRE(cmd memsim.Command) {
	b := c.bank(cmd.Channel, cmd.FlatBank)
	if !b.open {
		c.add("PRE-on-closed-bank", b.lastPRE.cmd, cmd, 0, 0)
	}
	if b.lastACT.ok {
		c.require("tRAS", b.lastACT.cmd, b.lastACT.cmd.At, cmd, c.t.TRAS)
	}
	if b.lastWR.ok {
		c.require("tWR", b.lastWR.cmd, b.lastWR.cmd.DataEnd, cmd, c.t.TWR)
	}
	if b.lastRD.ok {
		c.require("tRTP", b.lastRD.cmd, b.lastRD.cmd.At, cmd, c.t.TRTP)
	}
	b.lastPRE.set(cmd)
	b.open = false
}

func (c *Checker) observeCAS(cmd memsim.Command) {
	ch := cmd.Channel
	b := c.bank(ch, cmd.FlatBank)
	if !b.open {
		c.add("CAS-on-closed-bank", b.lastACT.cmd, cmd, 0, 0)
	}
	if b.lastACT.ok {
		c.require("tRCD", b.lastACT.cmd, b.lastACT.cmd.At, cmd, c.t.TRCD)
	}
	if p := c.lastCAS[ch]; p.ok {
		c.require("tCCD_S", p.cmd, p.cmd.At, cmd, c.t.TCCDS)
	}
	rg := chanRankGroup{ch, cmd.Addr.Rank, cmd.Addr.Group}
	if p := c.groupCAS[rg]; p.ok {
		c.require("tCCD_L", p.cmd, p.cmd.At, cmd, c.t.TCCDL)
	}
	isWrite := cmd.Kind == memsim.CmdWR
	if isWrite {
		if p := c.lastRD[ch]; p.ok {
			c.require("tRTW", p.cmd, p.cmd.DataEnd, cmd, c.t.TRTW)
		}
	} else {
		if p := c.lastWR[ch]; p.ok {
			c.require("tWTR", p.cmd, p.cmd.DataEnd, cmd, c.t.TWTR)
		}
	}

	// Data burst well-formedness and bus occupancy.
	casToData := c.t.CL
	rule := "CL"
	if isWrite {
		casToData = c.t.CWL
		rule = "CWL"
	}
	if cmd.DataStart != cmd.At+uint64(casToData) {
		c.add(rule, cmd, cmd, uint64(casToData), int64(cmd.DataStart)-int64(cmd.At))
	}
	if cmd.DataEnd <= cmd.DataStart {
		c.add("empty-burst", cmd, cmd, 0, 0)
	} else if cmd.DataEnd-cmd.DataStart < uint64(c.minBurst) {
		// A full burst occupies BurstLen/2 cycles; a shorter window means
		// the emitter is still assuming a shorter burst length (the BL8
		// literal bug class).
		c.add("burst-short", cmd, cmd, uint64(c.minBurst), int64(cmd.DataEnd)-int64(cmd.DataStart))
	}
	if p := c.lastData[ch]; p.ok && cmd.DataStart < p.cmd.DataEnd {
		c.add("bus-overlap", p.cmd, cmd, 0,
			int64(cmd.DataStart)-int64(p.cmd.DataEnd))
	}

	if isWrite {
		b.lastWR.set(cmd)
		w := c.lastWR[ch]
		w.set(cmd)
		c.lastWR[ch] = w
	} else {
		b.lastRD.set(cmd)
		r := c.lastRD[ch]
		r.set(cmd)
		c.lastRD[ch] = r
	}
	p := c.lastCAS[ch]
	p.set(cmd)
	c.lastCAS[ch] = p
	g := c.groupCAS[rg]
	g.set(cmd)
	c.groupCAS[rg] = g
	d := c.lastData[ch]
	d.set(cmd)
	c.lastData[ch] = d
}

func (c *Checker) observeREF(cmd memsim.Command) {
	if c.sameBank {
		if cmd.Kind == memsim.CmdREF {
			// An all-bank REF in a same-bank profile means the emitter and
			// the profile disagree about the refresh discipline.
			c.add("refresh-mode", memsim.Command{}, cmd, 0, 0)
			return
		}
		if cmd.At%c.slotPeriod != 0 {
			c.add("tREFIsb-align", memsim.Command{}, cmd, 0, int64(cmd.At%c.slotPeriod))
		} else {
			slot := cmd.At / c.slotPeriod
			want := int(slot % uint64(c.numBanks))
			got := cmd.Addr.Group*c.banksPerGrp + cmd.Addr.Bank
			if got != want {
				// The stagger rotation is fixed: slot g refreshes bank
				// g mod banks.
				c.add("REFsb-bank", memsim.Command{}, cmd, uint64(want), int64(got))
			}
		}
	} else {
		if cmd.Kind == memsim.CmdREFSB {
			c.add("refresh-mode", memsim.Command{}, cmd, 0, 0)
			return
		}
		if cmd.At%uint64(c.t.TREFI) != 0 {
			c.add("tREFI-align", memsim.Command{}, cmd, 0, int64(cmd.At%uint64(c.t.TREFI)))
		}
	}
	if c.lastREF.ok && cmd.At <= c.lastREF.cmd.At {
		c.add("tREFI-order", c.lastREF.cmd, cmd, 0, int64(cmd.At)-int64(c.lastREF.cmd.At))
	}
	c.lastREF.set(cmd)
}
