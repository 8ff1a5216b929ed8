package memsim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"pair/internal/dram"
	"pair/internal/ecc"
	"pair/internal/stats"
	"pair/internal/trace"
)

// Config parameterizes one simulation run.
type Config struct {
	// Profile is the memory system the run simulates: organization,
	// timing, channel count, refresh mode and page policy. Run rejects a
	// nil Profile.
	Profile *Profile

	Ranks int
	Cost  ecc.AccessCost
	Seed  int64
	// ScrubPeriod, when positive, injects one patrol-scrub read every
	// ScrubPeriod cycles (walking the address space sequentially) — the
	// background traffic a memory-scrubbing reliability policy costs.
	ScrubPeriod uint64
	// Observer, when non-nil, receives every DRAM command the scheduler
	// issues (ACT/PRE/RD/WR/REF/REFsb) in non-decreasing time order. It
	// feeds the protocol checker and observability layers in memsim/check.
	Observer Observer
}

// DefaultConfig returns the ddr4-2400 profile's Config: one rank of a
// DDR4-2400 x16 channel with no ECC cost model.
func DefaultConfig() Config {
	return MustProfile("ddr4-2400").Config()
}

// CmdCounts tallies the DRAM commands issued during a run.
type CmdCounts struct {
	ACT, PRE, RD, WR, REF uint64
}

// Result aggregates one run.
type Result struct {
	Cycles         uint64 // completion time of the last operation
	Reads          uint64 // trace reads
	Writes         uint64 // trace writes (full + masked)
	MaskedWrites   uint64
	ExtraReads     uint64 // RMW and detection re-reads
	ExtraWrites    uint64 // companion parity writes
	RowHits        uint64
	RowMisses      uint64
	Refreshes      uint64 // REFab boundaries, or REFsb slots in same-bank mode
	ScrubReads     uint64 // injected patrol-scrub reads
	ReadLatencySum uint64 // sum over trace reads, in cycles
	// Cmds is the command-bus histogram (RD/WR include scrub and
	// ECC-cost extras; REF mirrors Refreshes and includes REFsb).
	Cmds CmdCounts
	// BusBusyCycles is the total data-bus occupancy summed over buses.
	BusBusyCycles uint64
	// ReadLatency holds the per-read latency distribution in cycles
	// (tail latency is where RMW and companion-write interference show).
	ReadLatency *stats.Histogram
}

// P99ReadLatencyNS returns the 99th-percentile trace-read latency in
// nanoseconds (0 when no reads were observed).
func (r Result) P99ReadLatencyNS(t Timing) float64 {
	if r.ReadLatency == nil || r.ReadLatency.Count() == 0 {
		return 0
	}
	return r.ReadLatency.Percentile(99) * t.NSPerCycle
}

// P999ReadLatencyNS returns the 99.9th-percentile trace-read latency in
// nanoseconds (0 when no reads were observed) — the deep-tail metric the
// traffic experiments report.
func (r Result) P999ReadLatencyNS(t Timing) float64 {
	if r.ReadLatency == nil || r.ReadLatency.Count() == 0 {
		return 0
	}
	return r.ReadLatency.Percentile(99.9) * t.NSPerCycle
}

// AvgReadLatencyNS returns the mean trace-read latency in nanoseconds.
func (r Result) AvgReadLatencyNS(t Timing) float64 {
	if r.Reads == 0 {
		return 0
	}
	return float64(r.ReadLatencySum) / float64(r.Reads) * t.NSPerCycle
}

// ExecSeconds returns wall-clock execution time.
func (r Result) ExecSeconds(t Timing) float64 {
	return float64(r.Cycles) * t.NSPerCycle * 1e-9
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (r Result) RowHitRate() float64 {
	if n := r.RowHits + r.RowMisses; n > 0 {
		return float64(r.RowHits) / float64(n)
	}
	return 0
}

// BusUtilization returns the fraction of run cycles the data buses were
// transferring. Occupancy is summed over buses, so multi-bus profiles can
// exceed 1.0 when subchannels transfer concurrently.
func (r Result) BusUtilization() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.BusBusyCycles) / float64(r.Cycles)
}

type opKind int

const (
	opRead opKind = iota
	opWrite
)

// op is one bus-level access derived from a trace request. Its bus,
// flat bank and address are mapped once, when newOp creates it.
type op struct {
	kind       opKind
	line       uint64
	bus, fb    int
	addr       dram.Address
	bank       *bankState // &buses[bus].banks[fb]
	enq        uint64     // admission time (FCFS order, latency base)
	reqIdx     int        // owning trace request, -1 for posted extras
	dependent  *op        // released when this op completes (RMW write leg)
	next, prev *op        // the bank's other queued ops, while queued
	last       bool       // completing this op completes the trace request
	isRead     bool       // trace-visible read (latency accounting)
}

type bankState struct {
	openRow int
	actOK   uint64 // earliest next ACT (tRC)
	casOK   uint64 // earliest next CAS after ACT (tRCD met)
	preOK   uint64 // earliest next PRE
	queued  *op    // the bank's queued ops of both kinds, linked by op.next and op.prev
}

// hits reports whether the op's bank has its row open.
func (o *op) hits() bool { return o.bank.openRow == o.addr.Row }

// opQueue holds one kind's pending ops, buf[head:], in (enq, admission)
// order, and counts how many of them hit their bank's open row. Taking
// the head advances head; a push that finds the buffer full moves the
// queue back to its start before it appends.
type opQueue struct {
	buf  []*op
	head int
	hits int
}

func (q *opQueue) len() int { return len(q.buf) - q.head }

// push places o after every queued op whose enq is not later than its
// own. An op admitted now goes last; an RMW write leg released by its
// read and a patrol-scrub read stamped with its scheduled time carry an
// earlier enq and move up to their place.
func (q *opQueue) push(o *op) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, o)
	for i := len(q.buf) - 1; i > q.head && q.buf[i-1].enq > o.enq; i-- {
		q.buf[i], q.buf[i-1] = q.buf[i-1], o
	}
}

type completionEvent struct {
	at     uint64
	reqIdx int
	o      *op
}

// completionQueue is a typed binary min-heap on completion time. It
// replicates container/heap's sift algorithm exactly (append + sift-up on
// push; swap-root-to-tail + sift-down on pop), because the pop order of
// equal-time completions determines pending-queue order and therefore the
// golden cycle counts.
type completionQueue []completionEvent

func (q *completionQueue) push(e completionEvent) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].at <= h[i].at {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	*q = h
}

func (q *completionQueue) pop() completionEvent {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].at < h[l].at {
			m = r
		}
		if h[i].at <= h[m].at {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e := h[n]
	*q = h[:n]
	return e
}

// busState is the timing state of one data bus (channel or subchannel):
// its banks, burst timeline, CAS/ACT history and turnaround direction.
type busState struct {
	banks       []bankState
	ranks       []rankState
	busFreeAt   uint64
	lastCASGrp  int // bank group of the previous CAS (-1 initially)
	lastCASAt   uint64
	lastWasWr   bool
	lastDataEnd uint64
}

// rankState is one rank's ACT history on a bus.
type rankState struct {
	faw        [4]uint64 // last four ACT times, a ring whose oldest is faw[fawHead]
	fawHead    uint8
	lastACT    uint64   // last ACT anywhere in the rank (tRRD_S)
	lastACTGrp []uint64 // per bank group, last ACT time (tRRD_L)
}

// refreshWindow is the refresh period holding the last time looked up:
// a tREFI interval in all-bank mode, a REFsb slot in same-bank mode.
// Commands land close to the clock, so most lookups fall in it and skip
// the division; one past every blackout in it returns at once.
type refreshWindow struct {
	sameBank bool
	period   uint64 // tREFI, or the REFsb slot period
	blackout uint64 // tRFC, or tRFCsb
	banks    uint64 // device banks, the REFsb rotation
	idx      uint64 // the window is [start, start+period), start = idx*period
	start    uint64
	slotBank uint64 // idx % banks: the bank REFsb slot idx refreshes
	// Every time in [clear, clear+clearLen) lies in the window and past
	// every blackout: clear = start+blackout, and clearLen is
	// period-blackout, or 0 when a blackout outlasts its slot.
	clear, clearLen uint64
}

// seek makes the window the one holding x.
func (w *refreshWindow) seek(x uint64) {
	if x-w.start >= w.period { // also true when x < start
		w.idx = x / w.period
		w.start = w.idx * w.period
		w.slotBank = w.idx % w.banks
		w.clear = w.start + w.blackout
	}
}

// simulator carries the run state.
type simulator struct {
	cfg    Config
	prof   *Profile
	t      *Timing // &prof.Timing
	mapper *dram.AddressMapper
	rng    *rand.Rand // nil when no cost rate is fractional

	now      uint64
	buses    []busState
	nBuses   uint64
	busShift uint8  // log2(nBuses), when busPow2
	busPow2  bool   // nBuses is a power of two: bus = line & (nBuses-1)
	totalCap uint64 // addressable lines across all buses
	capPow2  bool   // totalCap is a power of two: wrap masks

	// Per-run constants.
	burst        [2]uint64 // data-bus cycles of a read and a write burst, extra beats included
	decodeCycles uint64    // read decode latency

	refresh     refreshWindow
	lastRefresh uint64 // last REFab boundary or REFsb slot observed

	queue [2]opQueue // pending ops of each kind (indexed by opKind)
	evbuf []Command  // per-schedule event batch, sorted before delivery
	held  []Command  // future-time events (closed-page auto-PRE)
	free  []*op      // completed ops, reused by newOp

	res Result
}

// Run simulates the workload under the configuration and returns the
// aggregate result. Runs are deterministic for a fixed (Config, Workload).
// A nil or invalid Profile and an invalid rank count are reported as
// errors (the zero Ranks defaults to 1).
func Run(cfg Config, wl trace.Workload) (Result, error) {
	s, err := newSimulator(cfg)
	if err != nil {
		return Result{}, err
	}
	s.run(wl)
	return s.res, nil
}

// newSimulator validates the configuration and sets up a run's state
// and per-run constants.
func newSimulator(cfg Config) (*simulator, error) {
	prof := cfg.Profile
	if prof == nil {
		return nil, errors.New("memsim: nil Profile")
	}
	if cfg.Ranks == 0 {
		cfg.Ranks = 1
	}
	if cfg.Ranks < 0 {
		return nil, fmt.Errorf("memsim: invalid rank count %d", cfg.Ranks)
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	mapper, err := dram.NewAddressMapper(prof.Org, cfg.Ranks)
	if err != nil {
		return nil, fmt.Errorf("memsim: %w", err)
	}
	s := &simulator{
		cfg:    cfg,
		prof:   prof,
		t:      &prof.Timing,
		mapper: mapper,
	}
	// A draw decides an op only at a fractional rate. A run without one
	// seeds no RNG, and chance answers every rate without a draw.
	c := cfg.Cost
	for _, rate := range [...]float64{c.DetectionRereadRate, c.ExtraReadsPerMaskedWrite, c.ExtraWritesPerWrite, c.ExtraReadsPerWrite} {
		if rate > 0 && rate < 1 {
			s.rng = rand.New(rand.NewSource(cfg.Seed))
			break
		}
	}
	s.res.ReadLatency = stats.NewHistogram()
	s.nBuses = uint64(prof.Buses())
	s.busShift = uint8(bits.TrailingZeros64(s.nBuses))
	s.busPow2 = s.nBuses&(s.nBuses-1) == 0
	s.totalCap = mapper.Capacity() * s.nBuses
	s.capPow2 = s.totalCap&(s.totalCap-1) == 0
	s.burst = [2]uint64{
		opRead:  uint64(prof.BurstCycles(cfg.Cost.ExtraReadBeats)),
		opWrite: uint64(prof.BurstCycles(cfg.Cost.ExtraWriteBeats)),
	}
	s.decodeCycles = prof.Timing.NSToCycles(cfg.Cost.DecodeLatencyNS)
	s.refresh = refreshWindow{
		period:   uint64(prof.Timing.TREFI),
		blackout: uint64(prof.Timing.TRFC),
		banks:    uint64(prof.NumBanks()),
	}
	if prof.Refresh == RefreshSameBank {
		s.refresh.sameBank = true
		s.refresh.period = prof.RefSlotPeriod()
		s.refresh.blackout = uint64(prof.Timing.TRFCSB)
	}
	s.refresh.clear = s.refresh.blackout
	if s.refresh.blackout < s.refresh.period {
		s.refresh.clearLen = s.refresh.period - s.refresh.blackout
	}
	s.buses = make([]busState, s.nBuses)
	for bi := range s.buses {
		bus := &s.buses[bi]
		bus.lastCASGrp = -1
		bus.banks = make([]bankState, mapper.NumFlatBanks())
		for i := range bus.banks {
			bus.banks[i].openRow = -1
		}
		bus.ranks = make([]rankState, cfg.Ranks)
		for i := range bus.ranks {
			bus.ranks[i].lastACTGrp = make([]uint64, prof.Org.BankGroups)
		}
	}
	return s, nil
}

// MustRun is Run for configurations known to be valid; it panics on a
// configuration error. Intended for tests and examples.
func MustRun(cfg Config, wl trace.Workload) Result {
	res, err := Run(cfg, wl)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// newOp returns an op admitted now, reusing a completed one when it
// can. Lines interleave across buses (bus = line mod buses), so
// consecutive lines spread over channels/subchannels.
func (s *simulator) newOp(kind opKind, line uint64, reqIdx int) *op {
	var o *op
	if n := len(s.free); n > 0 {
		o, s.free = s.free[n-1], s.free[:n-1]
	} else {
		o = new(op)
	}
	*o = op{kind: kind, line: line, enq: s.now, reqIdx: reqIdx}
	var rest uint64
	if s.busPow2 {
		o.bus, rest = int(line&(s.nBuses-1)), line>>s.busShift
	} else {
		o.bus, rest = int(line%s.nBuses), line/s.nBuses
	}
	o.fb = s.mapper.Map(rest, &o.addr)
	o.bank = &s.buses[o.bus].banks[o.fb]
	return o
}

// enqueue adds an admitted op to its kind's queue, counting it if it
// hits, and to its bank's list of queued ops.
func (s *simulator) enqueue(o *op) {
	q := &s.queue[o.kind]
	if o.hits() {
		q.hits++
	}
	b := o.bank
	if o.next = b.queued; o.next != nil {
		o.next.prev = o
	}
	b.queued = o
	q.push(o)
}

// wrap folds a line index into the addressable lines.
func (s *simulator) wrap(line uint64) uint64 {
	if s.capPow2 {
		return line & (s.totalCap - 1)
	}
	return line % s.totalCap
}

func (s *simulator) run(wl trace.Workload) {
	window := wl.Window
	if window <= 0 {
		window = 8
	}
	// A request queues at most two ops of each kind, so the queues
	// rarely outgrow these, and a full buffer moves back at most once
	// per 2*window pushes.
	for k := range s.queue {
		s.queue[k].buf = make([]*op, 0, 4*window)
	}
	s.res.ReadLatency.Grow(len(wl.Reqs))
	var (
		completions completionQueue
		outstanding int
		traceIdx    int
		arrive      uint64 // issue-pipeline clock of the next trace request
		lastFinish  uint64
		nextScrub   = s.cfg.ScrubPeriod
		scrubLine   uint64
	)
	if len(wl.Reqs) > 0 {
		arrive = uint64(wl.Reqs[0].Gap)
	}
	admit := func() {
		for traceIdx < len(wl.Reqs) && arrive <= s.now && outstanding < window {
			r := wl.Reqs[traceIdx]
			s.expand(r, s.wrap(r.Line), traceIdx)
			outstanding++
			traceIdx++
			if traceIdx < len(wl.Reqs) {
				arrive += uint64(wl.Reqs[traceIdx].Gap)
				if arrive < s.now {
					arrive = s.now
				}
			}
		}
	}

	for {
		// Retire completions up to now.
		for len(completions) > 0 && completions[0].at <= s.now {
			ev := completions.pop()
			if ev.reqIdx >= 0 {
				outstanding--
			}
			if dep := ev.o.dependent; dep != nil {
				s.enqueue(dep)
			}
			s.free = append(s.free, ev.o)
		}
		admit()
		// Patrol scrub: one read per elapsed period, each stamped at its
		// scheduled time so a multi-period jump of the clock catches up
		// without compressing the ScrubReads accounting.
		for s.cfg.ScrubPeriod > 0 && s.now >= nextScrub {
			o := s.newOp(opRead, s.wrap(scrubLine), -1)
			o.enq = nextScrub
			s.enqueue(o)
			s.res.ScrubReads++
			scrubLine += 64 // stride across rows over time
			nextScrub += s.cfg.ScrubPeriod
		}

		// Pick the next operation: FR-FCFS with write draining.
		o := s.pick()
		if o == nil {
			// Nothing pending: advance time to the next event.
			next := uint64(math.MaxUint64)
			if len(completions) > 0 {
				next = completions[0].at
			}
			if traceIdx < len(wl.Reqs) && outstanding < window && arrive < next {
				next = arrive
			}
			// Patrol scrubs fire on time during request gaps — but only
			// while work remains, so a drained run still terminates.
			if s.cfg.ScrubPeriod > 0 && nextScrub < next &&
				(outstanding > 0 || traceIdx < len(wl.Reqs)) {
				next = nextScrub
			}
			if next == uint64(math.MaxUint64) {
				break // drained
			}
			s.now = next
			continue
		}
		finish := s.schedule(o)
		if finish > lastFinish {
			lastFinish = finish
		}
		if o.isRead {
			s.res.ReadLatencySum += finish - o.enq
			s.res.ReadLatency.Observe(finish - o.enq)
		}
		reqIdx := -1
		if o.last {
			reqIdx = o.reqIdx
		}
		completions.push(completionEvent{at: finish, reqIdx: reqIdx, o: o})
	}
	s.drainHeld()
	s.res.Cycles = lastFinish
}

// expand queues a trace request's bus operations, applying the ECC cost
// model.
func (s *simulator) expand(r trace.Request, line uint64, idx int) {
	cost := s.cfg.Cost
	switch r.Op {
	case trace.Read:
		s.res.Reads++
		rd := s.newOp(opRead, line, idx)
		rd.last, rd.isRead = true, true
		s.enqueue(rd)
		if s.chance(cost.DetectionRereadRate) {
			s.res.ExtraReads++
			s.enqueue(s.newOp(opRead, line, -1))
		}
	case trace.Write, trace.MaskedWrite:
		s.res.Writes++
		w := s.newOp(opWrite, line, idx)
		w.last = true
		if r.Op == trace.MaskedWrite {
			s.res.MaskedWrites++
			if s.chance(cost.ExtraReadsPerMaskedWrite) {
				// Read-modify-write: the write leg waits for the read.
				s.res.ExtraReads++
				rd := s.newOp(opRead, line, idx)
				rd.dependent = w
				s.enqueue(rd)
				w = nil // released on read completion
			}
		}
		if w != nil {
			s.enqueue(w)
		}
		if s.chance(cost.ExtraWritesPerWrite) {
			// Companion parity-image write (posted; separate region).
			s.res.ExtraWrites++
			s.enqueue(s.newOp(opWrite, s.wrap(line+s.totalCap/2), -1))
		}
		if s.chance(cost.ExtraReadsPerWrite) {
			s.res.ExtraReads++
			s.enqueue(s.newOp(opRead, line, -1))
		}
	}
}

// chance reports whether an event of probability rate happens to the
// op being expanded. Each positive rate draws once when the run has an
// RNG; without one every rate is 0 or at least 1, so no draw is needed.
func (s *simulator) chance(rate float64) bool {
	if !(rate > 0) {
		return false
	}
	return s.rng == nil || s.rng.Float64() < rate
}

// drainThreshold is the write backlog beyond which pick serves writes
// before reads.
const drainThreshold = 12

// pick removes and returns the next op, or nil if none is pending: every
// queued op is ready, because it enters the queue at or before the
// current cycle. Policy: FR-FCFS — row hits first, then oldest, then
// first in the queue — with reads prioritized over writes unless the
// write backlog exceeds the drain threshold. Each queue is in (enq,
// admission) order, so FR-FCFS's choice is the head unless a queued op
// hits, and then the first op that does.
func (s *simulator) pick() *op {
	k := opRead
	if s.queue[opWrite].len() > drainThreshold || s.queue[opRead].len() == 0 {
		k = opWrite
	}
	q := &s.queue[k]
	if q.len() == 0 {
		return nil
	}
	o := q.buf[q.head]
	if q.hits > 0 {
		i := q.head
		for !o.hits() {
			i++
			o = q.buf[i]
		}
		copy(q.buf[q.head+1:i+1], q.buf[q.head:i])
		q.hits--
	}
	q.head++
	if o.prev != nil {
		o.prev.next = o.next
	} else {
		o.bank.queued = o.next
	}
	if o.next != nil {
		o.next.prev = o.prev
	}
	return o
}

// reopened moves the hit counts after bank b's open row changed from
// old: its queued ops on old stop hitting, those on the new row start.
func (s *simulator) reopened(b *bankState, old int) {
	for o := b.queued; o != nil; o = o.next {
		switch o.addr.Row {
		case old:
			s.queue[o.kind].hits--
		case b.openRow:
			s.queue[o.kind].hits++
		}
	}
}

// refreshDefer pushes a command time out of the refresh blackout window.
// All-bank mode: a refresh starts at every multiple of tREFI (absolute
// time) and blocks every bank for tRFC. Same-bank mode: REFsb slots fire
// every tREFI/banks cycles rotating through the banks (slot g refreshes
// bank g mod banks), and only commands to the refreshing bank stall, for
// tRFCsb. The windows elapse in the background; only commands landing
// inside them are deferred. Slot 0 and refresh 0 never fire.
func (s *simulator) refreshDefer(x uint64, bankIdx int) uint64 {
	if w := &s.refresh; x-w.clear < w.clearLen {
		return x
	}
	return s.refreshDeferSlow(x, bankIdx)
}

// refreshDeferSlow is refreshDefer for a time that may lie outside the
// window or inside a blackout.
func (s *simulator) refreshDeferSlow(x uint64, bankIdx int) uint64 {
	w := &s.refresh
	w.seek(x)
	start := w.start
	if w.sameBank {
		// The bank's last refresh at or before x was d slots back.
		bank := uint64(bankIdx)
		if w.idx < bank {
			return x
		}
		d := w.slotBank + w.banks - bank
		if d >= w.banks {
			d -= w.banks
		}
		if d == w.idx {
			return x
		}
		start -= d * w.period
	} else if w.idx == 0 {
		return x
	}
	if end := start + w.blackout; x < end {
		return end
	}
	return x
}

// flushEvents delivers the step's events in time order, merging in any
// held events the clock has passed.
func (s *simulator) flushEvents() {
	if len(s.held) > 0 {
		kept := s.held[:0]
		for _, c := range s.held {
			if c.At <= s.now {
				s.evbuf = append(s.evbuf, c)
			} else {
				kept = append(kept, c)
			}
		}
		s.held = kept
	}
	if len(s.evbuf) == 0 {
		return
	}
	sort.SliceStable(s.evbuf, func(i, j int) bool { return s.evbuf[i].At < s.evbuf[j].At })
	for _, c := range s.evbuf {
		s.cfg.Observer.Observe(c)
	}
	s.evbuf = s.evbuf[:0]
}

// drainHeld delivers any still-held events at the end of the run; they
// all lie at or beyond the final clock, so time order is preserved.
func (s *simulator) drainHeld() {
	if len(s.held) == 0 {
		return
	}
	s.evbuf = append(s.evbuf, s.held...)
	s.held = s.held[:0]
	sort.SliceStable(s.evbuf, func(i, j int) bool { return s.evbuf[i].At < s.evbuf[j].At })
	for _, c := range s.evbuf {
		s.cfg.Observer.Observe(c)
	}
	s.evbuf = s.evbuf[:0]
}

// schedule issues the operation, advancing bank/bus state, and returns its
// completion cycle. Command times are planned first (every JEDEC floor is
// a lower bound, so each constraint only moves commands later), then
// committed and, with an observer, emitted in time order. Without one no
// Command is built.
func (s *simulator) schedule(o *op) uint64 {
	t := s.t
	busIdx, a, fb := o.bus, o.addr, o.fb
	bus := &s.buses[busIdx]
	b := o.bank
	bankIdx := a.Group*s.prof.Org.BanksPerGrp + a.Bank
	isWrite := o.kind == opWrite
	miss := b.openRow != a.Row

	earliest := s.refreshDefer(s.now, bankIdx)

	// Row management plan.
	var preAt, actAt, casAt uint64
	needPRE := false
	if miss {
		actFloor := earliest
		if b.openRow >= 0 {
			// A row is open: precharge it first (tRAS/tWR/tRTP hold PRE
			// back via preOK; tRP separates PRE from the next ACT).
			needPRE = true
			preAt = s.refreshDefer(max(earliest, b.preOK), bankIdx)
			actFloor = preAt + uint64(t.TRP)
		}
		// Inter-ACT constraints within the rank: tRC on the bank, tRRD_S
		// against the last ACT anywhere in the rank, tRRD_L against the
		// last ACT in the same bank group, and the tFAW window.
		rk := &bus.ranks[a.Rank]
		actAt = max(actFloor, b.actOK,
			rk.faw[rk.fawHead&3]+uint64(t.TFAW),
			rk.lastACT+uint64(t.TRRDS),
			rk.lastACTGrp[a.Group]+uint64(t.TRRDL))
		actAt = s.refreshDefer(actAt, bankIdx)
		casAt = max(earliest, actAt+uint64(t.TRCD))
	} else {
		casAt = max(earliest, b.casOK)
	}

	// CAS-to-CAS spacing by bank group, and bus turnaround — both per
	// data bus; independent subchannels do not constrain each other.
	if bus.lastCASGrp >= 0 {
		ccd := uint64(t.TCCDS)
		if bus.lastCASGrp == a.Group {
			ccd = uint64(t.TCCDL)
		}
		casAt = max(casAt, bus.lastCASAt+ccd)
	}
	if bus.lastDataEnd > 0 {
		if isWrite && !bus.lastWasWr {
			casAt = max(casAt, bus.lastDataEnd+uint64(t.TRTW))
		} else if !isWrite && bus.lastWasWr {
			casAt = max(casAt, bus.lastDataEnd+uint64(t.TWTR))
		}
	}

	// Data-bus occupancy: the burst length is profile-derived (BL8 = 4
	// cycles, BL16 = 8), extended by the scheme's extra beats.
	casToData := uint64(t.CL)
	if isWrite {
		casToData = uint64(t.CWL)
	}
	burst := s.burst[o.kind]
	if bus.busFreeAt > casAt+casToData {
		casAt = bus.busFreeAt - casToData
	}
	casAt = s.refreshDefer(casAt, bankIdx)

	dataStart := casAt + casToData
	dataEnd := dataStart + burst

	// Refresh accounting: count every refresh boundary (tREFI in all-bank
	// mode, REFsb slot in same-bank mode) the command clock crossed since
	// the last one observed.
	observed := s.cfg.Observer != nil
	w := &s.refresh
	w.seek(casAt)
	if w.idx > s.lastRefresh {
		if observed {
			for g := s.lastRefresh + 1; g <= w.idx; g++ {
				if !w.sameBank {
					s.evbuf = append(s.evbuf, Command{Kind: CmdREF, At: g * w.period, FlatBank: -1})
					continue
				}
				bank, bpg := int(g%w.banks), s.prof.Org.BanksPerGrp
				s.evbuf = append(s.evbuf, Command{Kind: CmdREFSB, At: g * w.period, FlatBank: -1, Channel: -1,
					Addr: dram.Address{Group: bank / bpg, Bank: bank % bpg}})
			}
		}
		s.res.Refreshes += w.idx - s.lastRefresh
		s.res.Cmds.REF += w.idx - s.lastRefresh
		s.lastRefresh = w.idx
	}

	// Commit state.
	closedRow := b.openRow
	if miss {
		s.res.RowMisses++
		if needPRE {
			s.res.Cmds.PRE++
		}
		rk := &bus.ranks[a.Rank]
		rk.faw[rk.fawHead&3] = actAt
		rk.fawHead++
		rk.lastACT = actAt
		rk.lastACTGrp[a.Group] = actAt
		b.actOK = actAt + uint64(t.TRC)
		b.casOK = actAt + uint64(t.TRCD)
		b.preOK = actAt + uint64(t.TRAS)
		b.openRow = a.Row
		s.res.Cmds.ACT++
	} else {
		s.res.RowHits++
	}

	s.now = casAt
	bus.lastCASGrp = a.Group
	bus.lastCASAt = casAt
	bus.lastWasWr = isWrite
	bus.lastDataEnd = dataEnd
	bus.busFreeAt = dataEnd
	b.casOK = max(b.casOK, casAt+uint64(t.TCCDL))
	if isWrite {
		b.preOK = max(b.preOK, dataEnd+uint64(t.TWR))
		s.res.Cmds.WR++
	} else {
		b.preOK = max(b.preOK, casAt+uint64(t.TRTP))
		s.res.Cmds.RD++
	}
	s.res.BusBusyCycles += burst

	closedPage := s.prof.Policy == ClosedPage
	var autoPRE uint64
	if closedPage {
		// Auto-precharge (RDA/WRA): close the row as soon as tRAS, tRTP
		// (reads) and tWR (writes) allow — preOK already carries all three
		// floors — and gate the bank's next ACT on tRP after it.
		autoPRE = s.refreshDefer(b.preOK, bankIdx)
		s.res.Cmds.PRE++
		b.openRow = -1
		b.actOK = max(b.actOK, autoPRE+uint64(t.TRP))
	}
	if b.openRow != closedRow {
		s.reopened(b, closedRow)
	}

	if observed {
		row := a // the bank's row, column 0, as PRE and ACT address it
		row.Col = 0
		if needPRE {
			closed := row
			closed.Row = closedRow
			s.evbuf = append(s.evbuf, Command{Kind: CmdPRE, At: preAt, Addr: closed, FlatBank: fb, Channel: busIdx})
		}
		if miss {
			s.evbuf = append(s.evbuf, Command{Kind: CmdACT, At: actAt, Addr: row, FlatBank: fb, Channel: busIdx})
		}
		kind := CmdRD
		if isWrite {
			kind = CmdWR
		}
		s.evbuf = append(s.evbuf, Command{Kind: kind, At: casAt, Addr: a, FlatBank: fb, Channel: busIdx,
			Line: o.line, DataStart: dataStart, DataEnd: dataEnd})
		if closedPage {
			// The auto-PRE lies in the future, so it is held until the
			// clock passes it.
			s.held = append(s.held, Command{Kind: CmdPRE, At: autoPRE, Addr: row, FlatBank: fb, Channel: busIdx})
		}
		s.flushEvents()
	}

	finish := dataEnd
	if !isWrite {
		finish += s.decodeCycles
	}
	return finish
}
