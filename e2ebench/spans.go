package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names. Spans wrap the benchmark's own calls into each module's
// public functions; modules reached only from inside another module
// (gf256, rs, hamming, bitvec, dram, stats) count toward their caller.
const (
	spanCell     uint8 = iota // one campaign.Run: a Monte-Carlo cell
	spanShard                 // one campaign shard on a campaign worker
	spanRNG                   // rng.Read filling one trial's line
	spanEncode                // EncodeBatchInto at width 1
	spanInject                // the fault injector on one trial
	spanDecode                // DecodeBatchInto over one chunk
	spanClassify              // ecc.Classify over one chunk
	spanTraceGen              // generating one input trace
	spanSimRun                // one memsim.Run with no observer
	spanSimCheck              // one memsim.Run with check.ForProfile attached
	spanJob                   // one fleet job, submit to result
	spanLease                 // worker RPC: POST /api/lease
	spanRenew                 // worker RPC: renew a lease
	spanComplete              // worker RPC: complete a lease
	spanSubmit                // client RPC: submit the job
	spanEvents                // client RPC: open the SSE stream (to headers)
	spanResult                // client RPC: fetch the result
	spanStatus                // client RPC: fetch the status
	spanOtherRPC              // any other fleet RPC
	spanCompute               // a leased shard's compute: lease reply to completion request
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanCell:     "campaign.run",
	spanShard:    "campaign.shard",
	spanRNG:      "reliability.rng",
	spanEncode:   "ecc.encode",
	spanInject:   "faults.inject",
	spanDecode:   "ecc.decode",
	spanClassify: "ecc.classify",
	spanTraceGen: "trace.gen",
	spanSimRun:   "memsim.run",
	spanSimCheck: "memsim.run+check",
	spanJob:      "fleet.job",
	spanLease:    "fleet.rpc.lease",
	spanRenew:    "fleet.rpc.renew",
	spanComplete: "fleet.rpc.complete",
	spanSubmit:   "fleet.rpc.submit",
	spanEvents:   "fleet.rpc.events",
	spanResult:   "fleet.rpc.result",
	spanStatus:   "fleet.rpc.status",
	spanOtherRPC: "fleet.rpc.other",
	spanCompute:  "fleet.compute",
}

// span is one recorded interval. Its id is its index in tracer.spans.
type span struct {
	start, end int64 // ns since the tracer's epoch
	id, parent int32 // parent -1: a root span
	op         int32 // the operation it belongs to; -1 for none
	name       uint8
}

// tracer keeps spans in memory until the traced pass ends. A nil
// tracer records nothing, so the untraced replay shares the code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span and returns its id (-1 on a nil tracer).
func (t *tracer) open(name uint8, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	now := t.now()
	return t.add(name, parent, op, now, now)
}

// close ends a span open returned.
func (t *tracer) close(id int32) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// reserve grows the span store for n more spans, so flushing batches
// never copies the whole store while other workers wait on the lock.
func (t *tracer) reserve(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(make([]span, 0, len(t.spans)+n), t.spans...)
}

// add records a finished span and returns its id.
func (t *tracer) add(name uint8, parent, op int32, start, end int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: start, end: end, id: id, parent: parent, op: op, name: name})
	return id
}

// batch buffers the spans one goroutine records for one campaign shard,
// so the trial loop takes no lock. Stage spans inside a batch are
// contiguous: each mark closes the stage that began at the previous
// mark, so one clock read serves two spans.
type batch struct {
	t      *tracer
	parent int32  // tracer id of the root span's parent
	op     int32  // operation id of every span in the batch
	spans  []span // ids and parents are batch-local; parent -1 is the root's parent
	last   int64  // when the current stage began
}

// batch opens a root span named name, with room for size spans in all;
// a nil tracer returns a nil batch.
func (t *tracer) batch(name uint8, parent, op int32, size int) *batch {
	if t == nil {
		return nil
	}
	now := t.now()
	b := &batch{t: t, parent: parent, op: op, spans: make([]span, 1, size), last: now}
	b.spans[0] = span{start: now, parent: -1, op: op, name: name}
	return b
}

// mark records the stage that ran since the previous mark as a child
// of the batch's root span.
func (b *batch) mark(name uint8) {
	if b == nil {
		return
	}
	now := b.t.now()
	b.spans = append(b.spans, span{start: b.last, end: now, id: int32(len(b.spans)), op: b.op, name: name})
	b.last = now
}

// skip starts the next stage now, leaving the time since the previous
// mark to the root span's self time.
func (b *batch) skip() {
	if b == nil {
		return
	}
	b.last = b.t.now()
}

// finish ends the root span and moves the batch into the tracer.
func (b *batch) finish() {
	if b == nil {
		return
	}
	b.spans[0].end = b.t.now()
	t := b.t
	t.mu.Lock()
	defer t.mu.Unlock()
	base := int32(len(t.spans))
	for _, s := range b.spans {
		s.id += base
		if s.parent < 0 {
			s.parent = b.parent
		} else {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children of one parent may
// overlap (shards on different campaign workers), so the covered part
// is the length of their union.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	kids := make([]int32, 0, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.end - s.start
		if s.parent >= 0 {
			kids = append(kids, int32(i))
		}
	}
	sort.Slice(kids, func(a, b int) bool {
		x, y := &t.spans[kids[a]], &t.spans[kids[b]]
		if x.parent != y.parent {
			return x.parent < y.parent
		}
		return x.start < y.start
	})
	for i := 0; i < len(kids); {
		p := t.spans[kids[i]].parent
		ps := t.spans[p]
		var covered, lo, hi int64
		for ; i < len(kids) && t.spans[kids[i]].parent == p; i++ {
			c := t.spans[kids[i]]
			s, e := max(c.start, ps.start), min(c.end, ps.end)
			if e <= s {
				continue
			}
			if s > hi {
				covered += hi - lo
				lo, hi = s, e
			} else if e > hi {
				hi = e
			}
		}
		self[p] -= covered + hi - lo
	}
	return self
}

// sumBy adds vals (durations or self times, indexed like spans) per
// span name.
func (t *tracer) sumBy(vals []int64) [numSpanNames]int64 {
	var sum [numSpanNames]int64
	for i, s := range t.spans {
		sum[s.name] += vals[i]
	}
	return sum
}

// durations returns each span's duration.
func (t *tracer) durations() []int64 {
	d := make([]int64, len(t.spans))
	for i, s := range t.spans {
		d[i] = s.end - s.start
	}
	return d
}

// writeFile writes the spans as tab-separated lines, one per span.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.op, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// quantile is the nearest-rank q-quantile (0 < q <= 1) of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailLadder are the candidate tail percentiles, highest first.
var tailLadder = []float64{99.99, 99.9, 99.5, 99, 95, 90, 75, 50}

// tail returns the highest ladder percentile with at least ten samples
// beyond it, and its value; below 20 samples it falls back to the
// median.
func tail(sorted []float64) (pct, value float64) {
	n := float64(len(sorted))
	for _, p := range tailLadder {
		if n*(1-p/100) >= 10 {
			return p, quantile(sorted, p/100)
		}
	}
	return 50, quantile(sorted, 0.5)
}
