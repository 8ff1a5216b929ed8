package memsim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// scanPick is pick as one FR-FCFS pass over queues kept in admission
// order, the form it took before the queues were kept in (enq,
// admission) order with a hit count: row hit first, then oldest enq,
// then first in the queue. It removes and returns the op it chooses.
func scanPick(ref *[2][]*op) *op {
	k := opRead
	if len(ref[opWrite]) > drainThreshold || len(ref[opRead]) == 0 {
		k = opWrite
	}
	q := ref[k]
	if len(q) == 0 {
		return nil
	}
	best := 0
	for i := 1; i < len(q); i++ {
		hit, bestHit := q[i].hits(), q[best].hits()
		if (hit && !bestHit) || (hit == bestHit && q[i].enq < q[best].enq) {
			best = i
		}
	}
	o := q[best]
	ref[k] = append(q[:best], q[best+1:]...)
	return o
}

// TestPickMatchesAdmissionOrderScan drives enqueue, pick and schedule
// on random op streams on every profile under each page policy at one
// to three ranks. The streams mix reads and writes, draw lines from a
// few hot rows so that hits wait in the queues, and give some ops an
// enq before the clock, as RMW write legs and patrol-scrub reads have.
// The queues start small, so they move back and grow. At every step
// pick must choose the op the admission-order scan chooses; each queue
// must hold the admission-order queue stably sorted by enq, and its hit
// count must equal a recount; and the banks' lists must hold exactly
// the queued ops.
func TestPickMatchesAdmissionOrderScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, id := range ProfileIDs() {
		for _, policy := range []string{"open", "closed"} {
			for ranks := 1; ranks <= 3; ranks++ {
				pickMatchesScan(t, rng, id+":policy="+policy, ranks)
			}
		}
	}
}

// pickMatchesScan runs one random op stream on the profile spec.
func pickMatchesScan(t *testing.T, rng *rand.Rand, spec string, ranks int) {
	t.Helper()
	cfg := MustProfile(spec).Config()
	cfg.Ranks = ranks
	s, err := newSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := range s.queue {
		s.queue[k].buf = make([]*op, 0, 4)
	}
	hot := make([]uint64, 6)
	for i := range hot {
		hot[i] = uint64(rng.Intn(1 << 22))
	}
	var ref [2][]*op
	hits := 0
	for step := 0; step < 20000; step++ {
		// About 1.5 arrivals a step below 24 queued ops, 0.5 above:
		// the queues hover around the drain threshold.
		n := rng.Intn(4)
		if len(ref[opRead])+len(ref[opWrite]) > 24 {
			n = rng.Intn(2)
		}
		for ; n > 0; n-- {
			line := uint64(rng.Intn(1 << 22))
			if rng.Intn(2) == 0 {
				line = hot[rng.Intn(len(hot))] + uint64(rng.Intn(16))
			}
			o := s.newOp(opKind(rng.Intn(2)), s.wrap(line), -1)
			if rng.Intn(5) == 0 {
				o.enq = uint64(rng.Int63n(int64(s.now) + 1))
			}
			s.enqueue(o)
			ref[o.kind] = append(ref[o.kind], o)
		}
		want := scanPick(&ref)
		got := s.pick()
		if got != want {
			t.Fatalf("%s ranks=%d step %d: pick chose %+v, the scan %+v", spec, ranks, step, got, want)
		}
		if got == nil {
			s.now += uint64(rng.Intn(50))
		} else {
			if got.hits() {
				hits++
			}
			s.schedule(got)
		}
		checkQueues(t, s, &ref)
	}
	if cfg.Profile.Policy == OpenPage && hits == 0 {
		t.Fatalf("%s ranks=%d: no pick served a row hit", spec, ranks)
	}
}

// checkQueues compares the simulator's queues, hit counts and bank
// lists with the admission-order queues.
func checkQueues(t *testing.T, s *simulator, ref *[2][]*op) {
	t.Helper()
	listed := 0
	for bi := range s.buses {
		for i := range s.buses[bi].banks {
			b := &s.buses[bi].banks[i]
			var prev *op
			for o := b.queued; o != nil; o = o.next {
				if o.bank != b || o.prev != prev {
					t.Fatalf("bank list of bus %d bank %d is broken at %+v", bi, i, o)
				}
				prev = o
				listed++
			}
		}
	}
	queued := 0
	for k := range s.queue {
		q := &s.queue[k]
		sorted := slices.Clone(ref[k])
		slices.SortStableFunc(sorted, func(a, b *op) int { return cmp.Compare(a.enq, b.enq) })
		if !slices.Equal(q.buf[q.head:], sorted) {
			t.Fatalf("queue %d is not the admission-order queue sorted by enq", k)
		}
		n := 0
		for _, o := range sorted {
			if o.hits() {
				n++
			}
		}
		if q.hits != n {
			t.Fatalf("queue %d counts %d hits, a recount %d", k, q.hits, n)
		}
		queued += len(sorted)
	}
	if listed != queued {
		t.Fatalf("bank lists hold %d ops, the queues %d", listed, queued)
	}
}
