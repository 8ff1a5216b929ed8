package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// modelShard is the reference model of one shard.
type modelShard struct {
	done, failed bool
	live         string    // ID of the shard's live lease; "" when none
	deadline     time.Time // of the live lease
	gen          uint64    // generation of the shard's latest lease
	failures     int       // failure reports counted against live leases
	records      int       // fragments recorded (not acknowledged as duplicate)
}

// modelJob is the reference model of one job: its shards in campaign
// order, perCampaign to a campaign.
type modelJob struct {
	id          string
	cancelled   bool
	reissued    int
	perCampaign int
	shards      []*modelShard
}

func (m *modelJob) state() string {
	if m.cancelled {
		return "cancelled"
	}
	failed := false
	for _, s := range m.shards {
		if !s.done && !s.failed {
			return "running"
		}
		failed = failed || s.failed
	}
	if failed {
		return "failed"
	}
	return "done"
}

// modelLease is a lease the model granted, live or not.
type modelLease struct {
	id    string
	job   *modelJob
	shard int
}

// leaseModel is the specification of the lease core, written as plainly
// as it can be: flat shard lists, no stores, no HTTP.
type leaseModel struct {
	ttl     time.Duration
	retries int
	jobs    []*modelJob
	leases  []modelLease
}

// grant returns the shard the core must lease next at now: the first
// open shard, in submission and campaign order, of a running job that
// has no live lease — expiring, and counting, every live lease past its
// deadline that the scan walks past on the way.
func (m *leaseModel) grant(now time.Time) (*modelJob, int, bool) {
	for _, j := range m.jobs {
		if j.state() != "running" {
			continue
		}
		for i, s := range j.shards {
			if s.done || s.failed {
				continue
			}
			if s.live != "" && now.After(s.deadline) {
				s.live = ""
				j.reissued++
			}
			if s.live == "" {
				return j, i, true
			}
		}
	}
	return nil, 0, false
}

// pickLease returns a granted lease, usually a recent one; bogus IDs
// (never granted, or malformed) come up now and then.
func (m *leaseModel) pickLease(rng *rand.Rand) (modelLease, bool) {
	switch {
	case len(m.leases) == 0 || rng.Intn(50) == 0:
		return modelLease{id: []string{"j999.0.0.1", "garbage", "j1.9.9.1"}[rng.Intn(3)]}, false
	case rng.Intn(10) < 7:
		return m.leases[len(m.leases)-1-rng.Intn(min(len(m.leases), 6))], true
	}
	return m.leases[rng.Intn(len(m.leases))], true
}

// TestLeaseCoreModel drives the lease core directly, on a clock only
// the test moves, through seeded random sequences of submit, lease,
// renew, complete, fail, cancel and clock advances, and after every
// operation checks the coordinator against the reference model:
//   - every shard is recorded exactly once;
//   - done and failed are final and exclusive;
//   - each shard's lease generations strictly increase;
//   - Reissued equals the number of live leases that expired;
//   - renewing any lease other than the shard's live one answers gone;
//   - a job is terminal exactly when every shard is done or failed, or
//     the job was cancelled.
func TestLeaseCoreModel(t *testing.T) {
	const seeds, ops = 40, 260
	for seed := int64(1); seed <= seeds; seed++ {
		runLeaseModel(t, seed, ops)
		if t.Failed() {
			return
		}
	}
}

func runLeaseModel(t *testing.T, seed int64, ops int) {
	m := &leaseModel{ttl: time.Minute, retries: 2}
	c, err := NewCoordinator(CoordinatorOptions{LeaseTTL: m.ttl, ShardRetries: m.retries})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(seed))
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	frag := []byte(fmt.Sprintf("[%d,0,0,0]", testShardSize))
	pick := func(specs ...string) []string { return specs[:1+rng.Intn(len(specs))] }

	for op := 0; op < ops; op++ {
		fatalf := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d op %d: %s", seed, op, fmt.Sprintf(format, args...))
		}
		ml, granted := m.pickLease(rng)
		var s *modelShard
		if granted {
			s = ml.job.shards[ml.shard]
		}
		switch k := rng.Intn(100); {
		case k < 6 || len(m.jobs) == 0:
			spec := JobSpec{
				Schemes:   pick("none", "secded"),
				Scenarios: pick("cell", "pin"),
				Trials:    (1 + rng.Intn(3)) * testShardSize,
				ShardSize: testShardSize,
				Seed:      seed,
			}
			st, err := c.submit(spec)
			if err != nil {
				fatalf("submit: %v", err)
			}
			j := &modelJob{id: st.ID, perCampaign: spec.Trials / testShardSize}
			for range len(spec.Schemes) * len(spec.Scenarios) * j.perCampaign {
				j.shards = append(j.shards, &modelShard{})
			}
			m.jobs = append(m.jobs, j)

		case k < 36:
			l, ok := c.grant("w", now)
			j, i, want := m.grant(now)
			if ok != want {
				fatalf("grant = %v, want %v", ok, want)
			}
			if !ok {
				break
			}
			parts := strings.Split(l.ID, ".")
			ci, _ := strconv.Atoi(parts[1])
			gen, _ := strconv.ParseUint(parts[3], 10, 64)
			if l.Job != j.id || ci*j.perCampaign+l.Shard != i {
				fatalf("granted %s, want %s shard %d", l.ID, j.id, i)
			}
			ms := j.shards[i]
			if gen <= ms.gen {
				fatalf("lease %s reuses a generation (latest was %d)", l.ID, ms.gen)
			}
			ms.live, ms.deadline, ms.gen = l.ID, now.Add(m.ttl), gen
			m.leases = append(m.leases, modelLease{id: l.ID, job: j, shard: i})

		case k < 50:
			_, err := c.renew(ml.id, now)
			switch {
			case !granted:
				if !errors.Is(err, errUnknown) {
					fatalf("renew of unknown lease %s = %v, want unknown", ml.id, err)
				}
			case ml.job.state() == "running" && s.live == ml.id:
				if err != nil {
					fatalf("renew of live lease %s = %v", ml.id, err)
				}
				s.deadline = now.Add(m.ttl)
			case !errors.Is(err, errGone):
				fatalf("renew of lease %s (live %q) = %v, want gone", ml.id, s.live, err)
			}

		case k < 72:
			bad := rng.Intn(15) == 0
			f := frag
			if bad {
				f = []byte("null")
			}
			res, err := c.complete(ml.id, "w", f)
			var want CompleteResponse
			rejected := false
			switch {
			case !granted:
				if !errors.Is(err, errUnknown) {
					fatalf("complete of unknown lease %s = %v, want unknown", ml.id, err)
				}
			case ml.job.cancelled:
				want.Cancelled = true
			case s.done:
				want.Duplicate = true
			case s.failed:
			case bad:
				rejected = true
			default:
				s.done, s.live = true, ""
				s.records++
			}
			if granted && ((err != nil) != rejected || res != want) {
				fatalf("complete %s with %s = %+v, %v; want %+v, rejected %v", ml.id, f, res, err, want, rejected)
			}

		case k < 82:
			res, err := c.fail(ml.id, "w", "defective kernel")
			var want CompleteResponse
			switch {
			case !granted:
				if !errors.Is(err, errUnknown) {
					fatalf("fail of unknown lease %s = %v, want unknown", ml.id, err)
				}
			case ml.job.cancelled:
				want.Cancelled = true
			case s.live == ml.id:
				s.failures++
				s.live = ""
				s.failed = s.failures >= m.retries
			}
			if granted && (err != nil || res != want) {
				fatalf("fail %s = %+v, %v; want %+v", ml.id, res, err, want)
			}

		case k < 85:
			j := m.jobs[rng.Intn(len(m.jobs))]
			if j.state() == "running" {
				j.cancelled = true
			}
			st, err := c.cancel(j.id)
			if err != nil || st.State != j.state() {
				fatalf("cancel %s = %s, %v; want %s", j.id, st.State, err, j.state())
			}

		default:
			now = now.Add(time.Duration(rng.Intn(45)) * time.Second)
		}
		if msg := m.diff(c); msg != "" {
			fatalf("%s", msg)
		}
	}
	for _, j := range m.jobs {
		st, err := c.status(j.id)
		if err != nil {
			t.Fatal(err)
		}
		done, failed := 0, 0
		for _, s := range j.shards {
			if s.done {
				done++
			}
			if s.failed {
				failed++
			}
		}
		if st.State != j.state() || st.ShardsDone != done || st.ShardsFailed != failed ||
			st.ShardsTotal != len(j.shards) || st.Reissued != j.reissued {
			t.Fatalf("seed %d: status of %s = %s %d/%d/%d reissued %d; want %s %d/%d/%d reissued %d", seed, j.id,
				st.State, st.ShardsDone, st.ShardsFailed, st.ShardsTotal, st.Reissued,
				j.state(), done, failed, len(j.shards), j.reissued)
		}
	}
}

// diff compares the coordinator's state with the model's and describes
// the first difference; "" when they agree.
func (m *leaseModel) diff(c *Coordinator) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.order) != len(m.jobs) {
		return fmt.Sprintf("coordinator holds %d jobs, model %d", len(c.order), len(m.jobs))
	}
	for n, mj := range m.jobs {
		j := c.order[n]
		if j.id != mj.id || j.state != mj.state() || j.reissued != mj.reissued {
			return fmt.Sprintf("job %s is %s with %d re-issued; model: %s %s with %d",
				j.id, j.state, j.reissued, mj.id, mj.state(), mj.reissued)
		}
		for ci, jc := range j.campaigns {
			for si := range jc.slots {
				ms, s := mj.shards[ci*mj.perCampaign+si], &jc.slots[si]
				done, failed, leased := jc.store.Has(si), s.state == slotFailed, s.state == slotLeased
				switch {
				case done && failed:
					return fmt.Sprintf("%s shard %d.%d is both done and failed", j.id, ci, si)
				case done != ms.done || failed != ms.failed:
					return fmt.Sprintf("%s shard %d.%d: done %v failed %v; model: %v %v", j.id, ci, si, done, failed, ms.done, ms.failed)
				case ms.records > 1 || (ms.done && ms.records != 1):
					return fmt.Sprintf("%s shard %d.%d recorded %d times", j.id, ci, si, ms.records)
				case leased != (ms.live != "") || (leased && s.gen != ms.gen):
					return fmt.Sprintf("%s shard %d.%d: leased %v gen %d; model's live lease %q", j.id, ci, si, leased, s.gen, ms.live)
				}
			}
		}
	}
	return ""
}
