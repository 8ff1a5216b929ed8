package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"pair/internal/campaign"
	"pair/internal/faults"
	"pair/internal/reliability"
	"pair/internal/schemes"
)

// This file is the coordinator's lease core: jobs, shards and leases,
// and every transition between them (submit, grant with lazy expiry,
// renew, complete, fail, cancel, finalize) as synchronous methods.
// Grant and renew take the time from their caller; none of them serves
// HTTP, starts a goroutine or touches the disk beyond a job's file
// (submit, cancel) and a fragment's record in its campaign's store. The
// HTTP handlers decode, call one of these, and encode the answer.

// Kinds of error the core answers with; statusOf maps each to its HTTP
// status, and an error of no kind is a bad request.
var (
	errUnknown            = errors.New("unknown job or lease")       // 404
	errGone               = errors.New("lease no longer held")       // 410
	errConflict           = errors.New("conflict")                   // 409
	errJournalUnavailable = errors.New("fleet: journal unavailable") // 503
	errCorrupt            = errors.New("stored fragment unreadable") // 500
)

// kindError is an error of one of the kinds above whose message is its
// own.
type kindError struct {
	kind error
	msg  string
}

func (e *kindError) Error() string { return e.msg }
func (e *kindError) Unwrap() error { return e.kind }

func errorf(kind error, format string, args ...any) error {
	return &kindError{kind: kind, msg: fmt.Sprintf(format, args...)}
}

// Slot states of one shard within a job. Done is not among them: a
// shard is done exactly when its campaign's store holds a fragment.
const (
	slotIdle   = iota // no live lease; leased next unless done
	slotLeased        // a live lease, deadline pending
	slotFailed        // re-issue budget exhausted
)

// slot tracks the lease lifecycle of one shard.
type slot struct {
	state    int
	gen      uint64 // generation of the latest lease: epoch<<32 | grants of this shard
	worker   string
	deadline time.Time
	failures int // permanent failures workers reported for this shard
}

// jobCampaign is one (scheme, scenario) campaign of a job.
type jobCampaign struct {
	schemeSpec   string
	scenarioSpec string
	spec         campaign.Spec        // label namespaced
	store        *campaign.Checkpoint // the merged fragments
	slots        []slot
}

// counts returns how many of the campaign's shards are done and failed.
func (jc *jobCampaign) counts() (done, failed int) {
	for i := range jc.slots {
		switch {
		case jc.store.Has(i):
			done++
		case jc.slots[i].state == slotFailed:
			failed++
		}
	}
	return done, failed
}

// job is the coordinator-side state of one submitted job.
type job struct {
	id        string
	spec      JobSpec
	state     string // running | done | failed | cancelled
	errMsg    string
	campaigns []*jobCampaign
	progress  *campaign.Progress
	report    *campaign.Report
	reissued  int
	eventSeq  uint32 // per-job SSE sequence, scoped under the epoch
	subs      map[chan Event]struct{}
}

// newJob is a running job with no campaigns yet.
func newJob(spec JobSpec) *job {
	return &job{
		spec:     spec,
		state:    "running",
		progress: campaign.NewProgress(),
		report:   &campaign.Report{},
		subs:     map[chan Event]struct{}{},
	}
}

// expandJob validates a job spec and expands it into campaigns, with
// no store opened yet (openLocked opens them). Campaigns are ordered
// scenario-outer, scheme-inner — the same order pairsim's f13 runs them
// locally — so a fleet with one worker executes the identical schedule.
func expandJob(spec JobSpec) (*job, error) {
	if spec.Trials <= 0 {
		return nil, fmt.Errorf("fleet: job needs a positive trial count, got %d", spec.Trials)
	}
	if len(spec.Schemes) == 0 || len(spec.Scenarios) == 0 {
		return nil, fmt.Errorf("fleet: job needs at least one scheme and one scenario spec")
	}
	schemeObjs, err := schemes.Build(spec.Schemes)
	if err != nil {
		return nil, err
	}
	scenarioObjs, err := faults.BuildScenarios(spec.Scenarios)
	if err != nil {
		return nil, err
	}
	j := newJob(spec)
	seen := map[string]bool{}
	for si, sc := range scenarioObjs {
		for hi, scheme := range schemeObjs {
			cs := reliability.ScenarioCampaignSpec(scheme, sc, spec.Trials, spec.Seed)
			cs.ShardSize = spec.ShardSize
			cs.Label = campaign.JoinLabel(spec.Namespace, cs.Label)
			if seen[cs.Label] {
				return nil, fmt.Errorf("fleet: duplicate campaign %q (scheme %q x scenario %q)",
					cs.Label, spec.Schemes[hi], spec.Scenarios[si])
			}
			seen[cs.Label] = true
			j.campaigns = append(j.campaigns, &jobCampaign{
				schemeSpec:   spec.Schemes[hi],
				scenarioSpec: spec.Scenarios[si],
				spec:         cs,
				slots:        make([]slot, cs.NumShards()),
			})
		}
	}
	return j, nil
}

// openLocked opens the store of each of j's campaigns: its checkpoint
// file under CheckpointDir (loaded when resume is set), or memory. A
// shard whose fragment the store already holds is done on arrival.
// With a checkpoint directory, a campaign label a running job holds is
// a conflict, refused before any file is opened: two jobs recording
// into one file would overwrite each other's shards.
func (c *Coordinator) openLocked(j *job, resume bool) error {
	if c.opts.CheckpointDir != "" {
		for _, other := range c.order {
			if other.state != "running" {
				continue
			}
			for _, oc := range other.campaigns {
				for _, jc := range j.campaigns {
					if jc.spec.Label == oc.spec.Label {
						return errorf(errConflict, "fleet: campaign %q is held by running job %s", jc.spec.Label, other.id)
					}
				}
			}
		}
	}
	opts := campaign.Options{Resume: resume, Salvage: c.opts.Salvage, Report: j.report, Warnf: c.opts.Warnf}
	for _, jc := range j.campaigns {
		store, err := campaign.OpenCheckpoint(c.opts.CheckpointDir, jc.spec, opts)
		if err != nil {
			return fmt.Errorf("fleet: opening campaign %q: %w", jc.spec.Label, err)
		}
		jc.store = store
		j.progress.AddCampaign(len(jc.slots), jc.spec.Trials)
		for i := range jc.slots {
			if store.Has(i) {
				j.progress.ShardResumed(jc.spec.Shard(i).Trials)
			}
		}
	}
	return nil
}

// submit registers a job. Its file is written first, and a job whose
// file cannot be written is not registered at all, so every job a
// client was told about survives a restart.
func (c *Coordinator) submit(spec JobSpec) (JobStatus, error) {
	j, err := expandJob(spec)
	if err != nil {
		return JobStatus{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.openLocked(j, c.opts.Resume); err != nil {
		return JobStatus{}, err
	}
	c.seq++
	j.id = "j" + strconv.Itoa(c.seq)
	if err := c.saveJob(j, false); err != nil {
		c.warnf("fleet: recording job %s: %v", j.id, err)
		return JobStatus{}, errorf(errJournalUnavailable, "%v: %v", errJournalUnavailable, err)
	}
	c.jobs[j.id] = j
	c.order = append(c.order, j)
	c.finalizeLocked(j) // a fully resumed job is done on arrival
	return c.statusLocked(j), nil
}

// grant leases the first open shard without a live lease to worker,
// scanning running jobs in submission order; ok is false when there is
// none. Expiry is lazy: a lease whose deadline passed before now
// returns to the pool, counted as re-issued, when the scan walks past
// it. The worker died or stalled mid-shard, and since a shard's result
// depends only on (label, seed, index), re-issuing is always safe.
func (c *Coordinator) grant(worker string, now time.Time) (l Lease, ok bool) {
	if worker == "" {
		worker = "anonymous"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, j := range c.order {
		if j.state != "running" {
			continue
		}
		for ci, jc := range j.campaigns {
			for si := range jc.slots {
				s := &jc.slots[si]
				if s.state == slotFailed || jc.store.Has(si) {
					continue
				}
				if s.state == slotLeased && now.After(s.deadline) {
					s.state = slotIdle
					j.reissued++
					j.progress.ShardRetried()
					j.report.AddShardRetry()
					j.report.Warningf(c.opts.Warnf,
						"fleet: lease %s expired (worker %q); re-issuing %s shard %d",
						leaseID(j.id, ci, si, s.gen), s.worker, jc.spec.Label, si)
					c.broadcastLocked(j, "warning", map[string]string{
						"text": fmt.Sprintf("lease expired: %s shard %d (worker %q)", jc.spec.Label, si, s.worker),
					})
				}
				if s.state == slotLeased {
					continue
				}
				// Generations start above every earlier incarnation's, so a
				// lease granted before a restart never matches a live one.
				s.gen = max(s.gen, c.epoch<<32) + 1
				s.state, s.worker, s.deadline = slotLeased, worker, now.Add(c.opts.LeaseTTL)
				return Lease{
					ID:        leaseID(j.id, ci, si, s.gen),
					Job:       j.id,
					Label:     jc.spec.Label,
					Scheme:    jc.schemeSpec,
					Scenario:  jc.scenarioSpec,
					Shard:     si,
					Trials:    jc.spec.Trials,
					ShardSize: jc.spec.ShardSize,
					Seed:      jc.spec.Seed,
					Deadline:  s.deadline,
					TTL:       c.opts.LeaseTTL,
				}, true
			}
		}
	}
	return Lease{}, false
}

// renew extends a live lease's deadline to now + LeaseTTL. The live
// lease is the shard's latest, while the shard is open and its job
// runs; every other lease is gone.
func (c *Coordinator) renew(id string, now time.Time) (deadline time.Time, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, jc, si, gen, err := c.leaseLocked(id)
	if err != nil {
		return time.Time{}, err
	}
	s := &jc.slots[si]
	if j.state != "running" || s.state != slotLeased || s.gen != gen {
		return time.Time{}, errorf(errGone, "lease %s is no longer held", id)
	}
	s.deadline = now.Add(c.opts.LeaseTTL)
	return s.deadline, nil
}

// complete merges a shard's fragment. Within one incarnation done and
// failed are final, so a shard counts in exactly one of them: a
// fragment for a done shard is a duplicate (the normal outcome of a
// re-issued lease whose original holder also finished), one for a
// failed shard or a cancelled job is acknowledged and dropped. A
// fragment from any lease of a shard still open merges (first fragment
// wins), persisted by the store before complete returns, and ends the
// shard's live lease.
func (c *Coordinator) complete(id, worker string, frag json.RawMessage) (CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, jc, si, _, err := c.leaseLocked(id)
	switch {
	case err != nil:
		return CompleteResponse{}, err
	case j.state == "cancelled":
		return CompleteResponse{Cancelled: true}, nil
	case jc.store.Has(si):
		return CompleteResponse{Duplicate: true}, nil
	case jc.slots[si].state == slotFailed:
		return CompleteResponse{}, nil
	}
	// Every record into the store happens under c.mu, so this one is
	// fresh.
	if _, err := jc.store.Record(si, frag); err != nil {
		return CompleteResponse{}, err
	}
	jc.slots[si].state = slotIdle
	j.progress.ShardDone(jc.spec.Shard(si).Trials)
	c.broadcastLocked(j, "shard", map[string]any{
		"job": j.id, "label": jc.spec.Label, "shard": si,
		"worker": worker, "duplicate": false,
	})
	c.broadcastLocked(j, "progress", c.statusLocked(j))
	c.finalizeLocked(j)
	return CompleteResponse{}, nil
}

// fail records a worker-reported permanent failure of a shard. It
// counts only against the shard's live lease, so a resent or stale
// report is acknowledged and changes nothing. A shard that exhausts
// ShardRetries fails for good; otherwise it returns to the pool.
func (c *Coordinator) fail(id, worker, msg string) (CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, jc, si, gen, err := c.leaseLocked(id)
	if err != nil {
		return CompleteResponse{}, err
	}
	if j.state == "cancelled" {
		return CompleteResponse{Cancelled: true}, nil
	}
	s := &jc.slots[si]
	if s.state != slotLeased || s.gen != gen {
		return CompleteResponse{}, nil
	}
	s.failures++
	if s.failures < c.opts.ShardRetries {
		s.state = slotIdle
		j.progress.ShardRetried()
		j.report.AddShardRetry()
		j.report.Warningf(c.opts.Warnf,
			"fleet: worker %q failed %s shard %d (attempt %d/%d): %s",
			worker, jc.spec.Label, si, s.failures, c.opts.ShardRetries, msg)
		return CompleteResponse{}, nil
	}
	sh := jc.spec.Shard(si)
	s.state = slotFailed
	j.progress.ShardFailed(sh.Trials)
	j.report.AddShardError(&campaign.ShardError{
		Label:    jc.spec.Label,
		Shard:    si,
		Seed:     sh.Seed,
		Trials:   sh.Trials,
		Attempts: s.failures,
		Err:      fmt.Errorf("worker %q: %s", worker, msg),
	})
	c.broadcastLocked(j, "warning", map[string]string{
		"text": fmt.Sprintf("shard failed permanently: %s shard %d: %s", jc.spec.Label, si, msg),
	})
	c.finalizeLocked(j)
	return CompleteResponse{}, nil
}

// cancel ends a running job for good; a terminal job is left as it is.
// The job's file records the cancel before it is acknowledged: an
// unrecorded cancel would hand the job's shards back to workers after
// a restart.
func (c *Coordinator) cancel(id string) (JobStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, err := c.jobLocked(id)
	if err != nil {
		return JobStatus{}, err
	}
	if j.state == "running" {
		if err := c.saveJob(j, true); err != nil {
			c.warnf("fleet: recording cancel of %s: %v", j.id, err)
			return JobStatus{}, errorf(errJournalUnavailable, "%v: %v", errJournalUnavailable, err)
		}
		j.state = "cancelled"
		c.broadcastLocked(j, "done", c.statusLocked(j))
	}
	return c.statusLocked(j), nil
}

// finalizeLocked moves a running job to its terminal state once every
// shard is done or failed, and tells the SSE subscribers.
func (c *Coordinator) finalizeLocked(j *job) {
	if j.state != "running" {
		return
	}
	failed, total := 0, 0
	for _, jc := range j.campaigns {
		d, f := jc.counts()
		if d+f < len(jc.slots) {
			return
		}
		failed += f
		total += len(jc.slots)
	}
	if failed > 0 {
		j.state = "failed"
		j.errMsg = fmt.Sprintf("%d of %d shard(s) failed permanently", failed, total)
	} else {
		j.state = "done"
	}
	c.broadcastLocked(j, "done", c.statusLocked(j))
}

// status returns a job's wire status.
func (c *Coordinator) status(id string) (JobStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, err := c.jobLocked(id)
	if err != nil {
		return JobStatus{}, err
	}
	return c.statusLocked(j), nil
}

// list returns every job's status, newest last.
func (c *Coordinator) list() []JobStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]JobStatus, 0, len(c.order))
	for _, j := range c.order {
		out = append(out, c.statusLocked(j))
	}
	return out
}

// result folds each campaign's fragments into outcome counts in
// ascending shard order (Checkpoint.Fold) — the order a local
// campaign.Run merges in, so the aggregate is byte-identical to a
// single-process run's. A running job has no result yet.
func (c *Coordinator) result(id string) (JobResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, err := c.jobLocked(id)
	if err != nil {
		return JobResult{}, err
	}
	if j.state == "running" {
		return JobResult{}, errorf(errConflict, "job %s is still running", j.id)
	}
	res := JobResult{ID: j.id, State: j.state, Error: j.errMsg, ReportSummary: j.report.Summary()}
	for _, jc := range j.campaigns {
		cr := CampaignResult{
			Label:    jc.spec.Label,
			Scheme:   jc.schemeSpec,
			Scenario: jc.scenarioSpec,
			Trials:   jc.spec.Trials,
		}
		err := jc.store.Fold(func(i int, frag json.RawMessage) error {
			var s [4]int64
			if err := json.Unmarshal(frag, &s); err != nil {
				return err
			}
			reliability.MergeCounts(&cr.Counts, s)
			return nil
		})
		if err != nil {
			return JobResult{}, errorf(errCorrupt, "folding %q: %v", cr.Label, err)
		}
		for i := range jc.slots {
			if jc.slots[i].state == slotFailed {
				cr.FailedShards = append(cr.FailedShards, i)
			}
		}
		res.Campaigns = append(res.Campaigns, cr)
	}
	return res, nil
}

// broadcastLocked queues an event to every subscriber, dropping it for
// subscribers whose queues are full. Every event gets the next id in
// the job's (epoch, seq) sequence — ids keep advancing even with no
// subscriber attached, so a watcher that reconnects after a gap can
// tell replayed events from new ones.
func (c *Coordinator) broadcastLocked(j *job, name string, data any) {
	j.eventSeq++
	if len(j.subs) == 0 {
		return
	}
	ev := Event{Name: name, Data: mustJSON(data), ID: c.eventID(j)}
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// eventID is the SSE id of the job's latest event: the epoch in the
// high 32 bits, the per-job sequence in the low. Epochs bump every
// coordinator incarnation, so ids are strictly increasing across
// restarts even though the sequence itself restarts at zero.
func (c *Coordinator) eventID(j *job) uint64 {
	return c.epoch<<32 | uint64(j.eventSeq)
}

// statusLocked builds the wire status of a job.
func (c *Coordinator) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:            j.id,
		State:         j.state,
		Error:         j.errMsg,
		Spec:          j.spec,
		Reissued:      j.reissued,
		Progress:      j.progress.Snapshot().String(),
		ReportSummary: j.report.Summary(),
	}
	for _, jc := range j.campaigns {
		done, failed := jc.counts()
		st.ShardsDone += done
		st.ShardsFailed += failed
		st.ShardsTotal += len(jc.slots)
		st.Campaigns = append(st.Campaigns, CampaignStatus{
			Label:    jc.spec.Label,
			Scheme:   jc.schemeSpec,
			Scenario: jc.scenarioSpec,
			Done:     done,
			Failed:   failed,
			Total:    len(jc.slots),
		})
	}
	return st
}

// jobLocked resolves a job ID.
func (c *Coordinator) jobLocked(id string) (*job, error) {
	j, ok := c.jobs[id]
	if !ok {
		return nil, errorf(errUnknown, "no job %q", id)
	}
	return j, nil
}

// leaseID encodes (job, campaign index, shard, generation); the
// generation distinguishes re-issues of the same shard.
func leaseID(job string, campaignIdx, shard int, gen uint64) string {
	return fmt.Sprintf("%s.%d.%d.%d", job, campaignIdx, shard, gen)
}

// leaseLocked parses a lease ID back to its job, campaign, shard and
// generation; an ID that never existed is unknown.
func (c *Coordinator) leaseLocked(id string) (*job, *jobCampaign, int, uint64, error) {
	parts := strings.Split(id, ".")
	if len(parts) != 4 {
		return nil, nil, 0, 0, errorf(errUnknown, "malformed lease id %q", id)
	}
	ci, err1 := strconv.Atoi(parts[1])
	si, err2 := strconv.Atoi(parts[2])
	gen, err3 := strconv.ParseUint(parts[3], 10, 64)
	j, ok := c.jobs[parts[0]]
	if err1 != nil || err2 != nil || err3 != nil || !ok ||
		ci < 0 || ci >= len(j.campaigns) || si < 0 || si >= len(j.campaigns[ci].slots) {
		return nil, nil, 0, 0, errorf(errUnknown, "no lease %q", id)
	}
	return j, j.campaigns[ci], si, gen, nil
}
