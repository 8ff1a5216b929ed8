package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pair/internal/campaign"
	"pair/internal/failpoint"
	"pair/internal/faults"
	"pair/internal/reliability"
	"pair/internal/schemes"
)

// errJournalUnavailable marks a submit or cancel refused because its
// job file could not be written; handlers answer 503, a transient
// fault rather than an answer.
var errJournalUnavailable = errors.New("fleet: journal unavailable")

// epochFile names the incarnation counter inside JournalDir.
const epochFile = "epoch"

// DefaultLeaseTTL is the lease deadline granted when CoordinatorOptions
// leaves LeaseTTL zero. Workers renew at a third of the TTL, so the
// default tolerates two missed renewals before a lease is re-issued.
const DefaultLeaseTTL = 30 * time.Second

// DefaultShardRetries is the per-shard re-issue budget used when
// CoordinatorOptions leaves ShardRetries zero: how many permanent
// worker-side failures a shard absorbs before the coordinator marks it
// failed for good.
const DefaultShardRetries = 3

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// CheckpointDir, when non-empty, mirrors every merged fragment into
	// the standard campaign checkpoint files under this directory —
	// byte-identical to a local run's, so `pairsim -resume` picks a
	// fleet run up. Empty merges in memory only.
	CheckpointDir string
	// JournalDir, when non-empty, makes the coordinator crash-safe. It
	// holds what the checkpoint directory cannot: one <job id>.json per
	// submitted job (its spec and whether it was cancelled, written
	// before submit or cancel is acknowledged) and an epoch file
	// counting incarnations. NewCoordinator rebuilds every recorded job
	// with checkpoint resume forced on, so shards whose fragment reached
	// CheckpointDir stay done and every other shard is leased again;
	// recomputation is byte-identical. Leases, failure counts and
	// re-issues belong to one incarnation: a lease granted before a
	// restart is stale afterwards. Pair it with CheckpointDir, which
	// holds the results.
	JournalDir string
	// Resume loads existing checkpoints at job submission and re-issues
	// only the missing shards. Salvage additionally recovers what it can
	// from corrupted checkpoints (campaign.Options semantics).
	Resume  bool
	Salvage bool
	// LeaseTTL is the deadline granted to each lease; 0 means
	// DefaultLeaseTTL. A lease neither completed nor renewed by its
	// deadline is re-issued to the next polling worker.
	LeaseTTL time.Duration
	// ShardRetries is the per-shard budget of permanent worker-reported
	// failures before the shard is marked failed; 0 means
	// DefaultShardRetries.
	ShardRetries int
	// Warnf, when non-nil, receives coordinator warnings (lease expiry,
	// worker-reported failures, checkpoint degradation) as they happen.
	Warnf func(format string, args ...any)

	// now overrides the clock in tests.
	now func() time.Time
}

// Slot states of one shard within a job.
const (
	slotPending = iota // waiting for a worker
	slotLeased         // granted, deadline pending
	slotDone           // fragment merged
	slotFailed         // re-issue budget exhausted
)

// slot tracks the lease lifecycle of one shard.
type slot struct {
	state    int
	gen      uint64 // lease generation: epoch<<32 | grants of this shard
	worker   string
	deadline time.Time
	failures int // permanent failures workers reported for this shard
}

// jobCampaign is one (scheme, scenario) campaign of a job.
type jobCampaign struct {
	schemeSpec   string
	scenarioSpec string
	merge        *campaign.Merge
	slots        []slot
	done         int // slots in state slotDone
	failed       int // slots in state slotFailed
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

// jobRecord is the content of a <job id>.json file under JournalDir:
// what the checkpoint directory cannot rebuild about a job.
type jobRecord struct {
	Spec      *JobSpec `json:"spec"`
	Cancelled bool     `json:"cancelled,omitempty"`
}

// Coordinator is the fleet's control plane: it expands submitted jobs
// into campaigns, brokers shard leases to polling workers, merges the
// returned fragments through campaign.Merge, and serves status, results
// and SSE progress over HTTP. Lease expiry is reclaimed lazily — an
// expired lease returns to the pending pool the next time any worker
// asks for work — which keeps the coordinator free of background
// goroutines and timers.
type Coordinator struct {
	opts    CoordinatorOptions
	handler http.Handler
	epoch   uint64 // incarnation; scopes SSE event ids and lease generations
	done    chan struct{}
	closing sync.Once

	mu         sync.Mutex
	epochSaved bool // the epoch file holds this incarnation's epoch
	seq        int
	jobs       map[string]*job
	order      []*job // submission order: lease scanning and listing
}

// NewCoordinator builds a coordinator with its routes registered. With
// JournalDir set it first restores the jobs recorded there (see
// restore); a job or epoch file it cannot read is an error naming the
// file.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.ShardRetries <= 0 {
		opts.ShardRetries = DefaultShardRetries
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	c := &Coordinator{opts: opts, jobs: map[string]*job{}, epoch: 1, done: make(chan struct{})}
	if opts.JournalDir != "" {
		if err := c.restore(); err != nil {
			return nil, err
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /api/jobs", c.handleSubmit)
	mux.HandleFunc("GET /api/jobs", c.handleList)
	mux.HandleFunc("GET /api/jobs/{id}", c.handleStatus)
	mux.HandleFunc("POST /api/jobs/{id}/cancel", c.handleCancel)
	mux.HandleFunc("GET /api/jobs/{id}/events", c.handleEvents)
	mux.HandleFunc("GET /api/jobs/{id}/result", c.handleResult)
	mux.HandleFunc("POST /api/lease", c.handleLease)
	mux.HandleFunc("POST /api/lease/{id}/renew", c.handleRenew)
	mux.HandleFunc("POST /api/lease/{id}/complete", c.handleComplete)
	c.handler = faultInjectingHandler(mux)
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.handler }

// Close shuts the coordinator down gracefully: streaming subscribers
// are released (their handlers return, so an http.Server.Shutdown does
// not hang on open SSE connections). Safe to call more than once; the
// coordinator must not serve requests afterwards.
func (c *Coordinator) Close() {
	c.closing.Do(func() { close(c.done) })
}

// faultInjectingHandler evaluates the coordinator-side request
// failpoints: FailpointCoordRequest turns into a 500 (or a stall, for
// delay actions), FailpointCoordDrop aborts the connection without a
// response. Disarmed — the production state — both are single atomic
// loads.
func faultInjectingHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := failpoint.Hit(FailpointCoordRequest); err != nil {
			httpError(w, http.StatusInternalServerError, "injected coordinator fault: %v", err)
			return
		}
		if err := failpoint.Hit(FailpointCoordDrop); err != nil {
			panic(http.ErrAbortHandler)
		}
		next.ServeHTTP(w, r)
	})
}

func (c *Coordinator) warnf(format string, args ...any) {
	if c.opts.Warnf != nil {
		c.opts.Warnf(format, args...)
	}
}

// handleSubmit expands a JobSpec into campaigns and registers the job.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	j, err := c.addJob(spec)
	if errors.Is(err, errJournalUnavailable) {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.mu.Lock()
	st := c.statusLocked(j)
	c.mu.Unlock()
	writeJSON(w, http.StatusCreated, st)
}

// addJob validates, expands and registers a job spec. A job whose file
// cannot be written is not registered at all, so every job a client
// was told about survives a restart.
func (c *Coordinator) addJob(spec JobSpec) (*job, error) {
	j, err := c.buildJob(spec, c.opts.Resume, c.opts.Salvage)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	j.id = "j" + strconv.Itoa(c.seq)
	if err := c.saveJob(j, false); err != nil {
		c.warnf("fleet: recording job %s: %v", j.id, err)
		return nil, fmt.Errorf("%w: %v", errJournalUnavailable, err)
	}
	c.jobs[j.id] = j
	c.order = append(c.order, j)
	c.finalizeLocked(j) // a fully resumed job is done on arrival
	return j, nil
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

// buildJob expands a job spec into campaigns. Campaigns are ordered
// scenario-outer, scheme-inner — the same order pairsim's f13 runs them
// locally — so a fleet with one worker executes the identical schedule.
// A shard whose fragment the checkpoint already holds is done on
// arrival; every other shard is pending.
func (c *Coordinator) buildJob(spec JobSpec, resume, salvage bool) (*job, error) {
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
	opts := campaign.Options{
		Namespace: spec.Namespace,
		Resume:    resume,
		Salvage:   salvage,
		Report:    j.report,
		Warnf:     c.opts.Warnf,
	}
	seen := map[string]bool{}
	for si, sc := range scenarioObjs {
		for hi, scheme := range schemeObjs {
			cs := reliability.ScenarioCampaignSpec(scheme, sc, spec.Trials, spec.Seed)
			cs.ShardSize = spec.ShardSize
			m, err := campaign.OpenMerge(c.opts.CheckpointDir, cs, opts)
			if err != nil {
				return nil, fmt.Errorf("fleet: opening campaign %q: %w", cs.Label, err)
			}
			if seen[m.Label()] {
				return nil, fmt.Errorf("fleet: duplicate campaign %q (scheme %q x scenario %q)",
					m.Label(), spec.Schemes[hi], spec.Scenarios[si])
			}
			seen[m.Label()] = true
			jc := &jobCampaign{
				schemeSpec:   spec.Schemes[hi],
				scenarioSpec: spec.Scenarios[si],
				merge:        m,
				slots:        make([]slot, m.NumShards()),
			}
			j.progress.AddCampaign(m.NumShards(), spec.Trials)
			for i := range jc.slots {
				if m.Done(i) {
					jc.slots[i].state = slotDone
					jc.done++
					j.progress.ShardResumed(m.Spec().Shard(i).Trials)
				}
			}
			j.campaigns = append(j.campaigns, jc)
		}
	}
	return j, nil
}

// handleLease grants the first available shard to a polling worker,
// reclaiming any expired leases it walks past on the way.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Worker string `json:"worker"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding lease request: %v", err)
		return
	}
	if req.Worker == "" {
		req.Worker = "anonymous"
	}
	now := c.opts.now()

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, j := range c.order {
		if j.state != "running" {
			continue
		}
		for ci, jc := range j.campaigns {
			for si := range jc.slots {
				s := &jc.slots[si]
				if s.state == slotLeased && now.After(s.deadline) {
					// Lazy expiry: the worker died or stalled mid-shard. The
					// shard's result depends only on (label, seed, index), so
					// re-issuing is always safe.
					s.state = slotPending
					j.reissued++
					j.progress.ShardRetried()
					j.report.AddShardRetry()
					j.report.Warningf(c.opts.Warnf,
						"fleet: lease %s expired (worker %q); re-issuing %s shard %d",
						leaseID(j.id, ci, si, s.gen), s.worker, jc.merge.Label(), si)
					c.broadcastLocked(j, "warning", map[string]string{
						"text": fmt.Sprintf("lease expired: %s shard %d (worker %q)", jc.merge.Label(), si, s.worker),
					})
				}
				if s.state != slotPending {
					continue
				}
				// Generations start above every earlier incarnation's, so a
				// lease granted before a restart never matches a live one.
				s.gen = max(s.gen, c.epoch<<32) + 1
				s.state = slotLeased
				s.worker = req.Worker
				s.deadline = now.Add(c.opts.LeaseTTL)
				writeJSON(w, http.StatusOK, Lease{
					ID:        leaseID(j.id, ci, si, s.gen),
					Job:       j.id,
					Label:     jc.merge.Label(),
					Scheme:    jc.schemeSpec,
					Scenario:  jc.scenarioSpec,
					Shard:     si,
					Trials:    jc.merge.Spec().Trials,
					ShardSize: jc.merge.Spec().ShardSize,
					Seed:      jc.merge.Spec().Seed,
					Deadline:  s.deadline,
					TTL:       c.opts.LeaseTTL,
				})
				return
			}
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleRenew extends a live lease's deadline.
func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	j, jc, si, gen, ok := c.resolveLease(w, r)
	if !ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &jc.slots[si]
	if j.state != "running" || s.state != slotLeased || s.gen != gen {
		httpError(w, http.StatusGone, "lease %s is no longer held", r.PathValue("id"))
		return
	}
	s.deadline = c.opts.now().Add(c.opts.LeaseTTL)
	writeJSON(w, http.StatusOK, map[string]any{"deadline": s.deadline})
}

// handleComplete merges a finished shard or records a permanent
// worker-side failure. Within one incarnation done and failed are
// final, so a shard counts in exactly one of them: a fragment for a
// done shard is a duplicate (the normal outcome of a re-issued lease
// whose original holder also finished), one for a failed shard is
// acknowledged and dropped. A fragment from any lease of a shard still
// open merges (first fragment wins); a failure report counts only
// against the shard's live lease, so a resent or stale report changes
// nothing.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	j, jc, si, gen, ok := c.resolveLease(w, r)
	if !ok {
		return
	}
	var req CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding completion: %v", err)
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if j.state == "cancelled" {
		writeJSON(w, http.StatusOK, CompleteResponse{Cancelled: true})
		return
	}
	s := &jc.slots[si]
	sh := jc.merge.Spec().Shard(si)

	if req.Error != "" {
		if s.state != slotLeased || s.gen != gen {
			writeJSON(w, http.StatusOK, CompleteResponse{})
			return
		}
		s.failures++
		if s.failures >= c.opts.ShardRetries {
			s.state = slotFailed
			jc.failed++
			j.progress.ShardFailed(sh.Trials)
			j.report.AddShardError(&campaign.ShardError{
				Label:    jc.merge.Label(),
				Shard:    si,
				Seed:     sh.Seed,
				Trials:   sh.Trials,
				Attempts: s.failures,
				Err:      fmt.Errorf("worker %q: %s", req.Worker, req.Error),
			})
			c.broadcastLocked(j, "warning", map[string]string{
				"text": fmt.Sprintf("shard failed permanently: %s shard %d: %s", jc.merge.Label(), si, req.Error),
			})
			c.finalizeLocked(j)
		} else {
			s.state = slotPending
			j.progress.ShardRetried()
			j.report.AddShardRetry()
			j.report.Warningf(c.opts.Warnf,
				"fleet: worker %q failed %s shard %d (attempt %d/%d): %s",
				req.Worker, jc.merge.Label(), si, s.failures, c.opts.ShardRetries, req.Error)
		}
		writeJSON(w, http.StatusOK, CompleteResponse{})
		return
	}

	if s.state == slotDone || s.state == slotFailed {
		writeJSON(w, http.StatusOK, CompleteResponse{Duplicate: s.state == slotDone})
		return
	}
	fresh, err := jc.merge.Record(si, req.Fragment)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.state = slotDone
	jc.done++
	if fresh {
		j.progress.ShardDone(sh.Trials)
	}
	c.broadcastLocked(j, "shard", map[string]any{
		"job": j.id, "label": jc.merge.Label(), "shard": si,
		"worker": req.Worker, "duplicate": !fresh,
	})
	c.broadcastLocked(j, "progress", c.statusLocked(j))
	c.finalizeLocked(j)
	writeJSON(w, http.StatusOK, CompleteResponse{Duplicate: !fresh})
}

// finalizeLocked moves a job to its terminal state once every slot is
// done or failed, and tells the SSE subscribers.
func (c *Coordinator) finalizeLocked(j *job) {
	if j.state != "running" {
		return
	}
	done, failed, total := 0, 0, 0
	for _, jc := range j.campaigns {
		done += jc.done
		failed += jc.failed
		total += len(jc.slots)
	}
	if done+failed < total {
		return
	}
	if failed > 0 {
		j.state = "failed"
		j.errMsg = fmt.Sprintf("%d of %d shard(s) failed permanently", failed, total)
	} else {
		j.state = "done"
	}
	c.broadcastLocked(j, "done", c.statusLocked(j))
}

// restore rebuilds the jobs recorded under JournalDir in job-number
// order, with checkpoint resume forced on: merged shards stay done and
// every other shard is leased again. A cancelled job stays cancelled;
// done and failed are derived from the slots. A job that no longer
// builds (say, its checkpoint now belongs to a job of another shape)
// is restored as failed rather than keeping the coordinator down.
// Without an epoch file nothing was ever recorded, and nothing is
// written until the first job is. Called from NewCoordinator before
// anything is served, so no locking.
func (c *Coordinator) restore() error {
	dir := c.opts.JournalDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fleet: journal: %w", err)
	}
	path := filepath.Join(dir, epochFile)
	if raw, err := os.ReadFile(path); err == nil {
		prev, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 32)
		if err != nil {
			return fmt.Errorf("fleet: journal: epoch file %s: %w", path, err)
		}
		c.epoch = prev + 1
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("fleet: journal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("fleet: journal: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		if n, ok := jobSeq(e.Name()); ok {
			seqs = append(seqs, n)
		}
	}
	sort.Ints(seqs)
	for _, n := range seqs {
		id := "j" + strconv.Itoa(n)
		path := filepath.Join(dir, id+".json")
		var rec jobRecord
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &rec)
		}
		if err == nil && rec.Spec == nil {
			err = errors.New("no job spec")
		}
		if err != nil {
			return fmt.Errorf("fleet: journal: job file %s: %w", path, err)
		}
		j, err := c.buildJob(*rec.Spec, true, c.opts.Salvage)
		if err != nil {
			c.warnf("fleet: restoring job %s as failed: %v", id, err)
			j = newJob(*rec.Spec)
			j.state, j.errMsg = "failed", err.Error()
		}
		if rec.Cancelled {
			j.state = "cancelled"
		}
		j.id = id
		c.jobs[id] = j
		c.order = append(c.order, j)
		c.seq = n
		c.finalizeLocked(j)
	}
	if len(c.order) == 0 {
		return nil
	}
	if err := c.saveEpoch(); err != nil {
		return err
	}
	c.warnf("fleet: journal replayed %d job(s) (epoch %d)", len(c.order), c.epoch)
	return nil
}

// saveJob durably writes a job's file under JournalDir (a no-op without
// one), writing this incarnation's epoch first if it is not on disk
// yet: the epoch file precedes every job file.
func (c *Coordinator) saveJob(j *job, cancelled bool) error {
	if c.opts.JournalDir == "" {
		return nil
	}
	if !c.epochSaved {
		if err := c.saveEpoch(); err != nil {
			return err
		}
	}
	return campaign.WriteFileAtomic(filepath.Join(c.opts.JournalDir, j.id+".json"),
		mustJSON(jobRecord{Spec: &j.spec, Cancelled: cancelled}))
}

func (c *Coordinator) saveEpoch() error {
	err := campaign.WriteFileAtomic(filepath.Join(c.opts.JournalDir, epochFile),
		[]byte(strconv.FormatUint(c.epoch, 10)+"\n"))
	c.epochSaved = err == nil
	return err
}

// jobSeq parses a job file name ("j17.json" -> 17); false for every
// other file (the epoch file, a leftover temp file).
func jobSeq(name string) (int, bool) {
	stem, ok := strings.CutSuffix(name, ".json")
	n, err := strconv.Atoi(strings.TrimPrefix(stem, "j"))
	return n, ok && err == nil && n > 0 && stem == "j"+strconv.Itoa(n)
}

// handleList returns every job's status, newest last.
func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	out := make([]JobStatus, 0, len(c.order))
	for _, j := range c.order {
		out = append(out, c.statusLocked(j))
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := c.lookupJob(w, r)
	if !ok {
		return
	}
	c.mu.Lock()
	st := c.statusLocked(j)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := c.lookupJob(w, r)
	if !ok {
		return
	}
	c.mu.Lock()
	if j.state == "running" {
		// Recorded before acknowledged: an unrecorded cancel would hand
		// the job's shards back to workers after a restart.
		if err := c.saveJob(j, true); err != nil {
			c.mu.Unlock()
			c.warnf("fleet: recording cancel of %s: %v", j.id, err)
			httpError(w, http.StatusServiceUnavailable, "%v: %v", errJournalUnavailable, err)
			return
		}
		j.state = "cancelled"
		c.broadcastLocked(j, "done", c.statusLocked(j))
	}
	st := c.statusLocked(j)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleResult folds the merged fragments into per-campaign outcome
// counts. Folding happens in ascending shard order (Merge.Fold), the
// order a local campaign.Run merges in, so the aggregate is
// byte-identical to a single-process run's.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := c.lookupJob(w, r)
	if !ok {
		return
	}
	c.mu.Lock()
	if j.state == "running" {
		c.mu.Unlock()
		httpError(w, http.StatusConflict, "job %s is still running", j.id)
		return
	}
	res := JobResult{
		ID:            j.id,
		State:         j.state,
		Error:         j.errMsg,
		ReportSummary: j.report.Summary(),
	}
	campaigns := append([]*jobCampaign(nil), j.campaigns...)
	c.mu.Unlock()

	for _, jc := range campaigns {
		cr := CampaignResult{
			Label:    jc.merge.Label(),
			Scheme:   jc.schemeSpec,
			Scenario: jc.scenarioSpec,
			Trials:   jc.merge.Spec().Trials,
		}
		err := jc.merge.Fold(func(i int, frag json.RawMessage) error {
			var s [4]int64
			if err := json.Unmarshal(frag, &s); err != nil {
				return err
			}
			reliability.MergeCounts(&cr.Counts, s)
			return nil
		})
		if err != nil {
			httpError(w, http.StatusInternalServerError, "folding %q: %v", cr.Label, err)
			return
		}
		c.mu.Lock()
		for i := range jc.slots {
			if jc.slots[i].state == slotFailed {
				cr.FailedShards = append(cr.FailedShards, i)
			}
		}
		c.mu.Unlock()
		res.Campaigns = append(res.Campaigns, cr)
	}
	writeJSON(w, http.StatusOK, res)
}

// handleEvents streams job progress as SSE: "progress" and "shard" on
// every completion, "warning" on lease expiry and shard failures, and a
// final "done" carrying the terminal status, after which the stream
// closes. A slow consumer's queue overflow drops events rather than
// blocking the coordinator.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := c.lookupJob(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch := make(chan Event, 64)

	c.mu.Lock()
	st := c.statusLocked(j)
	terminal := j.state != "running"
	snapID := c.eventID(j)
	if !terminal {
		j.subs[ch] = struct{}{}
	}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(j.subs, ch)
		c.mu.Unlock()
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// The opening snapshot carries the job's latest event id: a watcher
	// reconnecting after a drop learns immediately how far the stream
	// has advanced, and Client.Watch dedups the snapshot itself if it
	// already delivered that state.
	first := "progress"
	if terminal {
		first = "done"
	}
	if !writeSSE(w, fl, Event{Name: first, Data: mustJSON(st), ID: snapID}) || terminal {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-c.done:
			// Coordinator shutting down: release the stream so the HTTP
			// server's graceful shutdown is not held open by watchers.
			return
		case ev := <-ch:
			if !writeSSE(w, fl, ev) || ev.Name == "done" {
				return
			}
		}
	}
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
		st.ShardsDone += jc.done
		st.ShardsFailed += jc.failed
		st.ShardsTotal += len(jc.slots)
		st.Campaigns = append(st.Campaigns, CampaignStatus{
			Label:    jc.merge.Label(),
			Scheme:   jc.schemeSpec,
			Scenario: jc.scenarioSpec,
			Done:     jc.done,
			Failed:   jc.failed,
			Total:    len(jc.slots),
		})
	}
	return st
}

// lookupJob resolves the {id} path value, writing a 404 on a miss.
func (c *Coordinator) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	c.mu.Lock()
	j, ok := c.jobs[r.PathValue("id")]
	c.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	}
	return j, ok
}

// leaseID encodes (job, campaign index, shard, generation); the
// generation distinguishes re-issues of the same shard.
func leaseID(job string, campaignIdx, shard int, gen uint64) string {
	return fmt.Sprintf("%s.%d.%d.%d", job, campaignIdx, shard, gen)
}

// resolveLease parses a lease ID back to its job, campaign, shard and
// generation, writing a 404 for IDs that never existed.
func (c *Coordinator) resolveLease(w http.ResponseWriter, r *http.Request) (*job, *jobCampaign, int, uint64, bool) {
	id := r.PathValue("id")
	parts := strings.Split(id, ".")
	if len(parts) != 4 {
		httpError(w, http.StatusNotFound, "malformed lease id %q", id)
		return nil, nil, 0, 0, false
	}
	ci, err1 := strconv.Atoi(parts[1])
	si, err2 := strconv.Atoi(parts[2])
	gen, err3 := strconv.ParseUint(parts[3], 10, 64)
	c.mu.Lock()
	j, ok := c.jobs[parts[0]]
	c.mu.Unlock()
	if err1 != nil || err2 != nil || err3 != nil || !ok ||
		ci < 0 || ci >= len(j.campaigns) || si < 0 || si >= len(j.campaigns[ci].slots) {
		httpError(w, http.StatusNotFound, "no lease %q", id)
		return nil, nil, 0, 0, false
	}
	return j, j.campaigns[ci], si, gen, true
}

// writeSSE emits one event in SSE framing; false when the client went
// away.
func writeSSE(w http.ResponseWriter, fl http.Flusher, ev Event) bool {
	if ev.ID > 0 {
		if _, err := fmt.Fprintf(w, "id: %d\n", ev.ID); err != nil {
			return false
		}
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Name, ev.Data); err != nil {
		return false
	}
	fl.Flush()
	return true
}

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		return json.RawMessage(fmt.Sprintf("{\"error\":%q}", err.Error()))
	}
	return b
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
