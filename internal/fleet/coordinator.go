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
)

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
	// fleet run up. One file serves one running job: a submission with
	// a campaign label a running job holds is refused (409). Empty
	// merges in memory only.
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

	// now is the clock leases are granted and renewed by (time.Now
	// when nil); tests advance it to expire leases.
	now func() time.Time
}

// jobRecord is the content of a <job id>.json file under JournalDir:
// what the checkpoint directory cannot rebuild about a job.
type jobRecord struct {
	Spec      *JobSpec `json:"spec"`
	Cancelled bool     `json:"cancelled,omitempty"`
}

// Coordinator is the fleet's control plane: it expands submitted jobs
// into campaigns, brokers shard leases to polling workers, records the
// returned fragments in each campaign's checkpoint store
// (campaign.Checkpoint), and serves status, results and SSE progress
// over HTTP. The lease state machine lives in lease.go; the handlers
// here decode, call it with the clock's time, and encode. Lease expiry
// is reclaimed lazily — an expired lease returns to the pool the next
// time any worker asks for work — which keeps the coordinator free of
// background goroutines and timers.
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
	mux.HandleFunc("POST /api/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if decode(w, r, &spec, "job spec") {
			st, err := c.submit(spec)
			reply(w, http.StatusCreated, st, err)
		}
	})
	mux.HandleFunc("GET /api/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": c.list()})
	})
	mux.HandleFunc("GET /api/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := c.status(r.PathValue("id"))
		reply(w, http.StatusOK, st, err)
	})
	mux.HandleFunc("POST /api/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		st, err := c.cancel(r.PathValue("id"))
		reply(w, http.StatusOK, st, err)
	})
	mux.HandleFunc("GET /api/jobs/{id}/events", c.handleEvents)
	mux.HandleFunc("GET /api/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		res, err := c.result(r.PathValue("id"))
		reply(w, http.StatusOK, res, err)
	})
	mux.HandleFunc("POST /api/lease", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Worker string `json:"worker"`
		}
		if !decode(w, r, &req, "lease request") {
			return
		}
		if l, ok := c.grant(req.Worker, c.opts.now()); ok {
			writeJSON(w, http.StatusOK, l)
		} else {
			w.WriteHeader(http.StatusNoContent)
		}
	})
	mux.HandleFunc("POST /api/lease/{id}/renew", func(w http.ResponseWriter, r *http.Request) {
		deadline, err := c.renew(r.PathValue("id"), c.opts.now())
		reply(w, http.StatusOK, map[string]any{"deadline": deadline}, err)
	})
	mux.HandleFunc("POST /api/lease/{id}/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decode(w, r, &req, "completion") {
			return
		}
		var res CompleteResponse
		var err error
		if req.Error != "" {
			res, err = c.fail(r.PathValue("id"), req.Worker, req.Error)
		} else {
			res, err = c.complete(r.PathValue("id"), req.Worker, req.Fragment)
		}
		reply(w, http.StatusOK, res, err)
	})
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

// restore rebuilds the jobs recorded under JournalDir in job-number
// order, with checkpoint resume forced on: merged shards stay done and
// every other shard is leased again. A cancelled job stays cancelled;
// done and failed follow from the stores. A job that no longer
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
		j, err := expandJob(*rec.Spec)
		if err == nil {
			err = c.openLocked(j, true)
		}
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
	c.warnf("fleet: restored %d job(s) (epoch %d)", len(c.order), c.epoch)
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

// handleEvents streams job progress as SSE: "progress" and "shard" on
// every completion, "warning" on lease expiry and shard failures, and a
// final "done" carrying the terminal status, after which the stream
// closes. A slow consumer's queue overflow drops events rather than
// blocking the coordinator.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	j, err := c.jobLocked(r.PathValue("id"))
	c.mu.Unlock()
	if err != nil {
		httpError(w, statusOf(err), "%v", err)
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

// decode reads a JSON request body into v, answering 400 when it does
// not decode.
func decode(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "decoding %s: %v", what, err)
		return false
	}
	return true
}

// reply answers v with code, or err with the status of its kind.
func reply(w http.ResponseWriter, code int, v any, err error) {
	if err != nil {
		httpError(w, statusOf(err), "%v", err)
		return
	}
	writeJSON(w, code, v)
}

// statusOf maps an error of the lease core to its HTTP status.
func statusOf(err error) int {
	switch {
	case errors.Is(err, errUnknown):
		return http.StatusNotFound
	case errors.Is(err, errGone):
		return http.StatusGone
	case errors.Is(err, errConflict):
		return http.StatusConflict
	case errors.Is(err, errJournalUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, errCorrupt):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
