package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pair/internal/campaign"
	"pair/internal/faults"
	"pair/internal/fleet"
	"pair/internal/reliability"
	"pair/internal/schemes"
)

// Fleet sizing: the mc-scenarios grid at 1000 trials per cell in
// 250-trial shards, so one job is 240 leases and a run holds many jobs.
const (
	fleetNamespace    = "fleet"
	fleetTrials       = 1000
	fleetShardSize    = 250
	shardsPerCampaign = (fleetTrials + fleetShardSize - 1) / fleetShardSize
	// fleetPoll is the worker's idle poll interval: short, so a job
	// submitted while the worker sleeps starts at once.
	fleetPoll       = time.Millisecond
	fleetJobTimeout = 90 * time.Second
)

// fleetWorkload is an in-process coordinator on loopback with one
// worker and a client that submits the grid and waits on its SSE
// stream. The journal and checkpoints live in a fresh directory under
// the run's --dir, removed by close.
type fleetWorkload struct {
	seed      int64
	dir       string
	journal   string
	ckpt      string
	spec      fleet.JobSpec
	coord     *fleet.Coordinator
	srv       *http.Server
	served    chan error
	base      string
	worker    *fleetWorker
	transport *http.Transport // the submitting client's
	client    *fleet.Client
	log       io.Writer

	// What a traced job leaves for layers.
	job          span
	jobCPU       time.Duration
	rpcs         []rpcRecord
	computeNS    int64
	tracedTrials float64
	reissued     int
	stateBytes   int64
}

func newFleet(cfg config, log io.Writer) (instance, error) {
	dir, err := os.MkdirTemp(cfg.dir, "fleet-")
	if err != nil {
		return nil, err
	}
	w := &fleetWorkload{
		seed:    cfg.seed,
		dir:     dir,
		journal: filepath.Join(dir, "journal"),
		ckpt:    filepath.Join(dir, "checkpoints"),
		log:     log,
		spec: fleet.JobSpec{
			Namespace: fleetNamespace,
			Schemes:   commodity,
			Scenarios: faults.ScenarioIDs(),
			Trials:    fleetTrials,
			ShardSize: fleetShardSize,
			Seed:      cfg.seed,
		},
	}
	if err := w.start(); err != nil {
		return nil, errors.Join(err, w.close())
	}
	return w, nil
}

// start brings up the coordinator, its HTTP server, the worker and the
// submitting client.
func (w *fleetWorkload) start() error {
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{CheckpointDir: w.ckpt, JournalDir: w.journal, Warnf: w.warnf})
	if err != nil {
		return err
	}
	w.coord = coord
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: coord.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.worker = startWorker(w.base, nil, w.warnf)
	w.transport = &http.Transport{}
	w.client = fleet.NewClientWith(w.base, fleet.ClientOptions{HTTP: &http.Client{Transport: w.transport}, Warnf: w.warnf})
	return nil
}

// close stops the worker, releases the SSE watchers before shutting the
// server down, and removes the state directory.
func (w *fleetWorkload) close() error {
	var errs []error
	if w.worker != nil {
		errs = append(errs, w.worker.stop())
		w.worker = nil
	}
	if w.coord != nil {
		w.coord.Close()
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, w.srv.Shutdown(ctx))
		cancel()
		if err := <-w.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if w.transport != nil {
		w.transport.CloseIdleConnections()
	}
	errs = append(errs, os.RemoveAll(w.dir))
	return errors.Join(errs...)
}

func (w *fleetWorkload) warnf(format string, args ...any) {
	fmt.Fprintf(w.log, "e2ebench: fleet: "+format+"\n", args...)
}

// fleetWorker is one running fleet.Worker.
type fleetWorker struct {
	cancel    context.CancelFunc
	done      chan error
	transport *http.Transport
}

// startWorker runs a worker against base; with a non-nil rec, every
// RPC it makes is timed into rec.
func startWorker(base string, rec *rpcLog, warnf func(string, ...any)) *fleetWorker {
	t := &http.Transport{}
	var rt http.RoundTripper = t
	if rec != nil {
		rt = &timingTransport{base: t, log: rec, worker: true}
	}
	ctx, cancel := context.WithCancel(context.Background())
	wk := fleet.NewWorker(base, fleet.WorkerOptions{ID: "bench", Poll: fleetPoll, HTTP: &http.Client{Transport: rt}, Warnf: warnf})
	done := make(chan error, 1)
	go func() { done <- wk.Run(ctx) }()
	return &fleetWorker{cancel: cancel, done: done, transport: t}
}

// stop cancels the worker and waits until Run has returned.
func (f *fleetWorker) stop() error {
	f.cancel()
	err := <-f.done
	f.transport.CloseIdleConnections()
	return err
}

func (w *fleetWorkload) pass() (passResult, error) {
	pr, _, err := w.runJob(w.client)
	return pr, err
}

// runJob submits the grid through c and waits for its result. A
// campaign with failed shards, or a job that did not finish, yields an
// output that can match nothing.
func (w *fleetWorkload) runJob(c *fleet.Client) (passResult, string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), fleetJobTimeout)
	defer cancel()
	id, err := c.Submit(ctx, w.spec)
	if err != nil {
		return passResult{}, "", err
	}
	res, err := c.Wait(ctx, id, nil)
	if err != nil {
		return passResult{}, "", err
	}
	out := make(map[string]string, len(res.Campaigns))
	var trials float64
	for _, cr := range res.Campaigns {
		if res.State != "done" || len(cr.FailedShards) > 0 {
			out[cr.Label] = fmt.Sprintf("job %s, failed shards %v", res.State, cr.FailedShards)
			continue
		}
		out[cr.Label] = mustJSON(cr.Counts)
		trials += float64(cr.Trials)
	}
	return passResult{out: out, units: trials, weight: shardsPerCampaign}, id, nil
}

// replay stops the untraced worker; when tracing, it runs one more job
// through a worker and a client whose transports time every RPC. Then
// it recomputes every campaign locally with campaign.Run, the same
// spec, shard size and shard function, which the fleet must match.
func (w *fleetWorkload) replay(tr *tracer, g *gate) error {
	if err := w.worker.stop(); err != nil {
		return err
	}
	w.worker = nil
	if tr != nil {
		if err := w.tracedJob(tr, g); err != nil {
			return err
		}
	}
	sch, err := schemes.Build(w.spec.Schemes)
	if err != nil {
		return err
	}
	scs, err := faults.BuildScenarios(w.spec.Scenarios)
	if err != nil {
		return err
	}
	out := make(map[string]string, len(sch)*len(scs))
	opts := campaign.Options{Namespace: fleetNamespace, Workers: mcWorkers}
	for _, sc := range scs {
		for _, s := range sch {
			spec := reliability.ScenarioCampaignSpec(s, sc, fleetTrials, w.seed)
			spec.ShardSize = fleetShardSize
			counts, err := campaign.Run(context.Background(), spec, opts, reliability.ScenarioShardFn(s, sc), reliability.MergeCounts)
			if err != nil {
				return err
			}
			out[campaign.JoinLabel(fleetNamespace, spec.Label)] = mustJSON(counts)
		}
	}
	g.compare("local campaign.Run", out, shardsPerCampaign)
	return nil
}

// tracedJob runs one job with every RPC timed, and derives each leased
// shard's compute span: from its lease reply to its completion request.
func (w *fleetWorkload) tracedJob(tr *tracer, g *gate) error {
	before, err := dirBytes(w.journal)
	if err != nil {
		return err
	}
	rec := &rpcLog{tr: tr, parent: tr.open(spanJob, -1, -1)}
	worker := startWorker(w.base, rec, w.warnf)
	ct := &http.Transport{}
	client := fleet.NewClientWith(w.base, fleet.ClientOptions{HTTP: &http.Client{Transport: &timingTransport{base: ct, log: rec}}, Warnf: w.warnf})
	c0 := cpuTime()
	pr, id, err := w.runJob(client)
	w.jobCPU = cpuTime() - c0
	tr.close(rec.parent)
	err = errors.Join(err, worker.stop())
	ct.CloseIdleConnections()
	if err != nil {
		return err
	}
	g.compare("traced job", pr.out, pr.weight)

	ctx, cancel := context.WithTimeout(context.Background(), fleetJobTimeout)
	defer cancel()
	st, err := w.client.Status(ctx, id)
	if err != nil {
		return err
	}
	after, err := dirBytes(w.journal)
	if err != nil {
		return err
	}
	ckpt, err := dirBytes(w.ckpt)
	if err != nil {
		return err
	}
	w.job = tr.spans[rec.parent]
	w.tracedTrials = pr.units
	w.reissued = st.Reissued
	w.stateBytes = after - before + ckpt
	w.rpcs = rec.rpcs
	sort.Slice(w.rpcs, func(a, b int) bool { return w.rpcs[a].start < w.rpcs[b].start })
	w.computeNS = 0
	leaseEnd := map[int32]int64{}
	for _, r := range w.rpcs {
		switch {
		case r.span == spanLease && r.status == http.StatusOK:
			leaseEnd[r.shard] = r.end
		case r.span == spanComplete:
			if end, ok := leaseEnd[r.shard]; ok {
				tr.add(spanCompute, rec.parent, r.shard, end, r.start)
				w.computeNS += r.start - end
				delete(leaseEnd, r.shard)
			}
		}
	}
	return nil
}

// layers reports the lease protocol's latencies and overheads from the
// traced job's RPCs.
func (w *fleetWorkload) layers(tr *tracer, cpuPerTrial float64) (map[string]float64, error) {
	var lease, complete []float64
	first, last := int64(-1), int64(0)
	retries := 0
	for _, r := range w.rpcs {
		// Stopping the worker after the job cancels its idle poll; only
		// failures inside the job count.
		failed := r.status == 0 || r.status == http.StatusTooManyRequests || r.status >= 500
		if failed && r.end <= w.job.end {
			retries++
		}
		ms := float64(r.end-r.start) / 1e6
		switch {
		case r.span == spanLease && r.status == http.StatusOK:
			lease = append(lease, ms)
			if first < 0 {
				first = r.start
			}
		case r.span == spanComplete:
			complete = append(complete, ms)
			last = max(last, r.end)
		}
	}
	shards := float64(len(lease))
	if shards == 0 {
		return map[string]float64{}, errors.New("the traced job leased no shards")
	}
	inWindow := 0
	for _, r := range w.rpcs {
		if r.worker && r.start >= first && r.end <= last {
			inWindow++
		}
	}
	sort.Float64s(lease)
	sort.Float64s(complete)
	jobNS := float64(w.job.end - w.job.start)
	vals := map[string]float64{
		"fleet.lease_ms.p50":          quantile(lease, 0.5),
		"fleet.lease_ms.samples":      shards,
		"fleet.complete_ms.p50":       quantile(complete, 0.5),
		"fleet.complete_ms.samples":   float64(len(complete)),
		"fleet.compute_ms_per_shard":  float64(w.computeNS) / 1e6 / shards,
		"fleet.protocol_frac":         1 - float64(w.computeNS)/jobNS,
		"fleet.rpcs_per_shard":        float64(inWindow) / shards,
		"fleet.retries":               float64(retries),
		"fleet.reissued":              float64(w.reissued),
		"fleet.state_bytes_per_shard": float64(w.stateBytes) / shards,
		"bench.trace_overhead_frac":   float64(w.jobCPU)/w.tracedTrials/cpuPerTrial - 1,
	}
	vals["fleet.lease_ms.tail_pct"], vals["fleet.lease_ms.tail"] = tail(lease)
	vals["fleet.complete_ms.tail_pct"], vals["fleet.complete_ms.tail"] = tail(complete)
	return vals, nil
}

// rpcRecord is one timed fleet HTTP exchange.
type rpcRecord struct {
	span       uint8 // spanLease, spanComplete, ...
	worker     bool  // made by the worker, not the submitting client
	start, end int64
	status     int   // 0 on a transport error
	shard      int32 // lease sequence number; -1 for job-level RPCs
}

// rpcLog collects a traced job's RPCs and mirrors each as a span.
type rpcLog struct {
	tr     *tracer
	parent int32
	mu     sync.Mutex
	rpcs   []rpcRecord
	leases int32 // leases granted so far
}

func (l *rpcLog) add(r rpcRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.shard = -1
	switch {
	case r.span == spanLease && r.status == http.StatusOK:
		r.shard = l.leases
		l.leases++
	case r.span == spanComplete || r.span == spanRenew:
		// One worker runs one lease at a time: the latest grant.
		r.shard = l.leases - 1
	}
	l.rpcs = append(l.rpcs, r)
	l.tr.add(r.span, l.parent, r.shard, r.start, r.end)
}

// timingTransport times every request it carries into an rpcLog. A
// streamed response (the SSE watch) is timed to its headers.
type timingTransport struct {
	base   http.RoundTripper
	log    *rpcLog
	worker bool
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := t.log.tr.now()
	resp, err := t.base.RoundTrip(req)
	end := t.log.tr.now()
	status := 0
	if err == nil {
		status = resp.StatusCode
	}
	t.log.add(rpcRecord{span: rpcSpan(req), worker: t.worker, start: start, end: end, status: status})
	return resp, err
}

// rpcSpan names a coordinator request by its route.
func rpcSpan(req *http.Request) uint8 {
	p := req.URL.Path
	switch {
	case p == "/api/lease":
		return spanLease
	case strings.HasSuffix(p, "/renew"):
		return spanRenew
	case strings.HasSuffix(p, "/complete"):
		return spanComplete
	case p == "/api/jobs" && req.Method == http.MethodPost:
		return spanSubmit
	case strings.HasSuffix(p, "/events"):
		return spanEvents
	case strings.HasSuffix(p, "/result"):
		return spanResult
	case strings.HasPrefix(p, "/api/jobs/"):
		return spanStatus
	}
	return spanOtherRPC
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
