// Command pairserve runs the PAIR campaign fleet: a long-running
// coordinator that accepts campaign jobs over HTTP/JSON and hands shard
// leases to worker processes, or (with -worker) one such worker.
//
// Coordinator:
//
//	pairserve -listen 127.0.0.1:8080 -checkpoint ckpt/ -journal journal/
//
// Workers (any number, started and stopped freely):
//
//	pairserve -worker -join http://127.0.0.1:8080
//
// Submit, watch and fetch jobs with pairsim's -fleet flag or plain
// curl; see README.md for the endpoint reference. Campaign checkpoints
// the coordinator merges are byte-identical to a local `pairsim
// -checkpoint` run's, so `pairsim -resume` over the same directory
// picks a fleet run up. With -journal, a coordinator restarted after a
// crash gets its jobs back and leases only the shards without a
// checkpoint fragment.
//
// Shard seeds derive from (campaign label, seed, shard index) alone, so
// work may move between workers — through lease expiry, worker death or
// duplicated completions — without changing a single output byte.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pair/internal/fleet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run serves (or works) until SIGINT/SIGTERM.
func run(args []string, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runCtx(ctx, args, stdout, stderr)
}

// runCtx is the testable entry point: it parses args and serves (or
// works) until ctx is cancelled, returning the process exit code. The
// coordinator prints its listen URL on stdout as its first line, so
// scripts (and the CI smoke test) can scrape the address of a
// dynamically chosen port.
func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pairserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		worker  = fs.Bool("worker", false, "run as a worker instead of the coordinator")
		join    = fs.String("join", "", "worker: coordinator base URL (e.g. http://127.0.0.1:8080)")
		id      = fs.String("id", "", "worker: name reported in leases and logs (default pid-derived)")
		poll    = fs.Duration("poll", 200*time.Millisecond, "worker: idle wait between lease polls")
		retries = fs.Int("retries", 1, "worker: extra local attempts for a shard that panics, errors, or times out")
		shardTO = fs.Duration("shard-timeout", 0, "worker: abandon and retry a shard attempt running longer than this (0 disables)")
		reqTO   = fs.Duration("request-timeout", fleet.DefaultRequestTimeout, "worker: per-request deadline for coordinator calls (negative disables)")
		httpTry = fs.Int("http-retries", fleet.DefaultClientRetries, "worker: attempts per coordinator call before a transient fault is surfaced (negative means 1)")

		listen       = fs.String("listen", "127.0.0.1:8080", "coordinator: listen address (port 0 picks one)")
		checkpoint   = fs.String("checkpoint", "", "coordinator: directory for merged campaign checkpoints (standard pairsim format)")
		journal      = fs.String("journal", "", "coordinator: crash-recovery directory holding one file per submitted job (spec, cancellation) and an epoch file; on start every recorded job is restored and its shards without a checkpoint fragment are leased again")
		resume       = fs.Bool("resume", false, "coordinator: load existing checkpoints at job submission; only missing shards are leased")
		salvage      = fs.Bool("salvage", false, "coordinator: with -resume, recover intact shards from corrupted checkpoints instead of failing the submission")
		leaseTTL     = fs.Duration("lease-ttl", fleet.DefaultLeaseTTL, "coordinator: lease deadline; unrenewed leases are re-issued after this")
		shardRetries = fs.Int("shard-retries", fleet.DefaultShardRetries, "coordinator: permanent worker failures a shard absorbs before it is marked failed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	warnf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "pairserve: "+format+"\n", args...)
	}

	if *worker {
		if *join == "" {
			fmt.Fprintln(stderr, "pairserve: -worker requires -join <coordinator URL>")
			return 2
		}
		base := *join
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		wid := *id
		if wid == "" {
			wid = fmt.Sprintf("worker-%d", os.Getpid())
		}
		w := fleet.NewWorker(base, fleet.WorkerOptions{
			ID:             wid,
			Poll:           *poll,
			Retries:        *retries,
			ShardTimeout:   *shardTO,
			RequestTimeout: *reqTO,
			HTTPRetries:    *httpTry,
			Warnf:          warnf,
		})
		fmt.Fprintf(stdout, "pairserve: worker %s polling %s\n", wid, base)
		_ = w.Run(ctx)
		fmt.Fprintf(stdout, "pairserve: worker %s stopped\n", wid)
		return 0
	}

	if *salvage && !*resume {
		fmt.Fprintln(stderr, "pairserve: -salvage requires -resume")
		return 2
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{
		CheckpointDir: *checkpoint,
		JournalDir:    *journal,
		Resume:        *resume,
		Salvage:       *salvage,
		LeaseTTL:      *leaseTTL,
		ShardRetries:  *shardRetries,
		Warnf:         warnf,
	})
	if err != nil {
		fmt.Fprintln(stderr, "pairserve:", err)
		return 1
	}
	defer coord.Close()
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "pairserve:", err)
		return 1
	}
	fmt.Fprintf(stdout, "pairserve: listening on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: coord.Handler()}
	go func() {
		<-ctx.Done()
		// Close first: it releases open SSE streams, so Shutdown drains
		// promptly instead of riding out its timeout against watchers.
		coord.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "pairserve:", err)
		return 1
	}
	fmt.Fprintln(stdout, "pairserve: coordinator stopped")
	return 0
}
