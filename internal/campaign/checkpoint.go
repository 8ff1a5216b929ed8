package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"pair/internal/failpoint"
)

// checkpointVersion guards the on-disk format.
const checkpointVersion = 1

// checkpointFile is the persisted form of a campaign's completed shards.
// Shard results are stored as raw JSON so the file format is independent
// of the concrete result type a campaign aggregates.
type checkpointFile struct {
	Version   int                     `json:"version"`
	Label     string                  `json:"label"`
	Seed      int64                   `json:"seed"`
	Trials    int                     `json:"trials"`
	ShardSize int                     `json:"shard_size"`
	Shards    map[int]json.RawMessage `json:"shards"`
}

// Checkpoint is the one store of a campaign's shard fragments: the
// results Run computes locally and the fragments fleet workers return
// to a coordinator alike. With a directory it mirrors them to a JSON
// file, and every fresh fragment rewrites the file via a temp file, an
// fsync, and an atomic rename, so a kill or power loss at any instant
// leaves either the previous or the new complete checkpoint — never a
// torn, empty, or stale one. Without a directory it keeps them in
// memory only.
//
// Transient I/O failures are retried with exponential backoff; when the
// budget is exhausted the checkpoint degrades to memory-only mode: the
// campaign keeps running to completion, a warning records that
// resumability was lost, and no further disk I/O is attempted. A
// degraded checkpoint still keeps every fragment recorded into it.
type Checkpoint struct {
	path     string // "" keeps the fragments in memory only
	n        int    // the campaign's shard count
	backoff  Backoff
	report   *Report
	warnSink func(string, ...any)

	mu       sync.Mutex
	file     checkpointFile
	degraded bool
}

// CheckpointPath returns the checkpoint file path a campaign label maps
// to inside dir.
func CheckpointPath(dir, label string) string {
	return filepath.Join(dir, sanitizeLabel(label)+".json")
}

// sanitizeLabel maps a campaign label to a safe file stem. Replacing
// unsafe runes with '_' alone is lossy — distinct labels like "a/b" and
// "a_b" would share a stem, and a fresh (non-resume) run of one would
// silently overwrite the other's checkpoint — so whenever any rune was
// replaced, a short FNV-1a hash of the raw label is appended to keep
// stems collision-free. Labels that need no replacement (and therefore
// never collided) keep their historical stems.
func sanitizeLabel(label string) string {
	out := make([]rune, 0, len(label))
	lossy := false
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_', r == '=':
			out = append(out, r)
		default:
			out = append(out, '_')
			lossy = true
		}
	}
	if len(out) == 0 {
		return "campaign"
	}
	if !lossy {
		return string(out)
	}
	h := fnv.New32a()
	h.Write([]byte(label))
	return fmt.Sprintf("%s-%08x", string(out), h.Sum32())
}

// OpenCheckpoint opens the store of one campaign's fragments, mirrored
// to CheckpointPath(dir, spec.Label) or, with an empty dir, kept in
// memory. spec.Label is the full campaign label (namespace included);
// opts supplies Resume, Salvage, CheckpointBackoff, Report and Warnf.
// With opts.Resume it loads an existing file, which must belong to the
// same campaign shape (see loadCheckpoint); without resume it starts
// empty (a stale file is overwritten on the first record, and a stale
// temp file from a killed run is removed so it cannot linger or be
// mistaken for a checkpoint).
//
// With opts.Salvage, a corrupted or truncated checkpoint no longer
// aborts the resume: every intact shard — from the main file and from a
// leftover .tmp a crash stranded between write and rename — is
// recovered, the rest are dropped with a warning, and the campaign
// recomputes only what was lost.
func OpenCheckpoint(dir string, spec Spec, opts Options) (*Checkpoint, error) {
	c := &Checkpoint{
		n:        spec.NumShards(),
		backoff:  opts.CheckpointBackoff,
		report:   opts.Report,
		warnSink: opts.Warnf,
		file: checkpointFile{
			Version:   checkpointVersion,
			Label:     spec.Label,
			Seed:      spec.Seed,
			Trials:    spec.Trials,
			ShardSize: spec.shardSize(),
			Shards:    map[int]json.RawMessage{},
		},
	}
	if dir == "" {
		return c, nil
	}
	c.path = CheckpointPath(dir, spec.Label)
	err := c.retry(func() error {
		if err := failpoint.Hit(FailpointMkdir); err != nil {
			return err
		}
		return os.MkdirAll(dir, 0o755)
	})
	if err != nil {
		// An unusable checkpoint directory is not fatal: run in memory.
		c.degrade("creating checkpoint dir %s: %v", dir, err)
		return c, nil
	}
	tmpPath := c.path + ".tmp"
	if !opts.Resume {
		os.Remove(tmpPath)
		return c, nil
	}

	raw, readErr := c.readRetry(c.path)
	if !opts.Salvage {
		if readErr != nil {
			return nil, fmt.Errorf("campaign: read checkpoint: %w", readErr)
		}
		os.Remove(tmpPath)
		if raw == nil {
			return c, nil // nothing to resume yet
		}
		shards, err := loadCheckpoint(raw, spec)
		if err != nil {
			return nil, fmt.Errorf("campaign: checkpoint %s %v (rerun with salvage to recover intact shards)", c.path, err)
		}
		c.file.Shards = shards
		return c, nil
	}

	// Salvage path: fold main file + leftover .tmp, keep every shard
	// whose bytes survived, warn about the rest.
	if readErr != nil {
		c.report.Warningf(c.warnSink, "campaign %q: unreadable checkpoint %s (%v); resuming with nothing", spec.Label, c.path, readErr)
	}
	tmpRaw, _ := os.ReadFile(tmpPath)
	os.Remove(tmpPath)
	if raw == nil && tmpRaw == nil {
		return c, nil
	}
	// A checkpoint that passes the strict check resumes silently:
	// salvage only announces itself when it actually recovered
	// something.
	if tmpRaw == nil {
		if shards, err := loadCheckpoint(raw, spec); err == nil {
			c.file.Shards = shards
			return c, nil
		}
	}
	rep := SalvageReport{Label: spec.Label, Path: c.path}
	absorb := func(data []byte, fromTmp bool) {
		if data == nil {
			return
		}
		f := salvageParse(data)
		if !headerMatches(f, spec) {
			rep.Dropped += len(f.Shards)
			return
		}
		rep.HeaderOK = true
		for i, payload := range f.Shards {
			if i < 0 || i >= c.n || isNullJSON(payload) {
				rep.Dropped++
				continue
			}
			if _, dup := c.file.Shards[i]; dup {
				continue
			}
			c.file.Shards[i] = payload
			rep.Recovered++
			if fromTmp {
				rep.FromTmp++
			}
		}
	}
	absorb(raw, false)
	absorb(tmpRaw, true)
	c.report.addSalvage(rep)
	c.report.Warningf(c.warnSink, "campaign %q: %s", spec.Label, rep)
	return c, nil
}

// loadCheckpoint is the one check both resume modes apply to a
// checkpoint file: it parses, its header matches spec, and every shard
// is in range and not null (a null payload would silently unmarshal
// into a zero result). Strict resume rejects a file that fails it;
// salvage resume recovers what it can from one.
func loadCheckpoint(raw []byte, spec Spec) (map[int]json.RawMessage, error) {
	var f checkpointFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("does not parse: %w", err)
	}
	if !headerMatches(f, spec) {
		return nil, fmt.Errorf("was written by a different campaign (version %d label %q seed %d trials %d shard %d; want %d %q %d %d %d)",
			f.Version, f.Label, f.Seed, f.Trials, f.ShardSize,
			checkpointVersion, spec.Label, spec.Seed, spec.Trials, spec.shardSize())
	}
	n := spec.NumShards()
	for i, payload := range f.Shards {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("holds shard %d of a %d-shard campaign", i, n)
		}
		if isNullJSON(payload) {
			return nil, fmt.Errorf("holds a null shard %d", i)
		}
	}
	if f.Shards == nil {
		f.Shards = map[int]json.RawMessage{}
	}
	return f.Shards, nil
}

// readRetry reads path with the transient-I/O retry policy. A missing
// file is not an error: it returns (nil, nil).
func (c *Checkpoint) readRetry(path string) ([]byte, error) {
	var raw []byte
	err := c.retry(func() error {
		if err := failpoint.Hit(FailpointRead); err != nil {
			return err
		}
		var rerr error
		raw, rerr = os.ReadFile(path)
		if errors.Is(rerr, fs.ErrNotExist) {
			raw = nil
			return nil
		}
		return rerr
	})
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// retry runs one checkpoint I/O operation on the backoff schedule and
// counts its retries. No context cuts it short: a shard that finishes
// after its run was cancelled is still recorded.
func (c *Checkpoint) retry(op func() error) error {
	retries, err := c.backoff.Retry(context.Background(), c.file.Label, op)
	c.report.addCheckpointRetries(retries)
	return err
}

// Record stores shard i's fragment unless the checkpoint already holds
// one, and reports whether it did (fresh). A duplicate is discarded:
// a fragment derives from (label, seed, shard index) alone, so it is
// byte-identical to the stored one and first-wins equals last-wins. An
// out-of-range index or a fragment that is not a JSON value is an
// error. A fresh fragment is persisted before Record returns — one
// atomic rewrite of the file, retried with backoff — and an exhausted
// budget degrades the checkpoint to memory-only instead of failing.
// Writes are serialized, so the file on disk always holds a prefix of
// the recorded shards.
func (c *Checkpoint) Record(i int, frag json.RawMessage) (fresh bool, err error) {
	if i < 0 || i >= c.n {
		return false, fmt.Errorf("campaign %q: shard %d out of range [0,%d)", c.file.Label, i, c.n)
	}
	if !json.Valid(frag) || isNullJSON(frag) {
		return false, fmt.Errorf("campaign %q: shard %d fragment is not a JSON value", c.file.Label, i)
	}
	c.mu.Lock()
	if _, dup := c.file.Shards[i]; dup {
		c.mu.Unlock()
		return false, nil
	}
	c.file.Shards[i] = append(json.RawMessage(nil), frag...)
	if c.path == "" || c.degraded {
		c.mu.Unlock()
		return true, nil
	}
	buf, err := json.MarshalIndent(&c.file, "", " ")
	if err == nil {
		err = c.retry(func() error { return WriteFileAtomic(c.path, append(buf, '\n')) })
	}
	c.mu.Unlock()
	if err != nil {
		c.degrade("%v", err)
	}
	return true, nil
}

// Has reports whether shard i's fragment is stored.
func (c *Checkpoint) Has(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.file.Shards[i]
	return ok
}

// Fold visits every stored fragment in ascending shard order — the
// order Run merges in, so an aggregate folded here is byte-identical
// to a local run's — and stops at the first error visit returns.
func (c *Checkpoint) Fold(visit func(i int, frag json.RawMessage) error) error {
	for i := 0; i < c.n; i++ {
		c.mu.Lock()
		raw, ok := c.file.Shards[i]
		c.mu.Unlock()
		if !ok {
			continue
		}
		if err := visit(i, raw); err != nil {
			return fmt.Errorf("campaign %q: shard %d: %w", c.file.Label, i, err)
		}
	}
	return nil
}

// drop removes shard i from the in-memory set, so a payload rejected at
// unmarshal time is never persisted again.
func (c *Checkpoint) drop(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.file.Shards, i)
}

// WriteFileAtomic durably replaces the file at path with data: temp
// file, fsync, atomic rename, directory sync. A kill or power loss at
// any instant leaves either the previous or the new complete file,
// never a torn or empty one. Any step failing (or the armed
// FailpointWrite, FailpointFsync or FailpointRename standing in for it)
// fails the whole attempt and leaves the old file in place; callers
// decide whether to try again.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := failpoint.Hit(FailpointWrite); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	_, werr := f.Write(data)
	if werr == nil {
		// fsync before rename: without it a power loss can commit the
		// rename but not the data, leaving a zero-length file.
		if werr = failpoint.Hit(FailpointFsync); werr == nil {
			werr = f.Sync()
		}
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write %s: %w", path, werr)
	}
	if err := failpoint.Hit(FailpointRename); err != nil {
		return fmt.Errorf("commit %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("commit %s: %w", path, err)
	}
	// Sync the directory so the rename itself is durable. Best effort:
	// some filesystems reject fsync on a directory handle.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// degrade switches the checkpoint to memory-only mode (idempotently)
// and records why.
func (c *Checkpoint) degrade(format string, args ...any) {
	c.mu.Lock()
	already := c.degraded
	c.degraded = true
	c.mu.Unlock()
	if already {
		return
	}
	reason := fmt.Sprintf(format, args...)
	c.report.setDegraded(reason)
	c.report.Warningf(c.warnSink, "campaign %q: checkpointing degraded to memory-only (%s); this run will finish but cannot be resumed", c.file.Label, reason)
}
