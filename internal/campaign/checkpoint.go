package campaign

import (
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

// Checkpoint tracks the completed shards of one campaign and mirrors
// them to a JSON file. Every update rewrites the file via a temp file,
// an fsync, and an atomic rename, so a kill or power loss at any
// instant leaves either the previous or the new complete checkpoint —
// never a torn, empty, or stale one.
//
// Transient I/O failures are retried with exponential backoff; when the
// budget is exhausted the checkpoint degrades to memory-only mode: the
// campaign keeps running to completion, a warning records that
// resumability was lost, and no further disk I/O is attempted.
type Checkpoint struct {
	path     string
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

// openCheckpoint binds a checkpoint to dir for the given spec. With
// opts.Resume it loads any existing file and validates that it belongs
// to the same campaign shape; without resume it starts empty (a stale
// file is overwritten on the first save, and a stale temp file from a
// killed run is removed so it cannot linger or be mistaken for a
// checkpoint).
//
// With opts.Salvage, a corrupted or truncated checkpoint no longer
// aborts the resume: every intact shard — from the main file and from a
// leftover .tmp a crash stranded between write and rename — is
// recovered, the rest are dropped with a warning, and the campaign
// recomputes only what was lost.
func openCheckpoint(dir string, spec Spec, opts Options) (*Checkpoint, error) {
	c := &Checkpoint{
		path:     CheckpointPath(dir, spec.Label),
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
	retries, err := c.backoff.retry(spec.Label, func() error {
		if err := failpoint.Hit(FailpointMkdir); err != nil {
			return err
		}
		return os.MkdirAll(dir, 0o755)
	})
	c.report.addCheckpointRetries(retries)
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
	if readErr != nil && !opts.Salvage {
		return nil, fmt.Errorf("campaign: read checkpoint: %w", readErr)
	}

	if !opts.Salvage {
		os.Remove(tmpPath)
		if raw == nil {
			return c, nil // nothing to resume yet
		}
		var loaded checkpointFile
		if err := json.Unmarshal(raw, &loaded); err != nil {
			return nil, fmt.Errorf("campaign: parse checkpoint %s: %w (rerun with salvage to recover intact shards)", c.path, err)
		}
		if loaded.Version != checkpointVersion {
			return nil, fmt.Errorf("campaign: checkpoint %s has version %d, want %d", c.path, loaded.Version, checkpointVersion)
		}
		if loaded.Label != spec.Label || loaded.Seed != spec.Seed ||
			loaded.Trials != spec.Trials || loaded.ShardSize != spec.shardSize() {
			return nil, fmt.Errorf("campaign: checkpoint %s was written by a different campaign (label %q seed %d trials %d shard %d; want %q %d %d %d)",
				c.path, loaded.Label, loaded.Seed, loaded.Trials, loaded.ShardSize,
				spec.Label, spec.Seed, spec.Trials, spec.shardSize())
		}
		if loaded.Shards != nil {
			c.file.Shards = loaded.Shards
		}
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
	n := spec.NumShards()
	// A checkpoint that is fully intact (parses strictly, header
	// matches, every shard in range) resumes silently: salvage only
	// announces itself when it actually recovered something.
	if raw != nil && tmpRaw == nil {
		var loaded checkpointFile
		if json.Unmarshal(raw, &loaded) == nil && headerMatches(loaded, spec) {
			intact := true
			for i, p := range loaded.Shards {
				if i < 0 || i >= n || isNullJSON(p) {
					intact = false
					break
				}
			}
			if intact {
				if loaded.Shards != nil {
					c.file.Shards = loaded.Shards
				}
				return c, nil
			}
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
			if i < 0 || i >= n || isNullJSON(payload) {
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

// readRetry reads path with the transient-I/O retry policy. A missing
// file is not an error: it returns (nil, nil).
func (c *Checkpoint) readRetry(path string) ([]byte, error) {
	var raw []byte
	retries, err := c.backoff.retry(c.file.Label, func() error {
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
	c.report.addCheckpointRetries(retries)
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// shard returns the stored raw result of shard i, if present.
func (c *Checkpoint) shard(i int) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	raw, ok := c.file.Shards[i]
	return raw, ok
}

// drop removes shard i from the in-memory set, so a payload rejected at
// unmarshal time is never persisted again.
func (c *Checkpoint) drop(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.file.Shards, i)
}

// numDone returns how many shard results the checkpoint holds.
func (c *Checkpoint) numDone() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.file.Shards)
}

// record stores shard i's result and rewrites the checkpoint file with
// retry/backoff; an exhausted budget degrades to memory-only mode
// instead of failing the campaign. Callers (the runner) serialize
// record calls, so the file on disk always reflects a prefix of the
// recorded shards.
func (c *Checkpoint) record(i int, raw json.RawMessage) {
	c.mu.Lock()
	if c.degraded {
		c.mu.Unlock()
		return
	}
	c.file.Shards[i] = raw
	buf, err := json.MarshalIndent(&c.file, "", " ")
	c.mu.Unlock()
	if err != nil {
		c.degrade("marshal checkpoint: %v", err)
		return
	}
	retries, err := c.backoff.retry(c.file.Label, func() error {
		return WriteFileAtomic(c.path, append(buf, '\n'))
	})
	c.report.addCheckpointRetries(retries)
	if err != nil {
		c.degrade("%v", err)
	}
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

// isDegraded reports whether the checkpoint fell back to memory-only.
func (c *Checkpoint) isDegraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}
