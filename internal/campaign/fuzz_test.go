package campaign

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// fuzzSpec is the fixed campaign shape every fuzz input is loaded
// against; its label/seed/trials also appear in the seed corpus so the
// fuzzer can reach the header-matched salvage paths.
var fuzzSpec = Spec{Label: "fuzz", Trials: 2000, ShardSize: 500, Seed: 21}

// FuzzCheckpointLoad feeds arbitrary bytes — and mutations of a valid
// checkpoint — to the loader in both strict and salvage mode. Strict
// mode may reject the file with an error; salvage mode must always
// produce a resumable state; neither may ever panic. (A mutation that
// stays a semantically valid shard payload is indistinguishable from a
// real result by design — the fuzz property is salvage-or-reject, not
// byte-level authentication.)
func FuzzCheckpointLoad(f *testing.F) {
	// Seed corpus: a genuine checkpoint plus characteristic damage.
	dir := f.TempDir()
	if _, err := Run(context.Background(), fuzzSpec, Options{CheckpointDir: dir}, sumFn, sumMerge); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(CheckpointPath(dir, fuzzSpec.Label))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])               // truncated
	f.Add(valid[:len(valid)-2])               // missing closing braces
	f.Add([]byte("{not json"))                // garbage
	f.Add([]byte(`{"version":99}`))           // wrong version
	f.Add([]byte(`null`))                     // null document
	f.Add([]byte(`{"shards":{"0":null}}`))    // null shard payload
	f.Add([]byte(`{"shards":{"-1":{}}}`))     // out-of-range index
	f.Add([]byte(`{"shards":{"zz":{"n":1}}`)) // bad key, truncated
	corrupt := append([]byte(nil), valid...)
	if len(corrupt) > 200 {
		corrupt[180] ^= 0xff // bit-flip inside the shards section
	}
	f.Add(corrupt)
	// Matching header, unusable shards: a null payload and an index
	// outside the campaign.
	f.Add([]byte(`{"version":1,"label":"fuzz","seed":21,"trials":2000,"shard_size":500,"shards":{"0":{"n":500,"sum":1},"1":null,"9":{"n":1}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := CheckpointPath(dir, fuzzSpec.Label)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		// Either mode keeps only loadable shards of this campaign: in
		// range and valid, non-null JSON.
		usable := func(mode string, c *Checkpoint) {
			t.Helper()
			for i, raw := range c.file.Shards {
				if i < 0 || i >= fuzzSpec.NumShards() || !json.Valid(raw) || isNullJSON(raw) {
					t.Fatalf("%s open kept unusable shard %d payload %q", mode, i, raw)
				}
			}
		}
		// Strict mode: error or success, never a panic.
		c, err := OpenCheckpoint(dir, fuzzSpec, Options{Resume: true})
		if err == nil {
			if c == nil {
				t.Fatal("strict open returned nil, nil")
			}
			usable("strict", c)
		}
		// Salvage mode never hard-fails on checkpoint content.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		c, err = OpenCheckpoint(dir, fuzzSpec, Options{Resume: true, Salvage: true})
		if err != nil {
			t.Fatalf("salvage open errored on %q: %v", data, err)
		}
		usable("salvage", c)
	})
}

// FuzzSalvageParse hits the tolerant parser directly with arbitrary
// bytes: it must never panic and must only ever return well-formed raw
// shard payloads.
func FuzzSalvageParse(f *testing.F) {
	f.Add([]byte(`{"version":1,"label":"fuzz","seed":21,"trials":2000,"shard_size":500,"shards":{"0":{"n":500,"sum":1}}}`))
	f.Add([]byte(`{"shards":{"0":`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		out := salvageParse(data)
		for i, p := range out.Shards {
			if !json.Valid(p) {
				t.Fatalf("salvaged shard %d payload %q is not valid JSON", i, p)
			}
		}
	})
}
