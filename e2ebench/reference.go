package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
)

// referenceJSON holds every operation's output at the default seed, as
// the program produced it when the benchmark was written. A change
// that alters a simulated statistic or an outcome count fails the gate
// against it. Regenerate it only for an intended change of outputs:
//
//	go test -run TestWriteReference -update
//
//go:embed reference.json
var referenceJSON []byte

// referenceFile is the layout of reference.json.
type referenceFile struct {
	Seed int64 `json:"seed"`
	// Workloads maps workload name -> operation key -> output.
	Workloads map[string]map[string]json.RawMessage `json:"workloads"`
}

// loadReference parses the embedded reference outputs into canonical
// strings keyed by workload and operation.
func loadReference() (map[string]map[string]string, error) {
	return parseReference(referenceJSON)
}

func parseReference(data []byte) (map[string]map[string]string, error) {
	var f referenceFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("reading reference outputs: %w", err)
	}
	if f.Seed != defaultSeed {
		return nil, fmt.Errorf("reference outputs are for seed %d, want %d", f.Seed, defaultSeed)
	}
	out := make(map[string]map[string]string, len(f.Workloads))
	for w, ops := range f.Workloads {
		m := make(map[string]string, len(ops))
		for key, raw := range ops {
			var buf bytes.Buffer
			if err := json.Compact(&buf, raw); err != nil {
				return nil, fmt.Errorf("reference %s/%s: %w", w, key, err)
			}
			m[key] = buf.String()
		}
		out[w] = m
	}
	return out, nil
}
