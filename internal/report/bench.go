package report

import (
	"encoding/json"
	"fmt"
	"os"
)

// BenchSchema versions the snapshot format; bump on breaking changes.
const BenchSchema = "bench/v1"

// BenchEntry is one measured scenario of a snapshot (cmd/loadgen writes
// one per service load run).
type BenchEntry struct {
	Name string `json:"name"`
	// WallMs is the end-to-end wall time of the best repetition.
	WallMs float64 `json:"wall_ms"`
	// Metrics holds the scenario's measurements (nodes_per_sec,
	// counters_per_block, ...).
	Metrics Metrics `json:"metrics,omitempty"`
	// Spans is the per-phase trace of the best repetition, in the same
	// schema -trace emits, so a snapshot shows where the time went.
	Spans []Span `json:"spans,omitempty"`
}

// BenchSnapshot is one full sweep, written as BENCH_<date>.json.
type BenchSnapshot struct {
	Schema string `json:"schema"`
	Tool   string `json:"tool"`
	// Date is the sweep day (YYYY-MM-DD), also embedded in the file name.
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	MaxProcs  int    `json:"maxprocs"`
	// Metrics holds process-wide measurements (process.peak_rss_bytes, ...).
	Metrics Metrics      `json:"metrics,omitempty"`
	Entries []BenchEntry `json:"entries"`
}

// Entry returns the named entry, or nil.
func (s *BenchSnapshot) Entry(name string) *BenchEntry {
	for i := range s.Entries {
		if s.Entries[i].Name == name {
			return &s.Entries[i]
		}
	}
	return nil
}

// Save writes the snapshot as indented JSON.
func (s *BenchSnapshot) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadBench reads a snapshot and validates its schema tag.
func LoadBench(path string) (*BenchSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s BenchSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != BenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, BenchSchema)
	}
	return &s, nil
}
