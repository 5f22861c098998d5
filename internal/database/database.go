// Package database is the reproduction's stand-in for the PTRAN program
// database: it accumulates TOTAL_FREQ profiles (and the optional
// loop-frequency second moments) across program executions and persists
// them as JSON. Section 3: "it is a good idea to accumulate the TOTAL_FREQ
// values (as a sum or average) from different program executions in the
// program database, so as to get a more representative set of frequency
// values" — only ratios of totals matter downstream, so plain sums are the
// merge operation.
package database

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/freq"
	"repro/internal/profiler"
)

// DB is one program's accumulated profile.
type DB struct {
	// Program names the profiled program (free-form, e.g. a source path).
	Program string `json:"program"`
	// Runs counts the executions accumulated.
	Runs int `json:"runs"`
	// Seeds records which interpreter seeds contributed (documentation
	// only; merging identical seeds twice is the caller's responsibility).
	Seeds []uint64 `json:"seeds,omitempty"`
	// Totals maps procedure name -> "node:label" -> accumulated
	// TOTAL_FREQ.
	Totals map[string]map[string]float64 `json:"totals"`
	// LoopMoments maps procedure name -> "node:label" -> the raw moments
	// of a loop condition's per-entry iteration count, summed over merges;
	// LoopVariance derives VAR(FREQ) from them.
	LoopMoments map[string]map[string]profiler.LoopMoments `json:"loop_moments,omitempty"`
}

// New returns an empty database for a program.
func New(program string) *DB {
	return &DB{
		Program:     program,
		Totals:      make(map[string]map[string]float64),
		LoopMoments: make(map[string]map[string]profiler.LoopMoments),
	}
}

// Key renders a condition as the stable string key used on disk.
func Key(c cdg.Condition) string {
	return fmt.Sprintf("%d:%s", int(c.Node), string(c.Label))
}

// ParseKey inverts Key.
func ParseKey(s string) (cdg.Condition, error) {
	i := strings.IndexByte(s, ':')
	if i <= 0 || i == len(s)-1 {
		return cdg.Condition{}, fmt.Errorf("database: bad condition key %q", s)
	}
	n, err := strconv.Atoi(s[:i])
	if err != nil || n <= 0 {
		return cdg.Condition{}, fmt.Errorf("database: bad node in key %q", s)
	}
	return cdg.Condition{Node: cfg.NodeID(n), Label: cfg.Label(s[i+1:])}, nil
}

// Merge accumulates one profiling session (one or more runs already summed
// in profile) into the database.
func (db *DB) Merge(profile profiler.ProgramProfile, runs int, seeds ...uint64) {
	db.Runs += runs
	db.Seeds = append(db.Seeds, seeds...)
	for proc, totals := range profile {
		if db.Totals[proc] == nil {
			db.Totals[proc] = make(map[string]float64)
		}
		for c, v := range totals {
			db.Totals[proc][Key(c)] += v
		}
	}
}

// MergeLoopMoments accumulates one profiling session's loop moments
// (profiler.VarianceRun) into the database.
func (db *DB) MergeLoopMoments(moments map[string]map[cdg.Condition]profiler.LoopMoments) {
	for proc, m := range moments {
		if db.LoopMoments[proc] == nil {
			db.LoopMoments[proc] = make(map[string]profiler.LoopMoments)
		}
		for c, v := range m {
			sum := db.LoopMoments[proc][Key(c)]
			sum.Add(v)
			db.LoopMoments[proc][Key(c)] = sum
		}
	}
}

// ProcTotals reconstructs the freq.Totals of every procedure.
func (db *DB) ProcTotals() (map[string]freq.Totals, error) {
	out := make(map[string]freq.Totals, len(db.Totals))
	for proc, m := range db.Totals {
		t := make(freq.Totals, len(m))
		for k, v := range m {
			c, err := ParseKey(k)
			if err != nil {
				return nil, fmt.Errorf("database: proc %s: %w", proc, err)
			}
			t[c] = v
		}
		out[proc] = t
	}
	return out, nil
}

// LoopVariance derives the per-procedure VAR(FREQ) maps from the summed
// loop moments: the variance over every loop entry of every merged run.
func (db *DB) LoopVariance() (map[string]map[cdg.Condition]float64, error) {
	out := make(map[string]map[cdg.Condition]float64, len(db.LoopMoments))
	for proc, m := range db.LoopMoments {
		pm := make(map[cdg.Condition]float64, len(m))
		for k, v := range m {
			c, err := ParseKey(k)
			if err != nil {
				return nil, fmt.Errorf("database: proc %s: %w", proc, err)
			}
			pm[c] = v.Var()
		}
		out[proc] = pm
	}
	return out, nil
}

// Save writes the database as indented JSON.
func (db *DB) Save(path string) error {
	data, err := json.MarshalIndent(db, "", "  ")
	if err != nil {
		return fmt.Errorf("database: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a database written by Save.
func Load(path string) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("database: %w", err)
	}
	db := New("")
	if err := json.Unmarshal(data, db); err != nil {
		return nil, fmt.Errorf("database: %s: %w", path, err)
	}
	// Validate keys eagerly so corruption surfaces at load time.
	if _, err := db.ProcTotals(); err != nil {
		return nil, err
	}
	return db, nil
}
