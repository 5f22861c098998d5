package report

import (
	"path/filepath"
	"strings"
	"testing"
)

func benchPair() (*BenchSnapshot, *BenchSnapshot) {
	prev := &BenchSnapshot{
		Schema: BenchSchema,
		Entries: []BenchEntry{
			{Name: "small", Metrics: map[string]float64{"nodes_per_sec": 1000, "nodes": 131}},
			{Name: "large", Metrics: map[string]float64{"nodes_per_sec": 400}},
			{Name: "gone", Metrics: map[string]float64{"nodes_per_sec": 99}},
		},
	}
	cur := &BenchSnapshot{
		Schema: BenchSchema,
		Entries: []BenchEntry{
			{Name: "small", Metrics: map[string]float64{"nodes_per_sec": 900, "nodes": 50}},
			{Name: "large", Metrics: map[string]float64{"nodes_per_sec": 200}},
			{Name: "added", Metrics: map[string]float64{"nodes_per_sec": 1}},
		},
	}
	return prev, cur
}

func TestBenchSnapshotRoundTrip(t *testing.T) {
	prev, _ := benchPair()
	prev.Date = "2026-08-06"
	prev.Entries[0].Spans = []Span{{Name: "parse", WallMs: 1.5, Count: 1}}
	path := filepath.Join(t.TempDir(), "BENCH_2026-08-06.json")
	if err := prev.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != "2026-08-06" || len(got.Entries) != 3 {
		t.Errorf("round trip lost data: %+v", got)
	}
	if e := got.Entry("small"); e == nil || len(e.Spans) != 1 || e.Spans[0].Name != "parse" {
		t.Errorf("spans lost: %+v", got.Entry("small"))
	}
	if got.Entry("nope") != nil {
		t.Error("Entry(nope) must be nil")
	}
}

func TestLoadBenchRejectsWrongSchema(t *testing.T) {
	s := &BenchSnapshot{Schema: "bench/v0"}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBench(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("LoadBench on wrong schema: err = %v", err)
	}
}
