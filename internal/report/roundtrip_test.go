package report

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// fullDocument populates every field of the schema, with deliberately
// hostile metric values: NaN and ±Inf used to abort the whole encode
// (encoding/json rejects non-finite floats), silently losing the entire
// document to one bad variance gauge.
func fullDocument() *Document {
	doc := NewDocument("ptrand", []Diagnostic{
		{Severity: Error, Pass: "parse", Line: 3, Col: 7, Message: "unexpected token"},
		{Severity: Warning, Pass: "deadstore", Proc: "MAIN", Node: 4,
			Message: "dead store: X is never read",
			Hint:    "remove the assignment or use the value"},
	})
	doc.HotPaths = []HotPath{
		{Proc: "MAIN", ID: 3, Count: 42, Nodes: []int{1, 4, 7}, FromEntry: true, ToExit: true},
	}
	doc.Spans = []Span{{
		Name: "profile", StartMs: 1.5, WallMs: 10, ElapsedMs: 5, Count: 2,
		Metrics: Metrics{"seeds": 2, "utilization": 0.75},
	}}
	doc.Metrics = Metrics{
		"pipeline.procs":       3,
		"service.latency_p99":  math.NaN(), // no samples yet
		"estimate.var_ceiling": math.Inf(1),
		"estimate.var_floor":   math.Inf(-1),
	}
	return doc
}

const goldenDocument = `{
  "tool": "ptrand",
  "diagnostics": [
    {
      "severity": "error",
      "pass": "parse",
      "line": 3,
      "col": 7,
      "message": "unexpected token"
    },
    {
      "severity": "warning",
      "pass": "deadstore",
      "proc": "MAIN",
      "node": 4,
      "message": "dead store: X is never read",
      "hint": "remove the assignment or use the value"
    }
  ],
  "errors": 1,
  "warnings": 1,
  "hot_paths": [
    {
      "proc": "MAIN",
      "id": 3,
      "count": 42,
      "nodes": [
        1,
        4,
        7
      ],
      "from_entry": true,
      "to_exit": true
    }
  ],
  "spans": [
    {
      "name": "profile",
      "start_ms": 1.5,
      "wall_ms": 10,
      "elapsed_ms": 5,
      "count": 2,
      "metrics": {
        "seeds": 2,
        "utilization": 0.75
      }
    }
  ],
  "metrics": {
    "estimate.var_ceiling": "+Inf",
    "estimate.var_floor": "-Inf",
    "pipeline.procs": 3,
    "service.latency_p99": "NaN"
  }
}
`

// TestDocumentGoldenRoundTrip pins the document schema byte-for-byte and
// asserts decode(encode(doc)) loses nothing — non-finite metric values
// included, which the plain float64 encoding used to reject wholesale.
func TestDocumentGoldenRoundTrip(t *testing.T) {
	doc := fullDocument()
	var buf strings.Builder
	if err := doc.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if got := buf.String(); got != goldenDocument {
		t.Errorf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, goldenDocument)
	}
	var back Document
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Tool != doc.Tool || back.Errors != 1 || back.Warnings != 1 {
		t.Errorf("header fields lost: %+v", back)
	}
	if len(back.Diagnostics) != 2 || back.Diagnostics[1] != doc.Diagnostics[1] {
		t.Errorf("diagnostics lost: %+v", back.Diagnostics)
	}
	if len(back.HotPaths) != 1 || back.HotPaths[0].Proc != "MAIN" ||
		len(back.HotPaths[0].Nodes) != 3 || !back.HotPaths[0].ToExit {
		t.Errorf("hot paths lost: %+v", back.HotPaths)
	}
	if len(back.Spans) != 1 || back.Spans[0].Count != 2 ||
		back.Spans[0].Metrics["utilization"] != 0.75 {
		t.Errorf("spans lost: %+v", back.Spans)
	}
	if !math.IsNaN(back.Metrics["service.latency_p99"]) {
		t.Errorf("NaN metric lost: %v", back.Metrics["service.latency_p99"])
	}
	if !math.IsInf(back.Metrics["estimate.var_ceiling"], 1) || !math.IsInf(back.Metrics["estimate.var_floor"], -1) {
		t.Errorf("Inf metrics lost: %+v", back.Metrics)
	}
	if back.Metrics["pipeline.procs"] != 3 {
		t.Errorf("finite metric lost: %v", back.Metrics["pipeline.procs"])
	}
}

// TestMetricsBackCompat parses the pre-Metrics plain-number encoding —
// metrics files written by older tools must keep loading.
func TestMetricsBackCompat(t *testing.T) {
	var m Metrics
	if err := json.Unmarshal([]byte(`{"nodes_per_sec": 1.5e6, "lanes": 8}`), &m); err != nil {
		t.Fatal(err)
	}
	if m["nodes_per_sec"] != 1.5e6 || m["lanes"] != 8 {
		t.Errorf("plain numbers mis-parsed: %+v", m)
	}
	if err := json.Unmarshal([]byte(`{"x": true}`), &m); err == nil {
		t.Error("want error for non-number non-string metric value")
	}
}

// TestMetricsNilRoundTrip keeps the omitempty contract: a nil map is
// omitted, an explicit null decodes back to nil.
func TestMetricsNilRoundTrip(t *testing.T) {
	doc := NewDocument("t", nil)
	var buf strings.Builder
	if err := doc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "metrics") {
		t.Errorf("nil metrics not omitted:\n%s", buf.String())
	}
	var m Metrics
	if err := json.Unmarshal([]byte("null"), &m); err != nil || m != nil {
		t.Errorf("null: m=%v err=%v", m, err)
	}
}
