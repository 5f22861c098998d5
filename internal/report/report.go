// Package report defines the diagnostic schema shared by the command-line
// tools: ptranlint emits it natively and oracle converts invariant failures
// into it, so both speak one JSON dialect and neither duplicates an encoder.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Severity ranks a diagnostic. Error-severity findings fail the run.
type Severity string

// Severity levels.
const (
	Info    Severity = "info"
	Warning Severity = "warning"
	Error   Severity = "error"
)

// Diagnostic is one finding with enough position information to be
// clickable: tool is the producer ("ptranlint", "oracle"), pass the named
// analysis that fired, proc the procedure (program unit) it concerns, and
// line/col the source position when one is known (node is the CFG/ECFG node
// otherwise).
type Diagnostic struct {
	Severity Severity `json:"severity"`
	Pass     string   `json:"pass"`
	Proc     string   `json:"proc,omitempty"`
	Node     int      `json:"node,omitempty"`
	Line     int      `json:"line,omitempty"`
	Col      int      `json:"col,omitempty"`
	Message  string   `json:"message"`
	Hint     string   `json:"hint,omitempty"`
}

// String renders the diagnostic in the classic compiler one-liner format:
// file-less "line:col: severity: [pass] message".
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Line > 0 {
		fmt.Fprintf(&b, "%d:", d.Line)
		if d.Col > 0 {
			fmt.Fprintf(&b, "%d:", d.Col)
		}
		b.WriteByte(' ')
	}
	fmt.Fprintf(&b, "%s: [%s]", d.Severity, d.Pass)
	if d.Proc != "" {
		fmt.Fprintf(&b, " %s:", d.Proc)
	}
	if d.Node > 0 {
		fmt.Fprintf(&b, " node %d:", d.Node)
	}
	fmt.Fprintf(&b, " %s", d.Message)
	if d.Hint != "" {
		fmt.Fprintf(&b, " (%s)", d.Hint)
	}
	return b.String()
}

// Metrics is a named-measurement map that survives JSON: encoding/json
// rejects NaN and ±Inf outright, so a single NaN variance gauge would
// abort an entire document encode. Metrics marshals those values as the
// strings "NaN", "+Inf" and "-Inf" (keys sorted, so output is diffable)
// and unmarshals both the string forms and plain numbers, round-tripping
// every float64 without loss.
type Metrics map[string]float64

// MarshalJSON renders the map with sorted keys, spelling non-finite
// values as quoted strings.
func (m Metrics) MarshalJSON() ([]byte, error) {
	if m == nil {
		return []byte("null"), nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		kb, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		b.Write(kb)
		b.WriteByte(':')
		v := m[k]
		switch {
		case math.IsNaN(v):
			b.WriteString(`"NaN"`)
		case math.IsInf(v, 1):
			b.WriteString(`"+Inf"`)
		case math.IsInf(v, -1):
			b.WriteString(`"-Inf"`)
		default:
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// UnmarshalJSON accepts numbers and the non-finite string spellings.
func (m *Metrics) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*m = nil
		return nil
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make(Metrics, len(raw))
	for k, v := range raw {
		var f float64
		if err := json.Unmarshal(v, &f); err == nil {
			out[k] = f
			continue
		}
		var s string
		if err := json.Unmarshal(v, &s); err != nil {
			return fmt.Errorf("report: metric %q: %s is neither number nor string", k, v)
		}
		switch s {
		case "NaN":
			out[k] = math.NaN()
		case "+Inf", "Inf":
			out[k] = math.Inf(1)
		case "-Inf":
			out[k] = math.Inf(-1)
		default:
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return fmt.Errorf("report: metric %q: unrecognized value %q", k, s)
			}
			out[k] = f
		}
	}
	*m = out
	return nil
}

// HotPath is one row of a hot-path report: a procedure's Ball–Larus
// acyclic path, its completion count, and the decoded node sequence.
// FromEntry and ToExit distinguish the dummy entry/exit paths that a
// split back edge introduces from full entry-to-exit paths.
type HotPath struct {
	Proc      string `json:"proc"`
	ID        int64  `json:"id"`
	Count     int64  `json:"count"`
	Nodes     []int  `json:"nodes"`
	FromEntry bool   `json:"from_entry"`
	ToExit    bool   `json:"to_exit"`
}

// PlanExplain is one procedure's counter plan: the counters it keeps, then
// every derived condition in recovery-schedule order with the rule that
// recovers it and the rule's inputs.
type PlanExplain struct {
	Proc        string     `json:"proc"`
	Counters    []string   `json:"counters"`
	Derivations []PlanStep `json:"derivations"`
	// RecoverSteps is the length of the whole recovery schedule, the
	// exec(node) sums included.
	RecoverSteps int `json:"recover_steps"`
}

// PlanStep is one rule application of a recovery schedule.
type PlanStep struct {
	Rule    string   `json:"rule"`
	Node    int      `json:"node"`
	Derives []string `json:"derives"`
	Inputs  []string `json:"inputs"`
}

// String renders the step as "(4,U) by loop-identity at 3 from exec(2) (9,T)".
func (s PlanStep) String() string {
	return fmt.Sprintf("%s by %s at %d from %s", strings.Join(s.Derives, " "), s.Rule, s.Node, strings.Join(s.Inputs, " "))
}

// String renders the hot path as a one-liner: "PROC: path 3 ×42 [entry 1→4→7 exit]".
func (h HotPath) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: path %d ×%d [", h.Proc, h.ID, h.Count)
	if h.FromEntry {
		b.WriteString("entry ")
	}
	for i, n := range h.Nodes {
		if i > 0 {
			b.WriteString("→")
		}
		fmt.Fprintf(&b, "%d", n)
	}
	if h.ToExit {
		b.WriteString(" exit")
	}
	b.WriteString("]")
	return b.String()
}

// Span is one aggregated pipeline phase in a trace: all observations of the
// same phase name merge into a single row. Wall is the summed busy time of
// every observation; Elapsed is last-end minus first-start, so on a worker
// pool Wall/Elapsed exceeds 1 exactly when the phase ran concurrently.
type Span struct {
	Name string `json:"name"`
	// StartMs is the first observation's offset from the trace start.
	StartMs float64 `json:"start_ms"`
	// WallMs is total busy time across observations.
	WallMs float64 `json:"wall_ms"`
	// ElapsedMs is the end-to-end extent of the phase.
	ElapsedMs float64 `json:"elapsed_ms"`
	// Count is the number of merged observations (e.g. procedures analyzed).
	Count int64 `json:"count"`
	// Metrics carries phase-specific measurements (node counts, counters
	// placed, utilization ratios, ...).
	Metrics Metrics `json:"metrics,omitempty"`
}

// Document is the top-level JSON shape the tools emit: the producing tool,
// its findings, the severity tally, and — when tracing is on — the phase
// spans and process metrics.
type Document struct {
	Tool        string       `json:"tool"`
	Diagnostics []Diagnostic `json:"diagnostics"`
	Errors      int          `json:"errors"`
	Warnings    int          `json:"warnings"`
	// HotPaths is the optional hot-path report (ptranlint -hot-paths).
	HotPaths []HotPath `json:"hot_paths,omitempty"`
	// Dataflow is the optional per-procedure dataflow fact report
	// (ptranlint -dataflow); the element type lives with the tool.
	Dataflow any `json:"dataflow,omitempty"`
	// Plans is the optional counter-plan explanation (ptranlint
	// -explain-plan).
	Plans []PlanExplain `json:"plans,omitempty"`
	// Spans are the pipeline phase timings of a traced run (obs.Trace).
	Spans []Span `json:"spans,omitempty"`
	// Metrics is a point-in-time snapshot of the process metrics registry.
	Metrics Metrics `json:"metrics,omitempty"`
}

// NewDocument bundles diagnostics under a tool name, counting severities.
func NewDocument(tool string, diags []Diagnostic) *Document {
	doc := &Document{Tool: tool, Diagnostics: diags}
	if doc.Diagnostics == nil {
		doc.Diagnostics = []Diagnostic{} // encode as [], not null
	}
	for _, d := range diags {
		switch d.Severity {
		case Error:
			doc.Errors++
		case Warning:
			doc.Warnings++
		}
	}
	return doc
}

// Encode writes the document as indented JSON.
func (doc *Document) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Count returns how many diagnostics have the given severity.
func Count(diags []Diagnostic, sev Severity) int {
	n := 0
	for _, d := range diags {
		if d.Severity == sev {
			n++
		}
	}
	return n
}

// Sort orders diagnostics for stable output: by procedure, then source
// position, then node, then pass, then message.
func Sort(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
}
