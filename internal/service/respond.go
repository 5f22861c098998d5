package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/freq"
	"repro/internal/profiler"
)

// procText is the part of one procedure's response that depends only on
// the compiled artifact, rendered once when the artifact compiles: the
// quoted procedure name, the "counters" member, and the quoted name of
// every FCDG condition, indexed by CondIndex, with their sorted order.
type procText struct {
	name     string
	quoted   []byte
	counters []byte // `,` + the indented "counters" member; nil without counters
	f        *cdg.Graph
	// keys[keyEnd[i-1]:keyEnd[i]] is condition i's quoted name (keyEnd[-1]
	// reads as 0); order lists the condition indices sorted by name.
	keys   []byte
	keyEnd []int32
	order  []int32
}

// newProcTexts renders the response text of every procedure, sorted by
// name.
func newProcTexts(an *analysis.Program, plans profiler.Plans) []procText {
	names := make([]string, 0, len(an.Procs))
	for name := range an.Procs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]procText, len(names))
	for k, name := range names {
		t := &out[k]
		t.name = name
		t.quoted = appendString(nil, name)
		if plan := plans[name]; plan != nil && len(plan.Counters) > 0 {
			b := append([]byte(nil), ",\n      \"counters\": ["...)
			for i, c := range plan.Counters {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, "\n        "...)
				b = appendString(b, c.String())
			}
			t.counters = append(b, "\n      ]"...)
		}
		f := an.Procs[name].FCDG
		t.f = f
		n := f.NumConditions()
		cond := make([]string, n)
		t.keyEnd = make([]int32, n)
		t.order = make([]int32, n)
		for i := range cond {
			cond[i] = f.CondAt(i).String()
			t.keys = appendString(t.keys, cond[i])
			t.keyEnd[i] = int32(len(t.keys))
			t.order[i] = int32(i)
		}
		sort.Slice(t.order, func(a, b int) bool { return cond[t.order[a]] < cond[t.order[b]] })
	}
	return out
}

// key returns condition i's quoted name.
func (t *procText) key(i int32) []byte {
	var lo int32
	if i > 0 {
		lo = t.keyEnd[i-1]
	}
	return t.keys[lo:t.keyEnd[i]]
}

// procResult is one procedure's per-request result.
type procResult struct {
	text   *procText
	est    *core.ProcEstimate
	totals freq.Totals
}

// bufPool recycles response buffers across requests.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// writeResponse writes an analyze response document, procs standing for
// resp.Procs when given. The bytes are those json.Encoder with
// SetIndent("", "  ") writes for the same AnalyzeResponse with Procs
// filled in, written directly from the artifact's procTexts.
func (s *Service) writeResponse(w http.ResponseWriter, code int, resp *AnalyzeResponse, procs []procResult) {
	t0 := time.Now()
	bp := bufPool.Get().(*[]byte)
	b := appendResponse((*bp)[:0], resp, procs)
	s.reg.Add("service.encode_ns_total", int64(time.Since(t0)))
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	w.Write(b)
	*bp = b
	bufPool.Put(bp)
}

// appendResponse appends the indented JSON of resp, with procs as its
// "procs" member when given (resp.Procs is then unused). It writes every
// member of AnalyzeResponse in field order, omitting the omitempty ones
// as encoding/json does; TestAppendResponseWritesEveryField fails on a
// field it does not write.
func appendResponse(b []byte, resp *AnalyzeResponse, procs []procResult) []byte {
	b = append(b, "{\n  \"tool\": "...)
	b = appendString(b, resp.Tool)
	b = append(b, ",\n  \"diagnostics\": "...)
	b = appendIndented(b, resp.Diagnostics)
	b = append(b, ",\n  \"errors\": "...)
	b = strconv.AppendInt(b, int64(resp.Errors), 10)
	b = append(b, ",\n  \"warnings\": "...)
	b = strconv.AppendInt(b, int64(resp.Warnings), 10)
	if len(resp.HotPaths) > 0 {
		b = append(b, ",\n  \"hot_paths\": "...)
		b = appendIndented(b, resp.HotPaths)
	}
	if resp.Dataflow != nil {
		b = append(b, ",\n  \"dataflow\": "...)
		b = appendIndented(b, resp.Dataflow)
	}
	if len(resp.Plans) > 0 {
		b = append(b, ",\n  \"plans\": "...)
		b = appendIndented(b, resp.Plans)
	}
	if len(resp.Spans) > 0 {
		b = append(b, ",\n  \"spans\": "...)
		b = appendIndented(b, resp.Spans)
	}
	if len(resp.Metrics) > 0 {
		b = append(b, ",\n  \"metrics\": "...)
		b = appendIndented(b, resp.Metrics)
	}
	b = append(b, ",\n  \"engine\": "...)
	b = appendString(b, resp.Engine)
	b = append(b, ",\n  \"plan\": "...)
	b = appendString(b, resp.Plan)
	if len(resp.Seeds) > 0 {
		b = append(b, ",\n  \"seeds\": ["...)
		for i, seed := range resp.Seeds {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = strconv.AppendUint(b, seed, 10)
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n  \"cache_hit\": "...)
	b = strconv.AppendBool(b, resp.CacheHit)
	if resp.Main != "" {
		b = append(b, ",\n  \"main\": "...)
		b = appendString(b, resp.Main)
	}
	if len(procs) > 0 {
		b = append(b, ",\n  \"procs\": ["...)
		for i := range procs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendProc(b, &procs[i])
		}
		b = append(b, "\n  ]"...)
	} else if len(resp.Procs) > 0 {
		b = append(b, ",\n  \"procs\": "...)
		b = appendIndented(b, resp.Procs)
	}
	return append(b, "\n}\n"...)
}

// appendProc appends one element of the "procs" array.
func appendProc(b []byte, pr *procResult) []byte {
	t := pr.text
	b = append(b, "\n    {\n      \"name\": "...)
	b = append(b, t.quoted...)
	// report.Metrics sorts its keys: std_dev, time, var.
	b = append(b, ",\n      \"estimate\": {\n        \"std_dev\": "...)
	b = appendMetric(b, pr.est.StdDev())
	b = append(b, ",\n        \"time\": "...)
	b = appendMetric(b, pr.est.Time)
	b = append(b, ",\n        \"var\": "...)
	b = appendMetric(b, pr.est.Var)
	b = append(b, "\n      }"...)
	b = append(b, t.counters...)
	if len(pr.totals) > 0 {
		// The profile's keys are conditions of the procedure's FCDG.
		b = append(b, ",\n      \"totals\": {"...)
		first := true
		for _, ci := range t.order {
			v, ok := pr.totals[t.f.CondAt(int(ci))]
			if !ok {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, "\n        "...)
			b = append(b, t.key(ci)...)
			b = append(b, ": "...)
			b = appendMetric(b, v)
		}
		b = append(b, "\n      }"...)
	}
	return append(b, "\n    }"...)
}

// appendMetric appends v the way report.Metrics marshals it.
func appendMetric(b []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	case math.IsInf(v, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Inf"`...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it (HTML-safe).
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendIndented appends v's JSON as a member value one level deep in
// the document.
func appendIndented(b []byte, v any) []byte {
	raw, err := json.Marshal(v)
	if err == nil {
		buf := bytes.NewBuffer(b)
		if err = json.Indent(buf, raw, "  ", "  "); err == nil {
			return buf.Bytes()
		}
	}
	// Every member the service sets marshals: report.Metrics spells
	// non-finite values as strings.
	panic(err)
}
