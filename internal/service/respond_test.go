package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/interp"
	"repro/internal/progen"
	"repro/internal/report"
)

// encoderBytes is the reference rendering: the response, Procs filled in
// as report.Metrics maps, through json.Encoder with a two-space indent.
func encoderBytes(t *testing.T, resp AnalyzeResponse, procs []procResult) []byte {
	for _, pr := range procs {
		rep := ProcReport{
			Name: pr.text.name,
			Estimate: report.Metrics{
				"time":    pr.est.Time,
				"var":     pr.est.Var,
				"std_dev": pr.est.StdDev(),
			},
		}
		if pr.text.counters != nil {
			// The counters member is pre-rendered; read it back.
			var c struct{ Counters []string }
			if err := json.Unmarshal([]byte("{"+string(pr.text.counters[1:])+"}"), &c); err != nil {
				t.Fatal(err)
			}
			rep.Counters = c.Counters
		}
		if len(pr.totals) > 0 {
			rep.Totals = make(report.Metrics, len(pr.totals))
			for c, v := range pr.totals {
				rep.Totals[fmt.Sprintf("%v", c)] = v
			}
		}
		resp.Procs = append(resp.Procs, rep)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&resp); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestAppendResponseMatchesEncoder: the direct writer produces the bytes
// json.Encoder produces, on generated programs and on hostile values —
// non-finite and extreme estimates and totals, HTML-escaped text, spans
// with metrics, a response without procs.
func TestAppendResponseMatchesEncoder(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		src := progen.GenerateOpts(seed, 24, 3, progen.Opts{Stops: seed%2 == 0})
		p, err := core.Load(src)
		if err != nil {
			t.Fatal(err)
		}
		plans, err := p.Plans()
		if err != nil {
			t.Fatal(err)
		}
		prof, _, err := p.Profile(interp.Options{}, 1, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		est, err := p.EstimateWithProfile(prof, cost.Optimized, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		texts := newProcTexts(p.An, plans)
		procs := make([]procResult, len(texts))
		for i := range texts {
			procs[i] = procResult{text: &texts[i], est: est.Procs[texts[i].name], totals: prof[texts[i].name]}
		}
		resp := AnalyzeResponse{
			Document: *report.NewDocument("ptrand", []report.Diagnostic{{
				Severity: report.Warning, Pass: "lints", Proc: "P<&>", Line: 3, Col: 2,
				Message: "a \"quoted\" <message> & more", Hint: "é\u2028",
			}}),
			Engine: "vm", Plan: "sarkar", Seeds: []uint64{1, 2, 3, math.MaxUint64},
			CacheHit: seed%3 == 0, Main: est.Main.A.P.G.Name,
		}
		resp.Spans = []report.Span{{Name: "profile", StartMs: 0.25, WallMs: 1e-7, ElapsedMs: 3, Count: 2,
			Metrics: report.Metrics{"seeds": 3, "nan": math.NaN()}}}
		switch seed % 4 {
		case 1:
			// Non-finite and extreme values.
			pe := *procs[0].est
			pe.Time, pe.Var = math.Inf(1), math.NaN()
			procs[0].est = &pe
			for c := range procs[0].totals {
				procs[0].totals[c] = math.Inf(-1)
				break
			}
			for c := range procs[len(procs)-1].totals {
				procs[len(procs)-1].totals[c] = 1e300
				break
			}
		case 2:
			resp.Main = ""
			procs[0].totals = nil
		case 3:
			resp.Seeds = nil
			resp.Spans = nil
		}
		want := encoderBytes(t, resp, procs)
		got := appendResponse(nil, &resp, procs)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: writer and encoder differ:\n%s", seed, firstDiff(got, want))
		}
	}
	resp := AnalyzeResponse{Document: *report.NewDocument("ptrand", nil), Engine: "tree", Plan: "ball-larus"}
	if got, want := appendResponse(nil, &resp, nil), encoderBytes(t, resp, nil); !bytes.Equal(got, want) {
		t.Fatalf("empty response: writer and encoder differ:\n%s", firstDiff(got, want))
	}
}

// TestAppendResponseWritesEveryField: for every field of AnalyzeResponse,
// its embedded report.Document's included, a response with that field
// set writes the bytes json.Encoder writes, and the member is present. A
// field added to either struct fails here until the writer handles it.
func TestAppendResponseWritesEveryField(t *testing.T) {
	typ := reflect.TypeOf(AnalyzeResponse{})
	var paths [][]int
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Anonymous {
			for j := 0; j < f.Type.NumField(); j++ {
				paths = append(paths, []int{i, j})
			}
		} else {
			paths = append(paths, []int{i})
		}
	}
	for _, path := range paths {
		resp := AnalyzeResponse{Document: *report.NewDocument("ptrand", nil), Engine: "vm", Plan: "sarkar"}
		f := typ.FieldByIndex(path)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		v := reflect.ValueOf(&resp).Elem().FieldByIndex(path)
		switch v.Kind() {
		case reflect.String:
			v.SetString("set <&> \"here\"")
		case reflect.Int:
			v.SetInt(3)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		case reflect.Map:
			m := reflect.MakeMap(v.Type())
			m.SetMapIndex(reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem())
			v.Set(m)
		case reflect.Interface:
			v.Set(reflect.ValueOf([]string{"fact"}))
		default:
			t.Fatalf("field %s has kind %s: teach this test to set it", f.Name, v.Kind())
		}
		want := encoderBytes(t, resp, nil)
		got := appendResponse(nil, &resp, nil)
		if !bytes.Equal(got, want) {
			t.Errorf("field %s set: writer and encoder differ:\n%s", f.Name, firstDiff(got, want))
		}
		if !bytes.Contains(got, []byte("\n  \""+name+"\": ")) {
			t.Errorf("field %s set: no %q member in\n%s", f.Name, name, got)
		}
	}
}

// TestProcTextOrder: a procedure's condition order is the sorted order of
// the rendered names, which is the order report.Metrics writes keys in.
func TestProcTextOrder(t *testing.T) {
	p, err := core.Load(srcOK)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := p.Plans()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range newProcTexts(p.An, plans) {
		var names []string
		for _, ci := range pt.order {
			var s string
			if err := json.Unmarshal(pt.key(ci), &s); err != nil {
				t.Fatal(err)
			}
			if s != pt.f.CondAt(int(ci)).String() {
				t.Fatalf("%s: key %d reads %q, want %q", pt.name, ci, s, pt.f.CondAt(int(ci)))
			}
			names = append(names, s)
		}
		if !sort.StringsAreSorted(names) || len(names) != pt.f.NumConditions() {
			t.Fatalf("%s: order %v is not the sorted condition names", pt.name, names)
		}
	}
}

// firstDiff shows the first line at which got and want differ.
func firstDiff(got, want []byte) string {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
	return "(no differing line)"
}
