package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/progen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/responses.golden")

const responseGolden = "testdata/responses.golden"

// goldenCase is one request of the response golden, posted in order to
// one service.
type goldenCase struct {
	name string
	req  AnalyzeRequest
}

// goldenCases cover the response shapes: a cold miss and the warm hit of
// the same program, a program whose seeds STOP inside called procedures,
// a Ball–Larus request, a front-end 422 and a runtime-error 422. Every
// request names its engine and plan, so the ambient REPRO_ENGINE and
// REPRO_PLAN do not move the bytes.
func goldenCases() []goldenCase {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	mix := progen.Generate(7, 80, 3)
	stops := progen.GenerateOpts(10, 24, 3, progen.Opts{Stops: true})
	return []goldenCase{
		{"cold", AnalyzeRequest{Source: mix, Engine: "vm", Plan: "sarkar", Seeds: seeds}},
		{"warm", AnalyzeRequest{Source: mix, Engine: "vm", Plan: "sarkar", Seeds: seeds}},
		{"stops", AnalyzeRequest{Source: stops, Engine: "vm-batch", Plan: "sarkar", Seeds: seeds}},
		{"stops-tree", AnalyzeRequest{Source: stops, Engine: "tree", Plan: "sarkar", Seeds: seeds[:3]}},
		{"ball-larus", AnalyzeRequest{Source: srcOK, Engine: "vm", Plan: "ball-larus", Seeds: []uint64{1, 2, 3, 4}}},
		{"ball-larus-stops", AnalyzeRequest{Source: stops, Engine: "vm", Plan: "ball-larus", Seeds: seeds}},
		{"front-end-422", AnalyzeRequest{Source: srcBad, Engine: "vm", Plan: "sarkar"}},
		{"runtime-error-422", AnalyzeRequest{Source: `      PROGRAM P
      INTEGER N
      PARAMETER (N = 4294967296)
      REAL A(N, N)
      A(5,7) = 1.0
      END
`, Engine: "vm", Plan: "sarkar", Seeds: []uint64{1, 2}}},
	}
}

// maskSpans replaces the top-level "spans" array, whose timings differ
// from run to run, with a fixed marker.
func maskSpans(body []byte) []byte {
	const open, closing = "\n  \"spans\": [", "\n  ]"
	i := bytes.Index(body, []byte(open))
	if i < 0 {
		return body
	}
	j := bytes.Index(body[i+len(open):], []byte(closing))
	if j < 0 {
		return body
	}
	end := i + len(open) + j + len(closing)
	var out []byte
	out = append(out, body[:i]...)
	out = append(out, "\n  \"spans\": \"(masked)\""...)
	return append(out, body[end:]...)
}

// TestResponseGolden pins the /v1/analyze response bytes, spans masked,
// of every golden case.
func TestResponseGolden(t *testing.T) {
	ts := httptest.NewServer(New(Config{Metrics: &obs.Registry{}}))
	defer ts.Close()
	var got strings.Builder
	for _, c := range goldenCases() {
		body, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		_, err = b.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "=== %s %d\n", c.name, resp.StatusCode)
		got.Write(maskSpans(b.Bytes()))
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(responseGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(responseGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("response bytes differ from %s at line %d:\n got: %q\nwant: %q", responseGolden, i+1, g, w)
			}
		}
	}
}
