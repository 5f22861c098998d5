package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
	"repro/internal/progen"
)

// benchPrograms is the hot working set of the request benchmarks, shaped
// like the service-mix workload: progen size 80, depth 3, eight seeds.
const benchPrograms = 48

var benchSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}

// benchPlans are the counter strategies each request benchmark runs
// under, one sub-benchmark each.
var benchPlans = []string{"sarkar", "ball-larus"}

// benchBody is the request body of generated program seed under plan.
func benchBody(b *testing.B, seed uint64, plan string) []byte {
	body, err := json.Marshal(AnalyzeRequest{Source: progen.Generate(seed, 80, 3), Seeds: benchSeeds, Plan: plan})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// serveOnce posts one body straight into the handler (no sockets) and
// fails the benchmark on any status but 200.
func serveOnce(b *testing.B, svc *Service, body []byte) {
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %.200s", rec.Code, rec.Body.String())
	}
}

// BenchmarkAnalyzeWarm times a warm /v1/analyze request: every program of
// the working set is compiled before the timer starts, so each op is a
// cache hit that profiles eight seeds, estimates and writes the response.
func BenchmarkAnalyzeWarm(b *testing.B) {
	for _, plan := range benchPlans {
		b.Run(plan, func(b *testing.B) {
			svc := New(Config{Metrics: &obs.Registry{}})
			bodies := make([][]byte, benchPrograms)
			for i := range bodies {
				bodies[i] = benchBody(b, uint64(i+1), plan)
				serveOnce(b, svc, bodies[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveOnce(b, svc, bodies[i%len(bodies)])
			}
		})
	}
}

// BenchmarkAnalyzeCold times a cold /v1/analyze request: every op posts a
// program the service has not seen, so it compiles (parse, lower,
// analyze, lint, plan, bytecode) before it profiles.
func BenchmarkAnalyzeCold(b *testing.B) {
	for _, plan := range benchPlans {
		b.Run(plan, func(b *testing.B) {
			svc := New(Config{Metrics: &obs.Registry{}})
			bodies := make([][]byte, b.N)
			for i := range bodies {
				bodies[i] = benchBody(b, uint64(1000+i), plan)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveOnce(b, svc, bodies[i])
			}
		})
	}
}
