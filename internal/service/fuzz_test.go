package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/progen"
)

// FuzzAnalyzeHandler posts arbitrary bodies to /v1/analyze under tight
// limits and requires the handler never to panic and never to answer 5xx
// except 503 (shed or draining) and 504 (deadline): whatever the body,
// a malformed or failing program is the client's fault and gets a 4xx.
func FuzzAnalyzeHandler(f *testing.F) {
	body := func(req AnalyzeRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(body(AnalyzeRequest{Source: srcOK}))
	f.Add(body(AnalyzeRequest{Source: srcOK, Engine: "vm", Plan: "ball-larus", Seeds: []uint64{1, 2}}))
	f.Add(body(AnalyzeRequest{Source: progen.GenerateOpts(5, 6, 3, progen.Opts{Stops: true}), Engine: "vm-batch", Seeds: []uint64{3}}))
	f.Add(body(AnalyzeRequest{Source: srcOK, MaxSteps: 10}))
	f.Add(body(AnalyzeRequest{Source: "      PROGRAM P\n      REAL A(0)\n      A(1) = 1.0\n      END\n"}))
	f.Add(body(AnalyzeRequest{Source: "      PROGRAM P\n      GOTO 10\n      END\n"}))
	f.Add(body(AnalyzeRequest{Source: "      PROGRAM P\n      CALL R\n      END\n      SUBROUTINE R\n      CALL R\n      END\n", Engine: "vm"}))
	f.Add(body(AnalyzeRequest{Source: "      PROGRAM P\n      CALL S(1, 2)\n      END\n      SUBROUTINE S(A)\n      INTEGER A\n      END\n"}))
	f.Add(body(AnalyzeRequest{Source: "      PROGRAM P\n      INTEGER I\n      I = 0\n   10 I = I + 1\n      IF (I .GT. 3) GOTO 20\n      GOTO 10\n   20 IF (I .LT. 9) GOTO 30\n      STOP\n   30 GOTO 10\n      END\n", Plan: "ball-larus"}))
	f.Add(body(AnalyzeRequest{Source: "      PROGRAM P\n      INTEGER I\n      DO 10 I = 1, 5\n      IF (RAND() .LT. 0.3) STOP\n   10 CONTINUE\n      END\n", Plan: "ball-larus", Engine: "vm-batch", Seeds: []uint64{1, 2, 3, 4}}))
	f.Add([]byte(`{"source": 7}`))
	f.Add([]byte(`{"source": "      END\n", "seeds": [1,2,3,4,5,6]}`))
	f.Add([]byte(`not json`))

	svc := New(Config{
		Workers:        1,
		Queue:          1,
		RequestTimeout: 2 * time.Second,
		MaxSourceBytes: 8 << 10,
		MaxSeeds:       4,
		MaxSteps:       20_000,
		Metrics:        &obs.Registry{},
	})
	f.Fuzz(func(t *testing.T, b []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(b))
		svc.ServeHTTP(rec, req)
		switch code := rec.Code; {
		case code == http.StatusServiceUnavailable, code == http.StatusGatewayTimeout:
		case code >= 500:
			t.Fatalf("status %d for body %q: %s", code, b, rec.Body.String())
		}
	})
}
