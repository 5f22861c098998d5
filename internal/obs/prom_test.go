package obs

import (
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	r := &Registry{}
	r.Add("pipeline.path_fallbacks", 3)
	r.Add("service.requests_total", 10)
	r.SetGauge("service.inflight", 2)
	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE repro_pipeline_path_fallbacks counter\n" +
		"repro_pipeline_path_fallbacks 3\n" +
		"# TYPE repro_service_inflight gauge\n" +
		"repro_service_inflight 2\n" +
		"# TYPE repro_service_requests_total counter\n" +
		"repro_service_requests_total 10\n"
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"pipeline.cfg_nodes":    "repro_pipeline_cfg_nodes",
		"9lives":                "repro_9lives", // prefix keeps the name legal
		"a-b c":                 "repro_a_b_c",
		"process.peak_rss.2024": "repro_process_peak_rss_2024",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
