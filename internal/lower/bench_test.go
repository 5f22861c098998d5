package lower

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/lang"
)

// BenchmarkFrontEnd times lang.Parse plus Lower over the first 20
// cold-large programs (progen size 240, depth 4): the front end of every
// cold-large op. Throughput is source bytes per second.
func BenchmarkFrontEnd(b *testing.B) {
	srcs := corpus.ColdLarge(20)
	total := 0
	for _, src := range srcs {
		total += len(src)
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			prog, err := lang.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Lower(prog); err != nil {
				b.Fatal(err)
			}
		}
	}
}
