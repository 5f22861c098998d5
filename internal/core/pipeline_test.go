package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/interp"
)

// cancelWriter cancels its context on the first PRINT it receives.
type cancelWriter struct{ cancel context.CancelFunc }

func (w cancelWriter) Write(b []byte) (int, error) {
	w.cancel()
	return len(b), nil
}

// TestProfileCtxCancelsBetweenSeeds cancels the context from inside the
// first seed's run: no later seed may start, and ProfileCtx must report
// the cancellation on every engine.
func TestProfileCtxCancelsBetweenSeeds(t *testing.T) {
	const src = `      PROGRAM P
      INTEGER I
      I = IRAND(100)
      PRINT *, 'DREW', I
      END
`
	for _, eng := range []interp.Engine{interp.EngineTree, interp.EngineVM, interp.EngineVMBatch} {
		p, err := LoadOpts(src, LoadOptions{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		_, _, err = p.ProfileCtx(ctx, interp.Options{Out: cancelWriter{cancel}}, 1, 2, 3, 4)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", eng, err)
		}
	}
}
