package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dfst"
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

// gotoSpaghetti is eight labeled statements whose conditional GOTOs form
// irreducible regions that node splitting would copy exponentially.
const gotoSpaghetti = `      PROGRAM T
      INTEGER I
      I = 0
   10 I = I + 1
      IF (I .GT. 1) GOTO 30
      IF (I .GT. 2) GOTO 50
   20 I = I + 1
      IF (I .GT. 4) GOTO 70
      IF (I .GT. 5) GOTO 40
   30 I = I + 1
      IF (I .GT. 7) GOTO 20
      IF (I .GT. 8) GOTO 40
   40 I = I + 1
      IF (I .GT. 10) GOTO 20
      IF (I .GT. 11) GOTO 60
   50 I = I + 1
      IF (I .GT. 13) GOTO 30
      IF (I .GT. 14) GOTO 10
   60 I = I + 1
      IF (I .GT. 16) GOTO 80
      IF (I .GT. 17) GOTO 30
   70 I = I + 1
      IF (I .GT. 19) GOTO 70
      IF (I .GT. 20) GOTO 10
   80 I = I + 1
      IF (I .GT. 22) GOTO 40
      IF (I .GT. 23) GOTO 80
      END
`

// TestLoadSurfacesSplitBudget: a load whose lowering would split nodes past
// the budget fails with dfst.ErrSplitBudget instead of running away.
func TestLoadSurfacesSplitBudget(t *testing.T) {
	_, err := LoadOpts(gotoSpaghetti, LoadOptions{Workers: 1})
	if !errors.Is(err, dfst.ErrSplitBudget) {
		t.Fatalf("LoadOpts = %v, want %v", err, dfst.ErrSplitBudget)
	}
}
