package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ggsx"
	"repro/internal/testutil/trap"
)

// TestCancelledVerificationIsNoAnswer: a verification the deadline cut
// short is no answer. On the trap, whose one graph contains the query but
// takes the matcher far longer than the deadline to prove it, the
// one-shot query (serial and pooled), the answer stream and the brute-force
// scan each return the deadline's error, not an empty answer set.
func TestCancelledVerificationIsNoAnswer(t *testing.T) {
	ds, q := trap.Dataset()
	m := ggsx.New(ggsx.Options{})
	if err := m.Build(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	deadline := func(t *testing.T, run func(ctx context.Context) error) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if err := run(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want the deadline's error", err)
		}
	}
	for _, workers := range []int{1, 4} {
		p := &core.Processor{Method: m, DS: ds, VerifyWorkers: workers}
		deadline(t, func(ctx context.Context) error {
			res, err := p.QueryCtx(ctx, q)
			if err == nil {
				t.Logf("%d workers: %d candidates, answers %v", workers, len(res.Candidates), res.Answers)
			}
			return err
		})
	}
	deadline(t, func(ctx context.Context) error {
		for id, err := range core.StreamAnswers(ctx, m, ds, q) {
			if err != nil {
				return err
			}
			t.Logf("streamed answer %d", id)
		}
		return nil
	})
	deadline(t, func(ctx context.Context) error {
		_, err := core.BruteForceAnswers(ctx, ds, q)
		return err
	})
}
