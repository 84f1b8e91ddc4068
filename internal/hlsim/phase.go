package hlsim

import (
	"context"
	"sync"
	"sync/atomic"
)

// phase is a cancellation-safe once-guard for one lazy warm-up phase of
// a plan slot (encode, decode-verify or exec build). The first build to
// succeed is published and served to every later caller; a published
// value is never rebuilt, so sticky model errors live inside T, not in
// the guard. Unlike sync.Once, a build that fails — canceled, faulted
// or panicking — publishes nothing: the next caller, or a waiter that
// was parked on the failed leader, runs the build again from scratch
// under its own context. No half-built state is ever visible.
//
// The zero value is an idle guard.
type phase[T any] struct {
	mu sync.Mutex
	// wait is non-nil while a leader builds; waiters park on it and
	// re-check the guard when it closes.
	wait chan struct{}
	val  atomic.Pointer[T]
}

// do returns the published value, electing the caller leader and running
// build if nothing is published and no leader is building. A warm call
// is one atomic load and takes no lock. A waiter returns ctx.Err() as
// soon as its own ctx ends, leaving the leader undisturbed. The leader
// returns build's result, including its error, which is seen by the
// leader alone.
func (ph *phase[T]) do(ctx context.Context, build func() (*T, error)) (v *T, err error) {
	for {
		if pub := ph.val.Load(); pub != nil {
			return pub, nil
		}
		ph.mu.Lock()
		if pub := ph.val.Load(); pub != nil {
			ph.mu.Unlock()
			return pub, nil
		}
		w := ph.wait
		if w == nil {
			break
		}
		ph.mu.Unlock()
		select {
		case <-w: // the leader finished or failed: re-check
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	w := make(chan struct{})
	ph.wait = w
	ph.mu.Unlock()
	// Deferred so that a panicking build, which leaves v nil, also
	// publishes nothing and strands no waiter.
	defer func() {
		ph.mu.Lock()
		if err == nil {
			ph.val.Store(v)
		}
		ph.wait = nil
		ph.mu.Unlock()
		close(w)
	}()
	return build()
}
