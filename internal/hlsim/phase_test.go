package hlsim

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPhaseConcurrentCallersBuildOnce: callers racing on an idle guard
// run build exactly once and all receive the one published pointer.
func TestPhaseConcurrentCallersBuildOnce(t *testing.T) {
	var ph phase[int]
	var builds atomic.Int32
	release := make(chan struct{})
	build := func() (*int, error) {
		builds.Add(1)
		<-release
		return new(int), nil
	}
	const n = 16
	got := make([]*int, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := ph.do(context.Background(), build)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			got[i] = v
		}()
	}
	time.Sleep(10 * time.Millisecond) // let callers park on the leader
	close(release)
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("build ran %d times, want 1", b)
	}
	for i, v := range got {
		if v == nil || v != ph.val.Load() {
			t.Fatalf("caller %d got %p, want the published %p", i, v, ph.val.Load())
		}
	}
}

// TestPhaseFailedBuildPublishesNothing: a failed build leaves the guard
// idle, so the next call builds again and publishes.
func TestPhaseFailedBuildPublishesNothing(t *testing.T) {
	var ph phase[int]
	boom := errors.New("boom")
	if v, err := ph.do(context.Background(), func() (*int, error) { return nil, boom }); v != nil || !errors.Is(err, boom) {
		t.Fatalf("failed build returned (%v, %v), want (nil, boom)", v, err)
	}
	if ph.val.Load() != nil {
		t.Fatal("failed build published a value")
	}
	want := new(int)
	v, err := ph.do(context.Background(), func() (*int, error) { return want, nil })
	if err != nil || v != want || ph.val.Load() != want {
		t.Fatalf("retry returned (%p, %v), published %p; want %p", v, err, ph.val.Load(), want)
	}
	if v, _ := ph.do(context.Background(), func() (*int, error) {
		t.Fatal("published guard rebuilt")
		return nil, nil
	}); v != want {
		t.Fatalf("warm call returned %p, want %p", v, want)
	}
}

// TestPhasePanickingBuildPublishesNothing: a build that panics releases
// its waiters and leaves the guard idle for the next caller.
func TestPhasePanickingBuildPublishesNothing(t *testing.T) {
	var ph phase[int]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("build panic was swallowed")
			}
		}()
		ph.do(context.Background(), func() (*int, error) { panic("boom") })
	}()
	if ph.val.Load() != nil || ph.wait != nil {
		t.Fatal("panicking build left the guard published or busy")
	}
	if v, err := ph.do(context.Background(), func() (*int, error) { return new(int), nil }); v == nil || err != nil {
		t.Fatalf("rebuild after panic returned (%v, %v)", v, err)
	}
}

// TestPhaseCanceledWaiterLeavesLeader: a waiter whose own context ends
// returns ctx.Err() without building, and the leader still publishes.
func TestPhaseCanceledWaiterLeavesLeader(t *testing.T) {
	var ph phase[int]
	started := make(chan struct{})
	release := make(chan struct{})
	want := new(int)
	leader := make(chan *int, 1)
	go func() {
		v, _ := ph.do(context.Background(), func() (*int, error) {
			close(started)
			<-release
			return want, nil
		})
		leader <- v
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, err := ph.do(ctx, func() (*int, error) {
		t.Error("canceled waiter ran build while a leader was building")
		return nil, nil
	})
	if v != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned (%v, %v), want (nil, context.Canceled)", v, err)
	}
	close(release)
	if got := <-leader; got != want || ph.val.Load() != want {
		t.Fatalf("leader returned %p and published %p, want %p", got, ph.val.Load(), want)
	}
}

// TestPhaseWaiterPromotedAfterLeaderAborts: a waiter parked on a leader
// whose build fails takes over as leader, builds and publishes.
func TestPhaseWaiterPromotedAfterLeaderAborts(t *testing.T) {
	var ph phase[int]
	started := make(chan struct{})
	release := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := ph.do(context.Background(), func() (*int, error) {
			close(started)
			<-release
			return nil, context.Canceled
		})
		leaderErr <- err
	}()
	<-started

	want := new(int)
	waiter := make(chan *int, 1)
	go func() {
		v, err := ph.do(context.Background(), func() (*int, error) { return want, nil })
		if err != nil {
			t.Errorf("promoted waiter: %v", err)
		}
		waiter <- v
	}()
	// Give the waiter time to park; if it has not, it finds the guard
	// idle after the abort and builds anyway.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted leader returned %v, want context.Canceled", err)
	}
	if got := <-waiter; got != want || ph.val.Load() != want {
		t.Fatalf("waiter returned %p and published %p, want %p", got, ph.val.Load(), want)
	}
}
