package sweep

import (
	"context"
	"errors"
	"testing"
)

func TestStripeVisitsEveryItemOnItsWorker(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 100
		seen := make([]int, n) // worker+1 that ran item i
		err := Stripe(context.Background(), workers, n, func(w, i int) error {
			if seen[i] != 0 {
				t.Errorf("workers=%d: item %d ran twice", workers, i)
			}
			seen[i] = w + 1
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range seen {
			if w != i%workers+1 {
				t.Errorf("workers=%d: item %d ran on worker %d, want %d", workers, i, w-1, i%workers)
			}
		}
	}
}

func TestStripeReturnsLowestWorkerError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	ran := make([]bool, 40)
	err := Stripe(context.Background(), 4, 40, func(w, i int) error {
		ran[i] = true
		switch i {
		case 6: // worker 2
			return errHigh
		case 13: // worker 1
			return errLow
		}
		return nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want the lowest failing worker's error", err)
	}
	if ran[17] || !ran[9] {
		t.Error("a failing worker must stop at its error and leave the others running")
	}
}

func TestStripeStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Stripe(ctx, 1, 1000, func(_, _ int) error {
		calls++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Errorf("a cancelled context must stop before the first item, ran %d", calls)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	calls = 0
	err = Stripe(ctx, 1, 1000, func(_, i int) error {
		calls++
		if i == 40 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || calls != 64 {
		t.Errorf("err = %v after %d items; want context.Canceled at the next poll, item 64", err, calls)
	}
}
