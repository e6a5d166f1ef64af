package sweep

import (
	"context"
	"sync"
)

// pollMask amortizes Stripe's cancellation polling to one check every 32
// items: a Monte Carlo trial is microseconds of pure CPU, so a channel
// read per item would show in the hot loop while a 32-item stop lag is
// invisible.
const pollMask = 31

// Stripe calls body(w, i) for every i in [0, n) on workers goroutines
// (one runs inline on the caller). Worker w takes the stripe i = w,
// w+workers, w+2*workers, ... in order and stops at its first error, so
// state indexed by w needs no locking and which worker ran an item is a
// pure function of (i, workers). Each stripe polls ctx before its first
// item and then every 32 items; a Background context costs one nil check
// per item. Stripe returns the error of the lowest-numbered failing
// worker, ctx.Err() included. workers must be at least 1.
func Stripe(ctx context.Context, workers, n int, body func(w, i int) error) error {
	stripe := func(w int) error {
		done := ctx.Done()
		for i, k := w, 0; i < n; i, k = i+workers, k+1 {
			if done != nil && k&pollMask == 0 {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			if err := body(w, i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers == 1 {
		return stripe(0)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = stripe(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
