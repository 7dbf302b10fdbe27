package main

import (
	"context"
	"sync"
	"time"
)

// timing is one open-loop request's outcome. Both durations count from
// when the request was due, so a stall that delays later requests shows in
// their latency.
type timing struct {
	Late    time.Duration // how late the generator handed the request off
	Sent    time.Duration // from due until a connection started sending it
	Latency time.Duration // from due until the response was complete
	Err     error
}

// runOpenLoop issues request i at start+due[i] (due must be ascending)
// regardless of how earlier requests fare, on at most conns connections:
// a request due while every connection is busy waits for one, and that
// wait counts in its latency. Late measures only the generator: the delay
// between the due time and the dispatcher handing the request to the
// connection queue. do performs request i; it is called from conns
// goroutines. Requests not dispatched before ctx ends fail with its error.
func runOpenLoop(ctx context.Context, start time.Time, due []time.Duration, conns int, do func(ctx context.Context, i int) error) []timing {
	res := make([]timing, len(due))
	queue := make(chan int, len(due)) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				at := start.Add(due[i])
				res[i].Sent = time.Since(at)
				res[i].Err = do(ctx, i)
				res[i].Latency = time.Since(at)
			}
		}()
	}

	timer := time.NewTimer(0)
	defer timer.Stop()
	n := 0
dispatch:
	for ; n < len(due); n++ {
		at := start.Add(due[n])
		if wait := time.Until(at); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		res[n].Late = time.Since(at)
		queue <- n
	}
	close(queue)
	wg.Wait()
	for ; n < len(due); n++ {
		res[n].Err = ctx.Err()
	}
	return res
}
