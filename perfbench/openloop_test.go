package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// With one connection and a 50ms service time, requests due at 0, 10 and
// 20ms queue behind each other: their latency counts the queueing from the
// due time, while the generator itself stays on schedule.
func TestOpenLoopCountsQueueingFromDue(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	due := []time.Duration{0, ms(10), ms(20)}
	res := runOpenLoop(context.Background(), time.Now(), due, 1, func(context.Context, int) error {
		time.Sleep(ms(50))
		return nil
	})
	wantSent := []time.Duration{0, ms(40), ms(80)}
	wantLatency := []time.Duration{ms(50), ms(90), ms(130)}
	const slack = 40 * time.Millisecond // scheduler noise on a loaded host
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.Late > slack {
			t.Errorf("request %d: generator %v late; a busy connection must not delay dispatch", i, r.Late)
		}
		if r.Sent < wantSent[i] || r.Sent > wantSent[i]+slack {
			t.Errorf("request %d: sent %v after due, want about %v", i, r.Sent, wantSent[i])
		}
		if r.Latency < wantLatency[i] || r.Latency > wantLatency[i]+slack {
			t.Errorf("request %d: latency %v, want about %v", i, r.Latency, wantLatency[i])
		}
	}
}

// A request that is due long after the start is not sent early, and the
// connections run concurrently.
func TestOpenLoopHonoursSchedule(t *testing.T) {
	due := []time.Duration{0, 0, 30 * time.Millisecond}
	start := time.Now()
	sentAt := make([]time.Duration, len(due))
	runOpenLoop(context.Background(), start, due, 2, func(_ context.Context, i int) error {
		sentAt[i] = time.Since(start)
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if sentAt[2] < 30*time.Millisecond {
		t.Errorf("request due at 30ms sent at %v", sentAt[2])
	}
	if sentAt[1] > 15*time.Millisecond {
		t.Errorf("second connection idle: request 1 sent at %v", sentAt[1])
	}
}

func TestOpenLoopCancelFailsUndispatched(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	due := []time.Duration{0, time.Hour}
	res := runOpenLoop(ctx, time.Now(), due, 1, func(context.Context, int) error {
		cancel()
		return nil
	})
	if res[0].Err != nil {
		t.Errorf("dispatched request: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, context.Canceled) {
		t.Errorf("undispatched request: err %v, want context.Canceled", res[1].Err)
	}
}
