package main

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// shot is one scheduled request of an open loop.
type shot struct {
	// due is when the request should go out, as an offset from the start
	// of the loop.
	due time.Duration
	// kind labels the request for reporting ("ingest", "query", ...).
	kind string
	// send performs the request on the worker's client and reports an
	// error for anything but the expected answer.
	send func(ctx context.Context, c *http.Client) error
}

// shotResult is one shot's timing, all offsets from the start of the loop.
type shotResult struct {
	kind  string
	due   time.Duration
	start time.Duration // when a worker began the request
	end   time.Duration // when the answer (or the error) arrived
	err   error
}

// latency is the request's time from its due time, so a stall that delays
// later requests is charged to them too.
func (r shotResult) latency() time.Duration { return r.end - r.due }

// late is how far behind schedule the generator sent the request.
func (r shotResult) late() time.Duration { return r.start - r.due }

// runOpenLoop sends every shot at its due time, or as soon after as a
// worker is free; it never skips or merges a shot, so a backlog shows up
// as latency and lateness instead of vanishing. Shots must be sorted by
// due time. Each worker owns one client (so workers bound the number of
// connections). runOpenLoop returns when every shot has been answered or
// ctx ends; unsent shots then carry ctx's error.
func runOpenLoop(ctx context.Context, shots []shot, clients []*http.Client) []shotResult {
	results := make([]shotResult, len(shots))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(len(clients))
	for _, c := range clients {
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(shots) {
					return
				}
				s := shots[i]
				res := &results[i]
				res.kind, res.due = s.kind, s.due
				waitUntil(ctx, start, s.due)
				if err := ctx.Err(); err != nil {
					res.err = err
					continue
				}
				res.start = time.Since(start)
				res.err = s.send(ctx, c)
				res.end = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	return results
}

// spinLead is how long before a due time waitUntil stops sleeping and
// starts polling the clock.
const spinLead = 2 * time.Millisecond

// waitUntil returns once the offset due from start has passed, or when ctx
// ends. Go's timers can fire up to about a millisecond late on an idle
// Linux machine (the runtime's network poller sleeps in whole
// milliseconds), and every latency is timed from the due time, so a sleep
// to the due time would add that much to each one (a median 0.6 ms on a
// 1.5 ms query, on a 2-CPU Xeon VM). waitUntil sleeps until spinLead
// before the due time and yields in a loop for the rest, which costs one
// CPU at most spinLead per request.
func waitUntil(ctx context.Context, start time.Time, due time.Duration) {
	if wait := due - spinLead - time.Since(start); wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return
		}
	}
	for time.Since(start) < due && ctx.Err() == nil {
		runtime.Gosched()
	}
}

// runClosedLoop runs one sender per client back to back until d has
// passed: each sends its next request only after the previous answer.
// send performs request n (numbered in hand-out order) and reports the
// work it carried. runClosedLoop returns the requests answered without
// error inside the window, the work they carried, and every request's
// error (nil for success). Requests still in flight at the deadline
// finish but do not count.
func runClosedLoop(ctx context.Context, d time.Duration, clients []*http.Client,
	send func(ctx context.Context, c *http.Client, n int) (int, error)) (done, work int, errs []error) {
	var (
		mu   sync.Mutex
		next int
	)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	wg.Add(len(clients))
	for _, c := range clients {
		go func(c *http.Client) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				mu.Lock()
				n := next
				next++
				mu.Unlock()
				w, err := send(ctx, c, n)
				end := time.Now()
				mu.Lock()
				errs = append(errs, err)
				if err == nil && !end.After(deadline) {
					done++
					work += w
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return done, work, errs
}

// newClients returns n HTTP clients that each hold at most one connection.
func newClients(n int, timeout time.Duration) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}
