package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// slowShots schedules n GETs of url every interval.
func slowShots(url string, n int, interval time.Duration) []shot {
	shots := make([]shot, n)
	for i := range shots {
		shots[i] = shot{
			due:  time.Duration(i) * interval,
			kind: "get",
			send: func(ctx context.Context, c *http.Client) error {
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
				if err != nil {
					return err
				}
				resp, err := c.Do(req)
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				_, err = io.Copy(io.Discard, resp.Body)
				return err
			},
		}
	}
	return shots
}

// TestOpenLoopShowsBacklog drives a handler that takes 10ms per request
// through one connection at 200 requests/s, twice its capacity. An honest
// open loop sends every request, late, and charges the wait to latency:
// the last requests wait for all the earlier ones. A generator that
// started its clock after the tick, or dropped ticks while busy, would
// report about 10ms throughout.
func TestOpenLoopShowsBacklog(t *testing.T) {
	const service = 10 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(service)
	}))
	defer srv.Close()
	clients := newClients(1, 5*time.Second)
	defer closeClients(clients)

	const n = 40
	res := runOpenLoop(context.Background(), slowShots(srv.URL, n, 5*time.Millisecond), clients)
	if len(res) != n {
		t.Fatalf("%d results for %d shots", len(res), n)
	}
	for i, r := range res {
		if r.err != nil {
			t.Fatalf("shot %d: %v", i, r.err)
		}
	}
	first, last := res[0], res[n-1]
	// 40 requests of ≥10ms each take ≥400ms; the last was due at 195ms.
	if got := last.latency(); got < 150*time.Millisecond {
		t.Errorf("last request latency %v: the backlog does not show", got)
	}
	if got := last.late(); got < 150*time.Millisecond {
		t.Errorf("last request lateness %v: the generator does not report running behind", got)
	}
	if first.latency() > last.latency()/3 {
		t.Errorf("first latency %v not well below last %v", first.latency(), last.latency())
	}
	for i := 1; i < n; i++ {
		if res[i].start < res[i-1].end {
			t.Fatalf("request %d started before request %d finished on a one-connection loop", i, i-1)
		}
	}
}

// TestOpenLoopOnTimeBelowCapacity is the control: well below capacity the
// same handler answers in about its service time and nothing runs late.
func TestOpenLoopOnTimeBelowCapacity(t *testing.T) {
	const service = 2 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(service)
	}))
	defer srv.Close()
	clients := newClients(2, 5*time.Second)
	defer closeClients(clients)

	res := runOpenLoop(context.Background(), slowShots(srv.URL, 20, 10*time.Millisecond), clients)
	var lat []float64
	for i, r := range res {
		if r.err != nil {
			t.Fatalf("shot %d: %v", i, r.err)
		}
		lat = append(lat, ms(r.latency()))
	}
	if m := median(lat); m > 50 {
		t.Errorf("median latency %.1fms at a fifth of capacity", m)
	}
}

func TestClosedLoopCountsOnlyTheWindow(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(5 * time.Millisecond)
	}))
	defer srv.Close()
	clients := newClients(2, 5*time.Second)
	defer closeClients(clients)
	get := slowShots(srv.URL, 1, 0)[0].send
	done, work, errs := runClosedLoop(context.Background(), 100*time.Millisecond, clients,
		func(ctx context.Context, c *http.Client, n int) (int, error) { return 3, get(ctx, c) })
	if done == 0 || done > 40 {
		t.Fatalf("%d requests done in 100ms of 5ms requests over 2 clients", done)
	}
	if work != 3*done {
		t.Errorf("work %d, want %d", work, 3*done)
	}
	if len(errs) < done {
		t.Errorf("%d errors recorded for %d requests", len(errs), done)
	}
}

// TestWaitUntilNeverEarly: a shot must not go out before its due time,
// whether the wait is longer or shorter than spinLead, and a past due
// time returns at once.
func TestWaitUntilNeverEarly(t *testing.T) {
	start := time.Now()
	for _, due := range []time.Duration{0, spinLead / 2, 3 * spinLead, 5 * time.Millisecond} {
		waitUntil(context.Background(), start, due)
		if got := time.Since(start); got < due {
			t.Errorf("returned at %v, before its due time %v", got, due)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	waitUntil(ctx, t0, time.Hour)
	if got := time.Since(t0); got > time.Second {
		t.Errorf("waited %v after ctx ended", got)
	}
}
