package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// reply is what came back for one request. The body is kept raw and decoded
// only by verify, off the clock.
type reply struct {
	req     *request
	status  int // 0 when the transport failed
	err     error
	body    []byte
	latency time.Duration // send → last body byte; from the due time in an open loop
	late    time.Duration // open loop: how long after its due time the request was sent
}

func (r *reply) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// newClient returns the keep-alive client every lane shares; a lane sends
// sequentially, so each lane ends up owning one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}
}

// do sends one request and reads the whole reply.
func do(ctx context.Context, client *http.Client, base string, req *request) *reply {
	rep := &reply{req: req}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+req.path, bytes.NewReader(req.body))
	if err != nil {
		rep.err = err
		return rep
	}
	hr.Header.Set("Content-Type", req.ctype)
	resp, err := client.Do(hr)
	if err != nil {
		rep.err = err
		return rep
	}
	rep.status = resp.StatusCode
	rep.body, rep.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return rep
}

// stepResult is one closed-loop step: its replies and how long the whole
// step took (the slower of its requests).
type stepResult struct {
	replies []*reply
	latency time.Duration
}

func (s *stepResult) ok() bool {
	for _, r := range s.replies {
		if !r.ok() {
			return false
		}
	}
	return true
}

// runClosed executes the steps in order; a step's requests go out
// concurrently, one connection each, and the next step starts only when all
// of them have been answered. It returns the wall time of the whole loop.
func runClosed(ctx context.Context, client *http.Client, base string, steps []step) ([]stepResult, time.Duration, error) {
	out := make([]stepResult, len(steps))
	start := time.Now()
	for i, st := range steps {
		if err := ctx.Err(); err != nil {
			return nil, 0, fmt.Errorf("closed loop stopped at step %d of %d: %w", i, len(steps), err)
		}
		replies := make([]*reply, len(st))
		t0 := time.Now()
		if len(st) == 1 {
			replies[0] = do(ctx, client, base, st[0])
			replies[0].latency = time.Since(t0)
		} else {
			var wg sync.WaitGroup
			for j, req := range st {
				wg.Add(1)
				go func() {
					defer wg.Done()
					replies[j] = do(ctx, client, base, req)
					replies[j].latency = time.Since(t0)
				}()
			}
			wg.Wait()
		}
		out[i] = stepResult{replies: replies, latency: time.Since(t0)}
	}
	return out, time.Since(start), nil
}

// runOpen issues step i's requests at start + i/rate whatever the server
// does: lane j carries the j-th request of every step in order on its own
// connection, so a mutation stream keeps its order. A request that cannot be
// sent on time (its lane is still waiting for an earlier reply) goes out as
// soon as the lane is free, and its latency is still counted from when it
// was due — the wait a stall imposes on later arrivals is part of the
// answer.
func runOpen(ctx context.Context, client *http.Client, base string, steps []step, rate float64) ([][]*reply, error) {
	if len(steps) == 0 {
		return nil, nil
	}
	lanes := len(steps[0])
	out := make([][]*reply, lanes)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for j := 0; j < lanes; j++ {
		out[j] = make([]*reply, len(steps))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, st := range steps {
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
					}
				}
				sent := time.Now()
				rep := do(ctx, client, base, st[j])
				rep.latency = time.Since(due)
				rep.late = sent.Sub(due)
				out[j][i] = rep
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	return out, nil
}
