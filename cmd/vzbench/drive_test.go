package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// A server that stalls must charge the stall to every request queued
// behind it: latency runs from the intended send time, so the requests
// due while both connections were stuck show the remaining stall, which
// send-time latency would hide.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var stallEnd time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Until(stallEnd))
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	var reqs []httpReq
	for at := time.Duration(0); at < 300*time.Millisecond; at += 10 * time.Millisecond {
		reqs = append(reqs, httpReq{at: at, path: "/"})
	}
	load := newHTTPLoad(srv.URL, 2)
	defer load.close()
	t0 := time.Now().Add(50 * time.Millisecond)
	stallEnd = t0.Add(stall)
	samples := load.run(t0, reqs)

	for i, s := range samples {
		if !s.ok {
			t.Fatalf("request %d failed", i)
		}
		if s.due >= stall {
			if s.lat > stall/2 {
				t.Errorf("request due at %v, after the stall, took %v", s.due, s.lat)
			}
			continue
		}
		// Due during the stall: it cannot complete before the stall
		// ends, and its clock starts at its due time — or at its send,
		// lag later, for the two requests that found a connection idle.
		if want := stall - s.due - s.lag - 5*time.Millisecond; s.lat < want {
			t.Errorf("request due at %v: latency %v, want at least %v (the rest of the stall)", s.due, s.lat, want)
		}
		if i >= 2 && s.idle {
			t.Errorf("request %d due at %v found an idle connection during the stall", i, s.due)
		}
	}
}
