package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// A body that differs from the oracle's document is a failed operation:
// it counts toward fail_ratio and makes the run exit nonzero.
func TestCorruptBodyFailsTheRun(t *testing.T) {
	docs := map[string]string{"/a": "alpha\n", "/b": "bravo\n", "/c": "charlie\n"}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := docs[r.URL.Path]
		if r.URL.Path == "/b" {
			body = "brav0\n" // one flipped byte
		}
		w.Write([]byte(body))
	}))
	defer srv.Close()

	reqs := []httpReq{{0, "/a"}, {time.Millisecond, "/b"}, {2 * time.Millisecond, "/c"}, {3 * time.Millisecond, "/a"}}
	win := &window{load: newHTTPLoad(srv.URL, 2), httpReqs: reqs}
	defer win.load.close()
	win.http = win.load.run(time.Now(), reqs)
	want := func(path string) ([]byte, error) { return []byte(docs[path]), nil }

	r := &result{Metrics: map[string]float64{}}
	verify(r, win, want)
	if r.Attempted != len(reqs) || r.Failed != 1 {
		t.Fatalf("attempted %d failed %d, want %d and 1", r.Attempted, r.Failed, len(reqs))
	}
	if got := r.failRatio(); got != 0.25 {
		t.Errorf("fail_ratio = %v, want 0.25", got)
	}
	if exitCode(r) == 0 {
		t.Error("a run with a corrupted body exits 0")
	}

	// The same stream against correct bodies passes.
	docs["/b"] = "brav0\n"
	r = &result{Metrics: map[string]float64{}}
	win.http = win.load.run(time.Now(), reqs)
	verify(r, win, want)
	if r.Failed != 0 || exitCode(r) != 0 {
		t.Errorf("clean run: failed %d, exit %d", r.Failed, exitCode(r))
	}
}
