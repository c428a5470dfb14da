package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vzlens/internal/scenario"
)

// sample is one operation's outcome. lat is measured from the intended
// send time whenever the request waited on the system under test (all
// connections busy), so a stall is charged to every request queued
// behind it. When the generator itself woke late from an idle sleep —
// Go timers overshoot by up to a millisecond — that lateness is the
// generator's, recorded as lag, and the clock starts at the actual
// send instead.
type sample struct {
	due  time.Duration // intended send time, relative to the stream start
	lat  time.Duration
	lag  time.Duration // generator lateness on an idle wake-up
	idle bool          // the generator was idle at due (lag applies)
	ok   bool          // transport and status succeeded
	done bool          // a response arrived
	size int           // response bytes
	hash uint64        // body digest, checked against the oracle later
}

// openLoop runs the scheduled operations on workers goroutines (one
// connection each). Operation i is due at t0+ats[i]; a worker that is
// free sleeps until then, a worker that is late sends at once and the
// lateness counts as latency.
func openLoop(t0 time.Time, ats []time.Duration, workers int, do func(i int, s *sample)) []sample {
	out := make([]sample, len(ats))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ats) {
					return
				}
				s := &out[i]
				s.due = ats[i]
				due := t0.Add(ats[i])
				start := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					start = time.Now()
					s.idle, s.lag = true, start.Sub(due)
				}
				do(i, s)
				s.lat = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}

// httpLoad is the HTTP side of the generator: at most conns keep-alive
// connections, no compression, every body read in full and digested.
type httpLoad struct {
	base   string
	client *http.Client
	seed   maphash.Seed
}

func newHTTPLoad(base string, conns int) *httpLoad {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &httpLoad{base: base, client: &http.Client{Transport: tr, Timeout: 10 * time.Second}, seed: maphash.MakeSeed()}
}

func (h *httpLoad) close() { h.client.CloseIdleConnections() }

func (h *httpLoad) digest(b []byte) uint64 { return maphash.Bytes(h.seed, b) }

// get performs one GET and fills s. A non-200 status, a transport error
// or a timeout leaves s.ok false.
func (h *httpLoad) get(path string, s *sample) {
	resp, err := h.client.Get(h.base + path)
	if err != nil {
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = err == nil
	s.size = len(body)
	s.hash = h.digest(body)
	s.ok = err == nil && resp.StatusCode == http.StatusOK
}

// run drives the open-loop HTTP stream starting at t0.
func (h *httpLoad) run(t0 time.Time, reqs []httpReq) []sample {
	ats := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		ats[i] = r.at
	}
	return openLoop(t0, ats, httpConns, func(i int, s *sample) { h.get(reqs[i].path, s) })
}

// runDNS drives the open-loop UDP stream: request i leaves on socket
// i%dnsSockets, one sender and one receiver goroutine per socket.
// Sends never wait on replies, so the clock starts at the actual send
// and the sender's lateness is lag. Replies are matched by DNS ID and
// compared byte for byte with want[i]; anything unanswered a second
// after the last send is a timeout.
func runDNS(t0 time.Time, addr string, reqs []dnsReq, want [][]byte) ([]sample, error) {
	var conns []net.Conn
	for sock := 0; sock < dnsSockets; sock++ {
		conn, err := net.Dial("udp", addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		conns = append(conns, conn)
	}
	out := make([]sample, len(reqs))
	sent := make([]int64, len(reqs)) // send time, ns since t0
	var wg sync.WaitGroup
	errs := make(chan error, dnsSockets)
	for sock, conn := range conns {
		// pending maps a DNS ID to 1+the request index awaiting it.
		var pending [1 << 16]atomic.Int32
		var outstanding atomic.Int64
		wg.Add(2)
		go func() { // receiver
			defer wg.Done()
			buf := make([]byte, 4096)
			for {
				n, err := conn.Read(buf)
				now := time.Since(t0)
				if err != nil {
					return // closed by the sender when it is done
				}
				if n < 2 {
					continue
				}
				id := binary.BigEndian.Uint16(buf)
				idx := int(pending[id].Swap(0)) - 1
				if idx < 0 {
					continue // late reply to a request already timed out
				}
				s := &out[idx]
				s.lat = now - time.Duration(sent[idx])
				s.done, s.size = true, n
				s.ok = bytes.Equal(buf[:n], want[idx])
				outstanding.Add(-1)
			}
		}()
		go func() { // sender
			defer wg.Done()
			defer conn.Close()
			for i := sock; i < len(reqs); i += dnsSockets {
				s := &out[i]
				s.due = reqs[i].at
				if wait := time.Until(t0.Add(reqs[i].at)); wait > 0 {
					time.Sleep(wait)
				}
				now := time.Since(t0)
				s.idle, s.lag = true, now-reqs[i].at
				sent[i] = int64(now)
				id := binary.BigEndian.Uint16(reqs[i].pkt)
				if pending[id].Swap(int32(i+1)) != 0 {
					outstanding.Add(-1) // its predecessor on this ID timed out
				}
				outstanding.Add(1)
				if _, err := conn.Write(reqs[i].pkt); err != nil {
					errs <- fmt.Errorf("dns send: %w", err)
					return
				}
			}
			grace := time.Now().Add(time.Second)
			for outstanding.Load() > 0 && time.Now().Before(grace) {
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	close(errs)
	return out, <-errs
}

// diffSample is one what-if operation: register a spec, fetch its diff.
type diffSample struct {
	spec     *scenario.Spec
	lat      time.Duration // GET /diff
	ok       bool
	key      string
	scenario string
}

// runWhatif runs the closed loop: each client registers a spec, then
// fetches its diff cold, then takes the next. Clients take specs in
// order until the deadline; a spec in flight at the deadline is
// finished and counted.
func (h *httpLoad) runWhatif(specs []*scenario.Spec, clients int, deadline time.Time) []diffSample {
	out := make([]diffSample, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				out[i] = h.diff(specs[i])
			}
		}()
	}
	wg.Wait()
	n := 0
	for n < len(out) && out[n].spec != nil {
		n++
	}
	return out[:n]
}

// diff registers spec and fetches its diff, decoding just enough of it
// to check that the server answered for this spec's content key.
func (h *httpLoad) diff(spec *scenario.Spec) diffSample {
	d := diffSample{spec: spec}
	doc, err := json.Marshal(spec)
	if err != nil {
		return d
	}
	resp, err := h.client.Post(h.base+"/api/scenarios", "application/json", bytes.NewReader(doc))
	if err != nil {
		return d
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return d
	}
	t := time.Now()
	resp, err = h.client.Get(h.base + "/api/scenarios/" + spec.ID + "/diff")
	if err != nil {
		return d
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d.lat = time.Since(t)
	if err != nil || resp.StatusCode != http.StatusOK {
		return d
	}
	var got struct {
		Scenario string `json:"scenario"`
		Key      string `json:"key"`
	}
	if json.Unmarshal(body, &got) != nil {
		return d
	}
	d.key, d.scenario = got.Key, got.Scenario
	d.ok = got.Key == spec.Key() && got.Scenario == spec.ID
	return d
}
