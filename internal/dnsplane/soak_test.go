package dnsplane

import (
	"encoding/binary"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vzlens/internal/dnswire"
	"vzlens/internal/geo"
	"vzlens/internal/months"
	"vzlens/internal/overload"
	"vzlens/internal/world"
)

// leakGuard fails the test if it leaves goroutines behind. Register it
// FIRST: t.Cleanup runs last-registered-first, so the check runs after
// the server and every query goroutine are down.
func leakGuard(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		var after int
		for {
			after = runtime.NumGoroutine()
			if after <= before+3 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
	})
}

// soakPlans are the overlays the swapper cycles through: baseline,
// CANTV depeered (the conflict counterfactual — Venezuelan clients
// reroute or go dark), and the L replica withdrawn from Caracas.
func soakPlans() []*world.ScenarioPlan {
	return []*world.ScenarioPlan{
		nil,
		{
			Key:     "soak-depeer-cantv",
			Depeers: []world.ScenarioDepeer{{ASN: world.ASCANTV}},
		},
		{
			Key: "soak-drop-l-ccs",
			Roots: []world.ScenarioRootReplica{{
				Remove: true, Letter: 'L', Host: world.ASCANTV, City: mustCCS(),
			}},
		},
	}
}

// mustCCS looks up Caracas.
func mustCCS() geo.City {
	c, ok := geo.LookupIATA("CCS")
	if !ok {
		panic("CCS unknown")
	}
	return c
}

// TestDNSOverlaySwapSoak races live queries — both in-process Handle
// calls and real datagrams through the UDP server — against continuous
// SetScenario swaps. Run under -race this pins the plane's central
// concurrency claim: a query resolves entirely under one plan, swaps
// never corrupt the answer cache, and Close (called twice,
// concurrently) tears everything down without leaking a goroutine.
func TestDNSOverlaySwapSoak(t *testing.T) {
	leakGuard(t)
	w := testWorld(t)
	r := NewResolver(w, months.MustParse("2019-07"))
	gate := overload.NewGate(overload.GateOptions{MaxInFlight: 64})
	srv, err := Serve(ServerOptions{Addr: "127.0.0.1:0", Resolver: r, Gate: gate, Readers: 2})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}

	queries := [][]byte{
		withECS(mustQuery(t, 100, "hostname.bind.l", dnswire.TypeTXT, dnswire.ClassCH), probeECS(1)),
		withECS(mustQuery(t, 101, "l.root-servers.vz", dnswire.TypeA, dnswire.ClassIN), probeECS(1)),
		withECS(mustQuery(t, 102, "hostname.bind.f", dnswire.TypeTXT, dnswire.ClassCH), probeECS(1000)),
		mustQuery(t, 103, "id.server.k", dnswire.TypeTXT, dnswire.ClassCH),
	}

	var (
		stop    atomic.Bool
		answers atomic.Int64
		wg      sync.WaitGroup
	)

	// In-process hammerers: the zero-copy path.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]byte, 0, 4096)
			for i := 0; !stop.Load(); i++ {
				pkt := queries[(g+i)%len(queries)]
				out, info := r.Handle(pkt, dst)
				if out == nil {
					t.Errorf("soak: query dropped (rcode %d)", info.Rcode)
					return
				}
				switch uint16(info.Rcode) {
				case dnswire.RcodeOK, dnswire.RcodeServFail:
				default:
					t.Errorf("soak: unexpected rcode %d", info.Rcode)
					return
				}
				answers.Add(1)
			}
		}(g)
	}

	// Wire hammerers: real datagrams through the pooled server loop and
	// the admission gate (REFUSED is a legal outcome under load).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("udp", srv.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			buf := make([]byte, 4096)
			// abandoned counts, by ID, the queries this hammerer timed
			// out on: the server may still answer them, late.
			abandoned := map[uint16]int{}
			for i := 0; !stop.Load(); i++ {
				pkt := queries[(g+i)%len(queries)]
				want := uint16(pkt[0])<<8 | uint16(pkt[1])
				if _, err := conn.Write(pkt); err != nil {
					return
				}
				conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
				var msg *dnswire.Message
				for msg == nil {
					n, err := conn.Read(buf)
					if err != nil {
						break
					}
					m, err := dnswire.Decode(buf[:n])
					if err != nil {
						t.Errorf("soak wire: undecodable reply: %v", err)
						return
					}
					switch {
					case m.ID == want:
						msg = m
					case abandoned[m.ID] > 0:
						abandoned[m.ID]-- // a late reply: read on until the deadline
					default:
						t.Errorf("soak wire: reply ID %d for query ID %d, and no query with that ID was given up on", m.ID, want)
						return
					}
				}
				if msg == nil {
					abandoned[want]++
					continue // lost datagram: a timeout, as on a real network
				}
				switch msg.Rcode() {
				case dnswire.RcodeOK, dnswire.RcodeServFail, dnswire.RcodeRef:
				default:
					t.Errorf("soak wire: unexpected rcode %d", msg.Rcode())
					return
				}
				answers.Add(1)
			}
		}(g)
	}

	// The swapper: flip overlays as fast as the lock allows.
	plans := soakPlans()
	deadline := time.Now().Add(1 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		r.SetScenario(plans[i%len(plans)])
		if i%16 == 0 {
			time.Sleep(time.Millisecond) // let cache fills win sometimes
		}
	}
	r.SetScenario(nil)
	stop.Store(true)
	wg.Wait()

	// Concurrent double-close must be safe and idempotent.
	var cwg sync.WaitGroup
	for i := 0; i < 3; i++ {
		cwg.Add(1)
		go func() { defer cwg.Done(); srv.Close() }()
	}
	cwg.Wait()
	// The first close's result is sticky; later calls must repeat it,
	// not report double-close noise.
	if err := srv.Close(); err != nil {
		t.Errorf("Close after close: %v", err)
	}

	if n := answers.Load(); n < 1000 {
		t.Errorf("soak answered only %d queries — racing barely happened", n)
	} else {
		t.Logf("soak: %d answers across %d overlay flavors", n, len(plans))
	}
}

// TestServeQueuesBurstWhileReadersStall holds every reader off the
// socket (the test takes the answer cache's lock, so each reader parks
// in its first lookup) while a burst far larger than Linux's default
// receive buffer arrives, then lets them go: every query must still be
// answered. The kernel drops what overflows the socket's buffer, and it
// caps Serve's request at net.core.rmem_max, hence the skip.
func TestServeQueuesBurstWhileReadersStall(t *testing.T) {
	raw, err := os.ReadFile("/proc/sys/net/core/rmem_max")
	if err != nil {
		t.Skip("no net.core.rmem_max to read")
	}
	if max, err := strconv.Atoi(strings.TrimSpace(string(raw))); err != nil || max < recvBuffer {
		t.Skipf("net.core.rmem_max %q caps the receive buffer below %d bytes", strings.TrimSpace(string(raw)), recvBuffer)
	}
	leakGuard(t)
	r := NewResolver(testWorld(t), months.MustParse("2023-01"))
	srv, err := Serve(ServerOptions{Addr: "127.0.0.1:0", Resolver: r, Readers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialUDP("udp", nil, srv.Addr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The replies come back as fast as two readers answer; the client
	// must not be the socket that overflows.
	if err := conn.SetReadBuffer(recvBuffer); err != nil {
		t.Fatal(err)
	}

	const burst = 3000
	var answered atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for answered.Load() < burst {
			if _, err := conn.Read(buf); err != nil {
				return
			}
			answered.Add(1)
		}
	}()

	pkt := mustQuery(t, 0, dnswire.HostnameBind+".l", dnswire.TypeTXT, dnswire.ClassCH)
	r.mu.Lock()
	for i := 0; i < burst; i++ {
		binary.BigEndian.PutUint16(pkt, uint16(i))
		if _, err := conn.Write(pkt); err != nil {
			r.mu.Unlock()
			t.Fatalf("send %d: %v", i, err)
		}
	}
	r.mu.Unlock()

	select {
	case <-done:
	case <-time.After(10 * time.Second):
	}
	if n := answered.Load(); n != burst {
		t.Errorf("%d of %d queries answered after the readers stalled", n, burst)
	}
}
