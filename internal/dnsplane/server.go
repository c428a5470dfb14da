package dnsplane

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"vzlens/internal/dnswire"
	"vzlens/internal/obs"
	"vzlens/internal/overload"
)

// readArea is the front half of a pooled packet buffer (the datagram
// lands here); the response builds into the back half, so one pool
// checkout covers a whole query/response cycle.
const (
	readArea = 2048
	bufSize  = readArea + int(dnswire.MaxUDPSize)
)

// recvBuffer is the socket receive buffer Serve asks for. Datagrams
// that arrive while no reader is running wait in this buffer, and the
// kernel drops whatever overflows it. Linux's default (rmem_default,
// 208 KB) holds ~270 small queries, ~100 ms at 2,500 qps, and reader
// stalls that long occur on a 2-CPU host whose cores a sweep keeps
// busy. The kernel caps the request at net.core.rmem_max.
const recvBuffer = 4 << 20

// bufPool shares packet buffers across reader goroutines and server
// instances.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, bufSize)
		return &b
	},
}

// ServerOptions configures Serve.
type ServerOptions struct {
	// Addr is the UDP listen address ("127.0.0.1:0", ":53", ...).
	Addr string
	// Resolver answers the queries. Required.
	Resolver *Resolver
	// Gate, when non-nil, applies admission control: every query takes
	// a slot via the alloc-free TryAcquire path, and queries that find
	// the gate full are answered REFUSED immediately — a datagram
	// protocol has no useful queueing semantics, so shedding beats a
	// wait the client's own timeout would eat anyway. CHAOS
	// identification queries (the monitoring plane) are PriorityHigh;
	// address lookups are PriorityLow and shed first.
	Gate *overload.Gate
	// Readers sets how many goroutines read and answer datagrams
	// (default 1; the socket is shared, kernel-load-balanced).
	Readers int
	// Tracer, when non-nil, emits one span per handled query.
	Tracer *obs.Tracer
}

// Server is the plane's UDP front end.
type Server struct {
	conn    *net.UDPConn
	res     *Resolver
	gate    *overload.Gate
	tracer  *obs.Tracer
	wg      sync.WaitGroup
	closeMu sync.Once
	closeEr error
}

// Serve binds opts.Addr and starts answering. It returns once the
// socket is listening; handling proceeds on background goroutines
// until Close.
func Serve(opts ServerOptions) (*Server, error) {
	if opts.Resolver == nil {
		return nil, errors.New("dnsplane: nil resolver")
	}
	pc, err := net.ListenPacket("udp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("dnsplane: listen: %w", err)
	}
	conn, ok := pc.(*net.UDPConn)
	if !ok {
		pc.Close()
		return nil, fmt.Errorf("dnsplane: %T is not a UDP socket", pc)
	}
	// Best effort: a socket that keeps the default buffer still serves.
	_ = conn.SetReadBuffer(recvBuffer)
	readers := opts.Readers
	if readers <= 0 {
		readers = 1
	}
	s := &Server{conn: conn, res: opts.Resolver, gate: opts.Gate, tracer: opts.Tracer}
	s.wg.Add(readers)
	for i := 0; i < readers; i++ {
		go s.loop()
	}
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.conn.LocalAddr() }

// Close stops the server and releases the socket. Safe for concurrent
// and repeated calls; every caller returns only after all reader
// goroutines have exited.
func (s *Server) Close() error {
	s.closeMu.Do(func() {
		s.closeEr = s.conn.Close()
	})
	s.wg.Wait()
	return s.closeEr
}

// loop reads, admits, resolves, and replies. The AddrPort read/write
// pair keeps the kernel round trip allocation-free; the pooled buffer
// holds both the datagram and the response.
func (s *Server) loop() {
	defer s.wg.Done()
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	buf := *bp
	for {
		n, peer, err := s.conn.ReadFromUDPAddrPort(buf[:readArea])
		if err != nil {
			return // closed
		}
		t0 := time.Now()
		reply := s.answer(buf[:n], buf[readArea:readArea])
		if reply != nil {
			// Best-effort send; a lost reply is a client timeout,
			// exactly as on the real network.
			_, _ = s.conn.WriteToUDPAddrPort(reply, peer)
		}
		s.res.met.latency.ObserveDuration(time.Since(t0))
	}
}

// answer runs one datagram through admission and the resolver.
func (s *Server) answer(pkt, dst []byte) []byte {
	var q dnswire.Query
	err := dnswire.ParseQuery(pkt, &q)
	switch err {
	case nil:
	case dnswire.ErrBadOPT, dnswire.ErrBadECS:
		q.HasOPT = false
		q.HasECS = false
		out, _ := s.res.fixedRcode(&q, pkt, dst, dnswire.RcodeFormErr)
		return out
	default:
		s.res.met.dropped.Inc()
		return nil
	}
	if s.gate != nil {
		// CHAOS identity queries are the monitoring plane — shed last;
		// address lookups are retryable service traffic — shed first.
		pri := overload.PriorityLow
		if q.Class == dnswire.ClassCH {
			pri = overload.PriorityHigh
		}
		if !s.gate.TryAcquire(pri) {
			out, _ := s.res.Refuse(&q, pkt, dst)
			return out
		}
		defer s.gate.Release()
	}
	if s.tracer == nil {
		out, _ := s.res.Answer(&q, pkt, dst)
		return out
	}
	ctx, span := obs.StartSpan(obs.WithTracer(context.Background(), s.tracer), "dns.query")
	_ = ctx
	out, info := s.res.Answer(&q, pkt, dst)
	span.SetAttr("qtype", int(q.Type))
	span.SetAttr("rcode", info.Rcode)
	span.SetAttr("source", info.Source.String())
	span.SetAttr("truncated", info.Truncated)
	span.End()
	return out
}
