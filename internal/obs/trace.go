package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"
	"time"
)

// TraceID identifies one request across every layer it touches.
type TraceID uint64

// String renders the ID as 16 hex digits, the form logged and returned
// in the X-Trace-Id response header.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// Tracer mints trace IDs and writes finished spans as structured slog
// JSON lines. One Tracer is shared by every request; it is safe for
// concurrent use (slog handlers serialize their own writes).
type Tracer struct {
	log  *slog.Logger
	next atomic.Uint64
	seed uint64
}

// NewTracer returns a Tracer writing JSON lines to w.
func NewTracer(w io.Writer) *Tracer {
	return NewTracerLogger(slog.New(slog.NewJSONHandler(w, nil)))
}

// NewTracerLogger returns a Tracer emitting through an existing logger.
func NewTracerLogger(l *slog.Logger) *Tracer {
	return &Tracer{log: l, seed: uint64(time.Now().UnixNano())}
}

// newID mints a process-unique ID: a monotonic counter mixed through
// splitmix64 with a per-process seed, so IDs from concurrent processes
// don't collide in a merged log and successive IDs share no prefix.
func (t *Tracer) newID() uint64 {
	x := t.seed ^ t.next.Add(1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

type ctxKey int

const (
	ctxKeyTracer ctxKey = iota
	ctxKeySpan
)

// WithTracer returns a context carrying t; StartSpan on that context
// (and its descendants) emits through t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, ctxKeyTracer, t)
}

// TracerFrom extracts the context's Tracer, nil when tracing is off.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(ctxKeyTracer).(*Tracer)
	return t
}

// Span is one timed operation. Spans nest through the context: a span
// started from a context that already carries one becomes its child,
// inheriting the trace ID. A nil *Span is valid and inert, so code can
// instrument unconditionally and pay nothing when tracing is off.
type Span struct {
	t      *Tracer
	name   string
	trace  TraceID
	id     uint64
	parent uint64
	start  time.Time
	attrs  []slog.Attr
}

// StartSpan opens a span named name. When the context carries no
// Tracer it returns the context unchanged and a nil span. The returned
// context carries the new span; pass it down so children nest.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	s := &Span{t: t, name: name, id: t.newID(), start: time.Now()}
	if parent, ok := ctx.Value(ctxKeySpan).(*Span); ok && parent != nil {
		s.trace = parent.trace
		s.parent = parent.id
	} else {
		s.trace = TraceID(t.newID())
	}
	return context.WithValue(ctx, ctxKeySpan, s), s
}

// TraceID returns the span's trace ID (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return 0
	}
	return s.trace
}

// SetAttr attaches a key/value recorded when the span ends.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, slog.Any(key, value))
}

// End stamps the span's duration from its monotonic start time and
// emits one JSON line: msg="span", trace/span/parent IDs, name, and
// dur_us, plus any attributes. End is idempotent in effect only in the
// sense that a nil span no-ops; call it exactly once, normally deferred.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	attrs := make([]slog.Attr, 0, 5+len(s.attrs))
	attrs = append(attrs,
		slog.String("trace", s.trace.String()),
		slog.String("span", fmt.Sprintf("%016x", s.id)),
		slog.String("name", s.name),
		slog.Int64("dur_us", dur.Microseconds()),
	)
	if s.parent != 0 {
		attrs = append(attrs, slog.String("parent", fmt.Sprintf("%016x", s.parent)))
	}
	attrs = append(attrs, s.attrs...)
	s.t.log.LogAttrs(context.Background(), slog.LevelInfo, "span", attrs...)
}
