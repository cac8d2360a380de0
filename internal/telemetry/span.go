package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute. Attributes are strings on purpose: spans are
// for explaining where time went, not for carrying payloads.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// SpanRecord is a finished span as exported to JSON.
type SpanRecord struct {
	// ID and Parent link the span tree; Parent is 0 for roots.
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Name identifies the operation (experiment, scenario, episode, run,
	// worker-batch, ...).
	Name string `json:"name"`
	// Start is the span's start time from the tracer's clock.
	Start time.Time `json:"start"`
	// DurationSeconds is the span's measured length.
	DurationSeconds float64 `json:"duration_seconds"`
	// Attrs carries the span's attributes, if any.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Tracer collects finished spans for one traced operation (a CLI run, an
// HTTP request). It is safe for concurrent use; the engine's workers all
// end spans into the same tracer.
type Tracer struct {
	clock  Clock
	nextID atomic.Uint64

	mu       sync.Mutex
	finished []SpanRecord
}

// NewTracer creates a tracer. A nil clock uses SystemClock.
func NewTracer(clock Clock) *Tracer {
	if clock == nil {
		clock = SystemClock
	}
	return &Tracer{clock: clock}
}

// Spans returns the finished spans sorted by start order (span ID).
func (t *Tracer) Spans() []SpanRecord {
	t.mu.Lock()
	out := make([]SpanRecord, len(t.finished))
	copy(out, t.finished)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WriteJSON exports the finished spans as a single JSON document:
// {"spans": [...]}.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string][]SpanRecord{"spans": t.Spans()})
}

// Span is one in-flight timed operation. A nil *Span (telemetry disabled)
// is valid: all methods are no-ops.
type Span struct {
	tracer *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs map[string]string
	ended bool
}

// StartSpan begins a span under the context's tracer, parented to the
// context's current span. It returns a derived context carrying the new
// span, so nested StartSpan calls build a tree. Without a tracer in ctx it
// returns (ctx, nil) and allocates nothing.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	t := TracerFromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	var parent uint64
	if ps, _ := ctx.Value(spanKey).(*Span); ps != nil {
		parent = ps.id
	}
	sp := &Span{
		tracer: t,
		id:     t.nextID.Add(1),
		parent: parent,
		name:   name,
		start:  t.clock.Now(),
	}
	for _, a := range attrs {
		sp.SetAttr(a.Key, a.Value)
	}
	return context.WithValue(ctx, spanKey, sp), sp
}

// SetAttr sets an attribute on the span. No-op on a nil span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// End finishes the span, recording it into its tracer and folding its
// duration into the process-wide span summary (exposed via Prometheus).
// End is idempotent and a no-op on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	d := s.tracer.clock.Now().Sub(s.start)
	rec := SpanRecord{
		ID:              s.id,
		Parent:          s.parent,
		Name:            s.name,
		Start:           s.start,
		DurationSeconds: d.Seconds(),
		Attrs:           attrs,
	}
	s.tracer.mu.Lock()
	s.tracer.finished = append(s.tracer.finished, rec)
	s.tracer.mu.Unlock()
	observeSpan(s.name, d)
}
