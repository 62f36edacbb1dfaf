package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side of
// the call. Parent is the span that caused it (0 = a root).
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// spanHeader carries the calling span's id across an HTTP hop, so a
// handler's span names the client span that caused it.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

// Tracer keeps spans in memory while enabled; they are written out once the
// run ends. A disabled tracer records nothing and costs one atomic load per
// call, which is how the traced run's untraced phase is measured.
type Tracer struct {
	on    atomic.Bool
	next  atomic.Uint64
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Enabled reports whether spans are being recorded. A nil tracer never
// records.
func (t *Tracer) Enabled() bool { return t != nil && t.on.Load() }

// SetEnabled starts or stops recording.
func (t *Tracer) SetEnabled(v bool) { t.on.Store(v) }

// begin opens a span under parent and returns its id and start offset.
func (t *Tracer) begin() (uint64, int64) {
	return t.next.Add(1), int64(time.Since(t.epoch))
}

// end closes a span opened by begin.
func (t *Tracer) end(id, parent uint64, name string, start int64) {
	s := Span{ID: id, Parent: parent, Name: name, Start: start, End: int64(time.Since(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Do runs fn inside a span named name whose parent is the span in ctx; fn
// receives a context carrying the new span.
func (t *Tracer) Do(ctx context.Context, name string, fn func(context.Context)) {
	if !t.Enabled() {
		fn(ctx)
		return
	}
	parent, _ := ctx.Value(spanKey{}).(uint64)
	id, start := t.begin()
	fn(context.WithValue(ctx, spanKey{}, id))
	t.end(id, parent, name, start)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Handler wraps an HTTP handler in a span per request. name picks the span
// name from the request; the parent comes from the caller's span header, or
// from the request context when the handler is called in process.
func (t *Tracer) Handler(h http.Handler, name func(*http.Request) string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.Enabled() {
			h.ServeHTTP(w, r)
			return
		}
		parent, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			// Called in process: the caller's span rides the context.
			parent, _ = r.Context().Value(spanKey{}).(uint64)
		}
		id, start := t.begin()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.end(id, parent, name(r), start)
	})
}

// Transport wraps an HTTP round tripper in a span per call, named by name.
// The span's parent is the span in the request's context; the call carries
// its own id in the span header. A call with a body ends when the body is
// closed or read to the end, since streamed responses are decoded while
// they arrive.
func (t *Tracer) Transport(base http.RoundTripper, name func(*http.Request) string) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if !t.Enabled() {
			return base.RoundTrip(req)
		}
		parent, _ := req.Context().Value(spanKey{}).(uint64)
		id, start := t.begin()
		out := req.Clone(req.Context())
		out.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		resp, err := base.RoundTrip(out)
		n := name(req)
		if err != nil || resp.Body == nil || resp.Body == http.NoBody {
			t.end(id, parent, n, start)
			return resp, err
		}
		resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.end(id, parent, n, start) }}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// spanBody closes its span once, at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// selfTimes returns, for every span named name, its duration minus the part
// of it that its child spans cover (ms).
func selfTimes(spans []Span, name string) []float64 {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		out = append(out, s.ms()-covered(s, children[s.ID]))
	}
	return out
}

// covered is the length (ms) of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curLo, curHi int64
	open := false
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if open && lo <= curHi {
			curHi = max(curHi, hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = lo, hi, true
	}
	if open {
		total += curHi - curLo
	}
	return float64(total) / 1e6
}

// durations returns the durations (ms) of the spans whose name matches.
func durations(spans []Span, match func(string) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if match(s.Name) {
			out = append(out, s.ms())
		}
	}
	return out
}

func named(name string) func(string) bool { return func(n string) bool { return n == name } }

func prefixed(p string) func(string) bool {
	return func(n string) bool { return strings.HasPrefix(n, p) }
}
