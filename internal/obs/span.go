package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"vhadoop/internal/sim"
)

// SpanKind classifies spans and events so exports and lint rules can
// treat them by type rather than by parsing message text.
type SpanKind string

// The span/event kinds the platform emits.
const (
	KindJob       SpanKind = "job"         // one MapReduce job
	KindPhase     SpanKind = "phase"       // map / shuffle / reduce within a job
	KindTask      SpanKind = "task"        // one task attempt
	KindHDFSWrite SpanKind = "hdfs-write"  // one pipelined block write
	KindRepair    SpanKind = "hdfs-repair" // HDFS recovery: re-replication, read failover
	KindMigration SpanKind = "migration"   // one VM live migration
	KindFault     SpanKind = "fault"       // one injected fault
	KindCluster   SpanKind = "cluster"     // cluster-level lifecycle events
)

// Attr is one span attribute. Attributes keep append order, which is
// deterministic because spans are only touched from sim context.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// spanInlineAttrs is the attribute capacity carried inside the Span
// itself: the platform's spans set at most four attributes on their hot
// paths (vm + outcome + seconds + one more), so the common case never
// heap-allocates an attribute slice.
const spanInlineAttrs = 4

// spanChunk is the arena block size: spans are handed out from blocks
// of this many, so a run with thousands of task attempts pays one
// allocation per block instead of one per span.
const spanChunk = 64

// Span is one timed interval in the trace. IDs are sequential in
// creation order, so a fixed seed reproduces identical span tables.
type Span struct {
	ID     int      `json:"id"`
	Parent int      `json:"parent"` // 0 = root (IDs start at 1)
	Kind   SpanKind `json:"kind"`
	Name   string   `json:"name"`
	Start  sim.Time `json:"start"`
	End    sim.Time `json:"end"`             // == Start while open; set by End()
	Attrs  []Attr   `json:"attrs,omitempty"` // a live span's float value reads "" until exported

	tracer *Tracer
	open   bool
	// numAt is 1 + the index of the attribute whose value is num, stored
	// by SetFloat and not rendered yet (0: none). renderAttrs renders it
	// at export.
	numAt  uint8
	num    float64
	inline [spanInlineAttrs]Attr
}

// Event is one instantaneous annotation, attributed to a span (or 0 for
// a top-level event).
type Event struct {
	T    sim.Time `json:"t"`
	Kind SpanKind `json:"kind"`
	Span int      `json:"span"`
	Msg  string   `json:"msg"`
}

// event is the recorded form of one Event: Eventf captures format and
// args, and the message is rendered at export time, in emission order.
// Args must therefore format stably (strings, numbers, errors, value
// structs — which is all the platform passes); a pointer mutated
// between emission and export would render its later state.
type event struct {
	t      sim.Time
	kind   SpanKind
	span   int
	msg    string // rendered form; authoritative once format == ""
	format string // non-empty until the first export renders it
	args   []any
}

// render materialises the message, memoising the result (tracers are
// sim-context single-threaded).
func (ev *event) render() string {
	if ev.format != "" {
		ev.msg = fmt.Sprintf(ev.format, ev.args...)
		ev.format = ""
		ev.args = nil
	}
	return ev.msg
}

// Tracer records spans and events for one platform. It is the
// platform's only trace: every event is stored once, in emission order,
// and rendered at export.
type Tracer struct {
	engine *sim.Engine
	nextID int
	spans  []*Span
	events []event

	chunk []Span // arena tail: spans are carved off here
}

// newTracer binds a tracer to the engine clock.
func newTracer(e *sim.Engine) *Tracer {
	return &Tracer{engine: e}
}

// alloc hands out a zeroed span from the arena.
func (tr *Tracer) alloc() *Span {
	if len(tr.chunk) == 0 {
		tr.chunk = make([]Span, spanChunk)
	}
	s := &tr.chunk[0]
	tr.chunk = tr.chunk[1:]
	return s
}

// Start opens a span of the given kind under parent (nil for a root
// span). Nil-safe: a nil tracer returns a nil span, whose methods are
// all no-ops.
func (tr *Tracer) Start(kind SpanKind, name string, parent *Span) *Span {
	if tr == nil {
		return nil
	}
	s := tr.alloc()
	tr.nextID++
	s.ID = tr.nextID
	s.Kind = kind
	s.Name = name
	s.Start = tr.engine.Now()
	s.End = s.Start
	s.tracer = tr
	s.open = true
	if parent != nil {
		s.Parent = parent.ID
	}
	tr.spans = append(tr.spans, s)
	return s
}

// Eventf records a top-level typed event.
func (tr *Tracer) Eventf(kind SpanKind, format string, args ...any) {
	if tr == nil {
		return
	}
	tr.record(kind, 0, format, args)
}

// record appends one event; it is the only way into the event log.
func (tr *Tracer) record(kind SpanKind, spanID int, format string, args []any) {
	tr.events = append(tr.events, event{t: tr.engine.Now(), kind: kind, span: spanID, format: format, args: args})
}

// Finish closes the span at the current virtual time. Finishing twice
// keeps the first end time.
func (s *Span) Finish() {
	if s == nil || !s.open {
		return
	}
	s.open = false
	s.End = s.tracer.engine.Now()
}

// SetAttr attaches a string attribute (replacing an earlier value for
// the same key, so retried paths don't grow duplicate attrs). The first
// few attributes live inline in the span; only unusually decorated
// spans spill to the heap.
func (s *Span) SetAttr(key, value string) *Span {
	if s == nil {
		return s
	}
	i := s.attr(key)
	s.Attrs[i].Value = value
	if int(s.numAt) == i+1 {
		s.numAt = 0
	}
	return s
}

// SetFloat attaches a numeric attribute. The value is stored and rendered
// with the export float format (formatFloat) only when the trace is
// exported, so traces stay byte-stable and a run that never exports them
// formats nothing. One float per span waits unrendered, which covers every
// span a hot path decorates; a second float key renders at once.
func (s *Span) SetFloat(key string, v float64) *Span {
	if s == nil {
		return s
	}
	i := s.attr(key)
	if i < math.MaxUint8 && (s.numAt == 0 || int(s.numAt) == i+1) {
		s.num, s.numAt = v, uint8(i+1)
		s.Attrs[i].Value = ""
	} else {
		s.Attrs[i].Value = formatFloat(v)
	}
	return s
}

// attr returns the index of key's attribute, appending one with an empty
// value if the span has none.
func (s *Span) attr(key string) int {
	for i := range s.Attrs {
		if s.Attrs[i].Key == key {
			return i
		}
	}
	if s.Attrs == nil {
		s.Attrs = s.inline[:0]
	}
	s.Attrs = append(s.Attrs, Attr{Key: key})
	return len(s.Attrs) - 1
}

// renderAttrs renders the float SetFloat left pending, memoising it as
// events' render does, and returns the attributes.
func (s *Span) renderAttrs() []Attr {
	if s.numAt != 0 {
		s.Attrs[s.numAt-1].Value = formatFloat(s.num)
		s.numAt = 0
	}
	return s.Attrs
}

// Eventf records a formatted event attributed to this span.
func (s *Span) Eventf(format string, args ...any) {
	if s == nil || s.tracer == nil {
		return
	}
	s.tracer.record(s.Kind, s.ID, format, args)
}

// Trace is the exported form of a tracer: spans in creation order,
// events in emission order.
type Trace struct {
	Spans  []Span  `json:"spans"`
	Events []Event `json:"events"`
}

// Export returns the current trace as a value (open spans export with
// End == the current clock). Events and span floats render here, events
// in emission order.
// Every span's attribute copy is carved from one backing slice; spans
// without attributes keep Attrs nil, as a decoded trace does.
func (tr *Tracer) Export() Trace {
	if tr == nil {
		return Trace{}
	}
	t := Trace{Spans: make([]Span, 0, len(tr.spans)), Events: make([]Event, 0, len(tr.events))}
	for i := range tr.events {
		ev := &tr.events[i]
		t.Events = append(t.Events, Event{T: ev.t, Kind: ev.kind, Span: ev.span, Msg: ev.render()})
	}
	n := 0
	for _, s := range tr.spans {
		n += len(s.renderAttrs())
	}
	attrs := make([]Attr, n)
	for _, s := range tr.spans {
		// Rebuild the exported value field by field: a whole-struct copy
		// would drag the unexported bookkeeping (open flag, inline attr
		// backing) along and break DeepEqual against decoded traces.
		cp := Span{
			ID:     s.ID,
			Parent: s.Parent,
			Kind:   s.Kind,
			Name:   s.Name,
			Start:  s.Start,
			End:    s.End,
		}
		if k := len(s.Attrs); k > 0 {
			cp.Attrs = attrs[:k:k]
			copy(cp.Attrs, s.Attrs)
			attrs = attrs[k:]
		}
		if s.open {
			cp.End = tr.engine.Now()
		}
		t.Spans = append(t.Spans, cp)
	}
	return t
}

// JSON renders the trace as indented, diffable JSON; spans and events
// are already in deterministic order. The document is byte-identical to
// json.MarshalIndent(tr.Export(), "", "  "), but it is written straight
// from the tracer into one buffer sized by jsonSize: no Export copy, no
// reflection, no second indentation pass. NaN and ±Inf times panic, as
// encoding/json refuses them.
func (tr *Tracer) JSON() string {
	if tr == nil {
		return "{\n  \"spans\": null,\n  \"events\": null\n}"
	}
	var b strings.Builder
	b.Grow(tr.jsonSize())
	now := tr.engine.Now()
	b.WriteString("{\n  \"spans\": [")
	for i, s := range tr.spans {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n    {\n      \"id\": ")
		writeJSONInt(&b, s.ID)
		b.WriteString(",\n      \"parent\": ")
		writeJSONInt(&b, s.Parent)
		b.WriteString(",\n      \"kind\": ")
		writeJSONString(&b, string(s.Kind))
		b.WriteString(",\n      \"name\": ")
		writeJSONString(&b, s.Name)
		b.WriteString(",\n      \"start\": ")
		writeJSONFloat(&b, s.Start)
		b.WriteString(",\n      \"end\": ")
		if s.open {
			writeJSONFloat(&b, now)
		} else {
			writeJSONFloat(&b, s.End)
		}
		if attrs := s.renderAttrs(); len(attrs) > 0 {
			b.WriteString(",\n      \"attrs\": [")
			for j, a := range attrs {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString("\n        {\n          \"key\": ")
				writeJSONString(&b, a.Key)
				b.WriteString(",\n          \"value\": ")
				writeJSONString(&b, a.Value)
				b.WriteString("\n        }")
			}
			b.WriteString("\n      ]")
		}
		b.WriteString("\n    }")
	}
	if len(tr.spans) > 0 {
		b.WriteString("\n  ")
	}
	b.WriteString("],\n  \"events\": [")
	for i := range tr.events {
		ev := &tr.events[i]
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n    {\n      \"t\": ")
		writeJSONFloat(&b, ev.t)
		b.WriteString(",\n      \"kind\": ")
		writeJSONString(&b, string(ev.kind))
		b.WriteString(",\n      \"span\": ")
		writeJSONInt(&b, ev.span)
		b.WriteString(",\n      \"msg\": ")
		writeJSONString(&b, ev.render())
		b.WriteString("\n    }")
	}
	if len(tr.events) > 0 {
		b.WriteString("\n  ")
	}
	b.WriteString("]\n}")
	return b.String()
}

// Fixed bytes JSON writes around the values, counting a separating
// comma for every element: per span (keys, quotes, commas, braces,
// indentation), per span that has attributes, per attribute, per event,
// and once per document.
const (
	jsonSpanFixed  = 112
	jsonAttrsFixed = 26
	jsonAttrFixed  = 64
	jsonEventFixed = 76
	jsonDocFixed   = 39
	// jsonFloatMax is the longest float64 in encoding/json's format:
	// "-0.0000012345678901234567".
	jsonFloatMax = 25
)

// jsonSize renders any pending span floats and event messages, events in
// emission order, and bounds the length JSON writes when no string needs
// escaping: the fixed text, the widest ID (IDs are at most tr.nextID) and
// the widest float for every number, and the raw string lengths. A string
// that needs escaping only grows the buffer again.
func (tr *Tracer) jsonSize() int {
	idw := 1
	for v := tr.nextID; v >= 10; v /= 10 {
		idw++
	}
	n := jsonDocFixed
	for _, s := range tr.spans {
		n += jsonSpanFixed + 2*idw + 2*jsonFloatMax + len(s.Kind) + len(s.Name)
		attrs := s.renderAttrs()
		if len(attrs) > 0 {
			n += jsonAttrsFixed
		}
		for _, a := range attrs {
			n += jsonAttrFixed + len(a.Key) + len(a.Value)
		}
	}
	for i := range tr.events {
		ev := &tr.events[i]
		n += jsonEventFixed + jsonFloatMax + idw + len(ev.kind) + len(ev.render())
	}
	return n
}

// writeJSONInt writes v in decimal.
func writeJSONInt(b *strings.Builder, v int) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], int64(v), 10))
}

// writeJSONFloat writes f as encoding/json writes a float64: 'f'
// format, or 'e' below 1e-6 and from 1e21 up, with a two-digit negative
// exponent cut to one digit (e-07 → e-7).
func writeJSONFloat(b *strings.Builder, f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic("obs: trace JSON: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	var buf [jsonFloatMax]byte
	out := strconv.AppendFloat(buf[:0], f, format, -1, 64)
	if n := len(out); format == 'e' && n >= 4 && out[n-4] == 'e' && out[n-3] == '-' && out[n-2] == '0' {
		out[n-2] = out[n-1]
		out = out[:n-1]
	}
	b.Write(out)
}

// writeJSONString writes s quoted as encoding/json's HTML-escaping
// encoder does: \" and \\, the short escapes \b \f \n \r \t, \u00XX for
// other control bytes and for <, > and &, \ufffd for each invalid UTF-8
// byte, and \u2028/\u2029 for the JavaScript line separators.
func writeJSONString(b *strings.Builder, s string) {
	const hex = "0123456789abcdef"
	b.WriteByte('"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b.WriteString(s[start:i])
			switch c {
			case '"', '\\':
				b.WriteByte('\\')
				b.WriteByte(c)
			case '\b':
				b.WriteString(`\b`)
			case '\f':
				b.WriteString(`\f`)
			case '\n':
				b.WriteString(`\n`)
			case '\r':
				b.WriteString(`\r`)
			case '\t':
				b.WriteString(`\t`)
			default:
				b.WriteString(`\u00`)
				b.WriteByte(hex[c>>4])
				b.WriteByte(hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b.WriteString(s[start:i])
			b.WriteString(`\ufffd`)
		case r == '\u2028' || r == '\u2029':
			b.WriteString(s[start:i])
			b.WriteString(`\u202`)
			b.WriteByte(hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b.WriteString(s[start:])
	b.WriteByte('"')
}

// DecodeTrace parses a document produced by Tracer.JSON.
func DecodeTrace(data []byte) (Trace, error) {
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return Trace{}, fmt.Errorf("obs: decode trace: %w", err)
	}
	return t, nil
}
