package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names recorded by the benchmark's decorators. Every span is
// recorded from outside a layer: around a call into its public
// interface.
const (
	spanOp           uint8 = iota // one remote operation, as the caller sees it
	spanCDREncode                 // benchmark's own argument marshalling
	spanCDRDecode                 // benchmark's own result unmarshalling
	spanMediator                  // qos.Mediator Deliver
	spanMediatorHook              // qos.Mediator PreInvoke / PostInvoke
	spanMediatorNext              // the continuation a mediator hands on
	spanFlateClient               // flate transport.Module Send
	spanFlateNext                 // flate's continuation (plain IIOP)
	spanFlateServer               // flate's orb.IncomingFilter in / out
	spanSecureClient              // secure transport.Module Send
	spanSecureNext                // secure's continuation
	spanSecureServer              // secure's orb.IncomingFilter in / out
	spanSkeleton                  // qos.Impl Prolog / Epilog
	spanServant                   // application servant
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "cdr.encode", "cdr.decode", "mediator", "mediator.hook", "mediator.next",
	"flate.client", "flate.next", "flate.server", "secure.client", "secure.next",
	"secure.server", "skeleton", "servant",
}

// spanLayer maps each span name to the layer its self time is charged
// to. Continuations and the op itself belong to the broker: what is left
// of a round trip once every decorated layer is subtracted is cdr/giop/orb
// work, the loopback socket and waiting.
var spanLayer = [numSpanNames]string{
	"orb", "cdr", "cdr", "qos.mediator", "qos.mediator", "orb",
	"compression", "orb", "compression", "encryption", "orb",
	"encryption", "qos.skeleton", "servant",
}

// serverSide reports spans recorded on the server, linked to their client
// op through the id carried in the request payload.
func serverSide(name uint8) bool {
	return name == spanFlateServer || name == spanSecureServer || name == spanSkeleton || name == spanServant
}

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch (monotonic clock).
type span struct {
	op     uint64
	id     uint32
	parent uint32 // 0: root, or a server span whose parent is resolved later
	name   uint8
	start  int64
	end    int64
}

// recorder keeps spans in memory for the duration of a traced run. A nil
// *recorder records nothing, which is the untraced run.
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint32
	// resolve maps the link id a server-side decorator found in a request
	// payload to the client op it belongs to.
	resolve func(link uint64) uint64

	// limit is the highest op whose spans are kept, which bounds the
	// memory a long traced run takes.
	limit atomic.Uint64

	mu    sync.Mutex
	spans []span
}

// maxTracedOps bounds the ops one traced run keeps spans for.
const maxTracedOps = 100_000

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16), resolve: func(l uint64) uint64 { return l }}
	r.limit.Store(math.MaxUint64)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	if s.op > r.limit.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// reset drops the spans recorded so far (set-up and warm-up traffic).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// traceCtx rides the request context through client-side decorators.
type traceCtx struct {
	rec    *recorder
	op     uint64
	parent uint32
}

type traceKey struct{}

// withSpan returns ctx carrying (op, parent) for nested decorators.
func withSpan(ctx context.Context, rec *recorder, op uint64, parent uint32) context.Context {
	return context.WithValue(ctx, traceKey{}, &traceCtx{rec: rec, op: op, parent: parent})
}

// clientSpan is a started client-side span.
type clientSpan struct {
	tc    *traceCtx
	id    uint32
	name  uint8
	start int64
}

// startClient opens a span under the context's current span; ok is false
// when the context carries no trace (untraced traffic, set-up calls).
func startClient(ctx context.Context, name uint8) (context.Context, clientSpan, bool) {
	tc, _ := ctx.Value(traceKey{}).(*traceCtx)
	if tc == nil {
		return ctx, clientSpan{}, false
	}
	id := tc.rec.nextID.Add(1)
	cs := clientSpan{tc: tc, id: id, name: name, start: tc.rec.now()}
	return withSpan(ctx, tc.rec, tc.op, id), cs, true
}

func (cs clientSpan) end() {
	r := cs.tc.rec
	r.add(span{op: cs.tc.op, id: cs.id, parent: cs.tc.parent, name: cs.name, start: cs.start, end: r.now()})
}

// linkBytes is the size of the link id at the head of every benchmark
// payload (after the CDR octet-sequence length).
const linkBytes = 8

// linkOf extracts the link id from CDR-encoded octet-sequence arguments.
func linkOf(args []byte) (uint64, bool) {
	if len(args) < 4+linkBytes {
		return 0, false
	}
	return binary.BigEndian.Uint64(args[4 : 4+linkBytes]), true
}

// server records a server-side span found through the payload link id.
func (r *recorder) server(name uint8, args []byte, start, end int64) {
	link, ok := linkOf(args)
	if !ok {
		return
	}
	op := r.resolve(link)
	if op == 0 {
		return
	}
	r.add(span{op: op, id: r.nextID.Add(1), name: name, start: start, end: end})
}

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other and may stick out of the parent; only
// the union of their intervals clipped to the parent counts.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.end - parent.start - covered
}

// opTrace is the analysed span tree of one op.
type opTrace struct {
	root  span
	spans []span           // every span of the op, root included, parents resolved
	self  map[uint32]int64 // span id → self time
}

// analyse groups spans by op, resolves server spans to the deepest client
// span enclosing their start (the continuation that was waiting for the
// reply), and computes every span's self time. Ops without a root span
// (set-up traffic) are dropped.
func analyse(all []span) []opTrace {
	byOp := map[uint64][]span{}
	for _, s := range all {
		byOp[s.op] = append(byOp[s.op], s)
	}
	ops := make([]uint64, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })

	var out []opTrace
	for _, op := range ops {
		spans := byOp[op]
		var root *span
		for i := range spans {
			if spans[i].name == spanOp {
				root = &spans[i]
				break
			}
		}
		if root == nil {
			continue
		}
		depth := map[uint32]int{root.id: 0}
		parentOf := map[uint32]uint32{}
		for _, s := range spans {
			if s.id != root.id && !serverSide(s.name) {
				parentOf[s.id] = s.parent
			}
		}
		var depthOf func(id uint32) int
		depthOf = func(id uint32) int {
			if d, ok := depth[id]; ok {
				return d
			}
			depth[id] = -1 // cycle guard
			d := depthOf(parentOf[id]) + 1
			depth[id] = d
			return d
		}
		for i := range spans {
			s := &spans[i]
			if !serverSide(s.name) {
				continue
			}
			best, bestDepth := root.id, 0
			for _, c := range spans {
				if serverSide(c.name) || c.name == spanOp || c.start > s.start || c.end < s.start {
					continue
				}
				if d := depthOf(c.id); d > bestDepth {
					best, bestDepth = c.id, d
				}
			}
			s.parent = best
		}
		children := map[uint32][]span{}
		for _, s := range spans {
			if s.id != root.id {
				children[s.parent] = append(children[s.parent], s)
			}
		}
		t := opTrace{root: *root, spans: spans, self: make(map[uint32]int64, len(spans))}
		for _, s := range spans {
			t.self[s.id] = selfTime(s, children[s.id])
		}
		out = append(out, t)
	}
	return out
}

// writeSpans writes every span as one CSV line: op, id, parent, name,
// start_ns, end_ns.
func writeSpans(path string, traces []opTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,id,parent,name,start_ns,end_ns,self_ns")
	for _, t := range traces {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", s.op, s.id, s.parent, spanNames[s.name], s.start, s.end, t.self[s.id])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
