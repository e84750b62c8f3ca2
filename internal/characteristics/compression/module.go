package compression

import (
	"bytes"
	"compress/flate"
	"context"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/orb"
	"maqs/internal/qos/transport"
)

// Wire format of a flate-wrapped payload: one flag octet (0 = stored,
// 1 = deflate), the original length as ULong, then the body bytes.
const (
	frameStored  byte = 0
	frameDeflate byte = 1
)

// Stats counts the module's traffic for the bandwidth experiments.
type Stats struct {
	// RawBytes is the total payload size before compression.
	RawBytes uint64
	// WireBytes is the total payload size after compression.
	WireBytes uint64
	// Compressed and Stored count payloads per frame type.
	Compressed, Stored uint64
}

// Module is the "flate" transport module.
type Module struct {
	level   int
	minSize int

	// deflaters pools writers at level; inflaters pools readers. Each
	// call takes one and returns it on every exit path.
	deflaters sync.Pool // *deflater
	inflaters sync.Pool // *inflater

	mu    sync.Mutex
	stats Stats
}

var _ transport.Module = (*Module)(nil)

// NewModule constructs the module from a config with optional "level"
// (1..9, default 6) and "min_size" (bytes, default 128) keys. It is the
// transport factory for ModuleName.
func NewModule(_ *transport.Transport, config map[string]string) (transport.Module, error) {
	m := &Module{level: 6, minSize: 128}
	if v, ok := config["level"]; ok {
		level, err := strconv.Atoi(v)
		if err != nil || level < 1 || level > 9 {
			return nil, fmt.Errorf("compression: bad level %q", v)
		}
		m.level = level
	}
	if v, ok := config["min_size"]; ok {
		minSize, err := strconv.Atoi(v)
		if err != nil || minSize < 0 {
			return nil, fmt.Errorf("compression: bad min_size %q", v)
		}
		m.minSize = minSize
	}
	return m, nil
}

// Name implements transport.Module.
func (m *Module) Name() string { return ModuleName }

// Close implements transport.Module.
func (m *Module) Close() error { return nil }

// Stats snapshots the traffic counters.
func (m *Module) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

func (m *Module) account(raw, wire int, compressed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.RawBytes += uint64(raw)
	m.stats.WireBytes += uint64(wire)
	if compressed {
		m.stats.Compressed++
	} else {
		m.stats.Stored++
	}
}

// deflater is a pooled flate writer together with the scratch buffer it
// compresses into. The writer's output target is the deflater itself, so
// Reset never allocates.
type deflater struct {
	w   *flate.Writer
	buf []byte
}

func (d *deflater) Write(p []byte) (int, error) {
	d.buf = append(d.buf, p...)
	return len(p), nil
}

// inflater is a pooled flate reader, the bytes.Reader it reads from and
// the octet unwrap probes for trailing bytes with.
type inflater struct {
	r    io.ReadCloser // also a flate.Resetter
	src  bytes.Reader
	tail [1]byte
}

// maxScratch caps the compression scratch a pooled deflater keeps, so one
// bulk payload cannot pin its size under steady small-message load.
const maxScratch = 64 << 10

// maxRatio is deflate's maximum compression ratio: one 258-byte match
// coded in two bits. A frame claiming more cannot be a valid stream.
const maxRatio = 1032

// initialOut caps unwrap's up-front output allocation. Beyond it the
// output grows only as bytes actually decode.
const initialOut = 64 << 10

func (m *Module) getDeflater() (*deflater, error) {
	if d, ok := m.deflaters.Get().(*deflater); ok {
		d.w.Reset(d)
		return d, nil
	}
	d := new(deflater)
	w, err := flate.NewWriter(d, m.level)
	if err != nil {
		return nil, fmt.Errorf("compression: creating writer: %w", err)
	}
	d.w = w
	return d, nil
}

func (m *Module) putDeflater(d *deflater) {
	if cap(d.buf) > maxScratch {
		d.buf = nil
	}
	d.buf = d.buf[:0]
	m.deflaters.Put(d)
}

func (m *Module) getInflater(body []byte) *inflater {
	if f, ok := m.inflaters.Get().(*inflater); ok {
		f.src.Reset(body)
		// Reset on a flate reader cannot fail without a dictionary.
		_ = f.r.(flate.Resetter).Reset(&f.src, nil)
		return f
	}
	f := new(inflater)
	f.src.Reset(body)
	f.r = flate.NewReader(&f.src)
	return f
}

func (m *Module) putInflater(f *inflater) {
	f.src.Reset(nil) // drop the frame, keep the decoder state
	m.inflaters.Put(f)
}

// wrap frames (and possibly compresses) a payload. A deflate frame is
// byte-identical to one from a newly constructed writer at the same
// level: pooled writers are Reset, which restores that state.
func (m *Module) wrap(p []byte) ([]byte, error) {
	if len(p) >= m.minSize {
		d, err := m.getDeflater()
		if err != nil {
			return nil, err
		}
		defer m.putDeflater(d)
		d.buf = append(d.buf, frameDeflate, 0, 0, 0, 0)
		putULongBE(d.buf[1:5], uint32(len(p)))
		if _, err := d.w.Write(p); err != nil {
			return nil, fmt.Errorf("compression: compressing: %w", err)
		}
		if err := d.w.Close(); err != nil {
			return nil, fmt.Errorf("compression: flushing: %w", err)
		}
		// Incompressible payloads can grow; fall back to stored.
		if len(d.buf) < len(p)+5 {
			m.account(len(p), len(d.buf), true)
			return bytes.Clone(d.buf), nil
		}
	}
	out := make([]byte, 0, len(p)+5)
	out = append(out, frameStored, 0, 0, 0, 0)
	putULongBE(out[1:5], uint32(len(p)))
	out = append(out, p...)
	m.account(len(p), len(out), false)
	return out, nil
}

// unwrap reverses wrap.
func (m *Module) unwrap(p []byte) ([]byte, error) {
	if len(p) < 5 {
		return nil, fmt.Errorf("compression: frame too short (%d bytes)", len(p))
	}
	origLen := getULongBE(p[1:5])
	if origLen > 64<<20 {
		return nil, fmt.Errorf("compression: original length %d exceeds limit", origLen)
	}
	switch p[0] {
	case frameStored:
		if int(origLen) != len(p)-5 {
			return nil, fmt.Errorf("compression: stored frame length mismatch")
		}
		return p[5:], nil
	case frameDeflate:
		body := p[5:]
		if uint64(origLen) > maxRatio*uint64(len(body)) {
			return nil, fmt.Errorf("compression: original length %d exceeds deflate's ratio over %d bytes", origLen, len(body))
		}
		f := m.getInflater(body)
		defer m.putInflater(f)
		out, err := readExactly(f.r, int(origLen))
		if err != nil {
			return nil, fmt.Errorf("compression: decompressing: %w", err)
		}
		// Trailing garbage would mean a corrupted frame.
		if n, _ := f.r.Read(f.tail[:]); n != 0 {
			return nil, fmt.Errorf("compression: trailing bytes after deflate stream")
		}
		return out, nil
	default:
		return nil, fmt.Errorf("compression: unknown frame type %d", p[0])
	}
}

// readExactly reads n bytes from r. It allocates at most initialOut up
// front and grows the output only as bytes arrive, so a frame that lies
// about its length costs what it decodes, not what it claims.
func readExactly(r io.Reader, n int) ([]byte, error) {
	out := make([]byte, 0, min(n, initialOut))
	for len(out) < n {
		if len(out) == cap(out) {
			out = slices.Grow(out, min(cap(out), n-len(out)))
		}
		k, err := r.Read(out[len(out):min(cap(out), n)])
		out = out[:len(out)+k]
		if err == io.EOF && len(out) < n {
			return nil, io.ErrUnexpectedEOF
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
	}
	return out, nil
}

// Send implements transport.Module: compress the request payload, send,
// decompress the reply.
func (m *Module) Send(ctx context.Context, inv *orb.Invocation, next transport.Next) (*orb.Outcome, error) {
	wrapped := inv.Clone()
	args, err := m.wrap(inv.Args)
	if err != nil {
		return nil, err
	}
	wrapped.Args = args
	out, err := next(ctx, wrapped)
	if err != nil {
		return nil, err
	}
	if out.Status != giop.ReplyNoException {
		return out, nil // exceptions travel uncompressed
	}
	data, err := m.unwrap(out.Data)
	if err != nil {
		return nil, err
	}
	out.Data = data
	return out, nil
}

// ServerFilter implements transport.Module.
func (m *Module) ServerFilter() orb.IncomingFilter { return (*serverFilter)(m) }

type serverFilter Module

func (f *serverFilter) Inbound(req *orb.ServerRequest) error {
	args, err := (*Module)(f).unwrap(req.Args)
	if err != nil {
		return err
	}
	req.Args = args
	return nil
}

func (f *serverFilter) Outbound(req *orb.ServerRequest, status giop.ReplyStatus, body []byte) ([]byte, error) {
	if status != giop.ReplyNoException {
		return body, nil
	}
	return (*Module)(f).wrap(body)
}

// Dynamic implements transport.Module: the module-specific dynamic
// interface exposes its traffic statistics.
func (m *Module) Dynamic() *orb.DynamicServant {
	return &orb.DynamicServant{Ops: map[string]orb.DynamicOp{
		"stats": {
			Result: cdr.StructOf("FlateStats",
				cdr.Field{Name: "raw", Type: cdr.TCULongLong},
				cdr.Field{Name: "wire", Type: cdr.TCULongLong},
				cdr.Field{Name: "compressed", Type: cdr.TCULongLong},
				cdr.Field{Name: "stored", Type: cdr.TCULongLong},
			),
			Handler: func([]cdr.Any) (cdr.Any, error) {
				s := m.Stats()
				tc := cdr.StructOf("FlateStats",
					cdr.Field{Name: "raw", Type: cdr.TCULongLong},
					cdr.Field{Name: "wire", Type: cdr.TCULongLong},
					cdr.Field{Name: "compressed", Type: cdr.TCULongLong},
					cdr.Field{Name: "stored", Type: cdr.TCULongLong},
				)
				return cdr.NewAny(tc, map[string]cdr.Any{
					"raw":        cdr.NewAny(cdr.TCULongLong, s.RawBytes),
					"wire":       cdr.NewAny(cdr.TCULongLong, s.WireBytes),
					"compressed": cdr.NewAny(cdr.TCULongLong, s.Compressed),
					"stored":     cdr.NewAny(cdr.TCULongLong, s.Stored),
				}), nil
			},
		},
	}}
}

func putULongBE(p []byte, v uint32) {
	p[0] = byte(v >> 24)
	p[1] = byte(v >> 16)
	p[2] = byte(v >> 8)
	p[3] = byte(v)
}

func getULongBE(p []byte) uint32 {
	return uint32(p[0])<<24 | uint32(p[1])<<16 | uint32(p[2])<<8 | uint32(p[3])
}
