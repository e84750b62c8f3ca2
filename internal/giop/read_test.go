package giop

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"maqs/internal/cdr"
)

// allocDelta returns the bytes f allocates.
func allocDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileClaim is a frame header claiming a 60 MiB body (within
// MaxMessageSize, so the header itself is valid) followed by 3 body octets
// and the end of the stream.
func hostileClaim(t MsgType, more bool) []byte {
	frame := make([]byte, HeaderSize, HeaderSize+3)
	putHeader(frame, t, cdr.BigEndian, 60<<20, more)
	return append(frame, 1, 2, 3)
}

// TestHostileSizeClaimBounded feeds every reader a header that claims
// 60 MiB and delivers 3 octets: the body may grow only as octets arrive,
// so each read must fail having allocated far less than the claim — in the
// first frame and in a continuation fragment alike.
func TestHostileSizeClaimBounded(t *testing.T) {
	var continuation bytes.Buffer
	if err := writeFrame(&continuation, MsgRequest, cdr.BigEndian, []byte("head"), true); err != nil {
		t.Fatal(err)
	}
	continuation.Write(hostileClaim(MsgFragment, false))

	readers := []struct {
		name string
		read func(io.Reader) error
	}{
		{"FrameReader/reuse", func(r io.Reader) error {
			fr := NewFrameReader(r)
			fr.ReuseBody(true)
			_, err := fr.ReadMessage()
			return err
		}},
		{"ReadMessage", func(r io.Reader) error { _, err := ReadMessage(r); return err }},
		{"ReadMessageReassembled", func(r io.Reader) error { _, err := ReadMessageReassembled(r); return err }},
	}
	streams := []struct {
		name   string
		stream []byte
	}{
		{"first-frame", hostileClaim(MsgRequest, false)},
		{"continuation", continuation.Bytes()},
	}
	for _, rd := range readers {
		for _, st := range streams {
			t.Run(rd.name+"/"+st.name, func(t *testing.T) {
				var err error
				n := allocDelta(func() { err = rd.read(bytes.NewReader(st.stream)) })
				if err == nil {
					t.Fatal("truncated 60 MiB claim accepted")
				}
				if n >= 1<<20 {
					t.Fatalf("allocated %d bytes for a 60 MiB claim backed by 3 octets; want < 1 MiB", n)
				}
			})
		}
	}
}

// TestTruncatedBodyUnexpectedEOF: a stream that ends inside a body — even
// before its first octet — reports io.ErrUnexpectedEOF, not a clean EOF.
func TestTruncatedBodyUnexpectedEOF(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, MsgReply, cdr.BigEndian, []byte("body")); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{HeaderSize, HeaderSize + 2} {
		_, err := ReadMessage(bytes.NewReader(buf.Bytes()[:cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// chunkReader hands out its stream a few octets per Read, the sizes drawn
// from a seeded generator between 1 and max — the way a socket delivers a
// stream in arbitrary pieces.
type chunkReader struct {
	data  []byte
	state uint32
	max   int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	c.state = c.state*1664525 + 1013904223
	n := min(1+int(c.state>>16)%c.max, len(p), len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// framesFrom encodes data as a stream of valid messages: each message's
// body length is taken from the next octet, and bodies longer than
// maxFragment (when > 0) are split into fragments.
func framesFrom(data []byte, maxFragment int) []byte {
	var buf bytes.Buffer
	for len(data) > 0 {
		n := min(int(data[0]), len(data)-1)
		body := data[1 : 1+n]
		data = data[1+n:]
		order := cdr.ByteOrder(n & 1)
		if err := WriteMessageFragmented(&buf, MsgType(n%7), order, body, maxFragment); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// sameMessages reads stream to its end through a reusing FrameReader fed
// in chunks and through unbuffered ReadMessageReassembled, and fails
// unless both yield the same messages and fail at the same point.
func sameMessages(t *testing.T, stream []byte, chunkSeed uint32, chunkMax int) {
	t.Helper()
	fr := NewFrameReader(&chunkReader{data: stream, state: chunkSeed, max: chunkMax})
	fr.ReuseBody(true)
	plain := bytes.NewReader(stream)
	for i := 0; ; i++ {
		got, gerr := fr.ReadMessage()
		want, werr := ReadMessageReassembled(plain)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("message %d: FrameReader err = %v, ReadMessageReassembled err = %v", i, gerr, werr)
		}
		if werr != nil {
			return
		}
		if got.Type != want.Type || got.Order != want.Order || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("message %d: FrameReader read %v/%v %q, ReadMessageReassembled %v/%v %q",
				i, got.Type, got.Order, got.Body, want.Type, want.Order, want.Body)
		}
	}
}

// FuzzFrameReader checks the buffered reader against the unbuffered one.
// Arbitrary input must never panic any reader, and both readers must agree
// on it message by message. A stream of valid, possibly fragmented frames
// built from the input must decode, through a reader that returns 1..n
// octets per Read, to exactly the messages ReadMessageReassembled sees.
// The seed corpus is in testdata/fuzz/FuzzFrameReader.
func FuzzFrameReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8, maxFragment uint16) {
		chunkMax := 1 + int(chunk)
		for r := bytes.NewReader(data); ; {
			if _, err := ReadMessage(r); err != nil {
				break
			}
		}
		sameMessages(t, data, uint32(chunk), chunkMax)

		stream := framesFrom(data, int(maxFragment%128))
		sameMessages(t, stream, uint32(maxFragment), chunkMax)
		fr := NewFrameReader(&chunkReader{data: stream, state: uint32(chunk), max: chunkMax})
		fr.ReuseBody(true)
		for rest := data; len(rest) > 0; {
			n := min(int(rest[0]), len(rest)-1)
			msg, err := fr.ReadMessage()
			if err != nil {
				t.Fatalf("valid stream rejected: %v", err)
			}
			if msg.Type != MsgType(n%7) || msg.Order != cdr.ByteOrder(n&1) || !bytes.Equal(msg.Body, rest[1:1+n]) {
				t.Fatalf("decoded %v/%v %q, want %v/%v %q", msg.Type, msg.Order, msg.Body, MsgType(n%7), cdr.ByteOrder(n&1), rest[1:1+n])
			}
			rest = rest[1+n:]
		}
		if _, err := fr.ReadMessage(); err != io.EOF {
			t.Fatalf("after the last message: err = %v, want io.EOF", err)
		}
	})
}

// countingReader counts the Read calls that reach the stream under a
// frame reader. It replays frames cyclically and delivers at most burst
// octets per Read, as a socket hands over what one window of pipelined
// frames put in its receive queue.
type countingReader struct {
	frames []byte
	off    int
	burst  int
	reads  int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	if c.off == len(c.frames) {
		c.off = 0
	}
	n := copy(p[:min(len(p), c.burst)], c.frames[c.off:])
	c.off += n
	return n, nil
}

// BenchmarkFrameReader reads pipelined echo-sized requests (a window of 64
// per burst) and reports the Read calls that reach the stream per frame:
// two for the unbuffered ReadMessage (header, then body), a fraction of
// one for the connection read loops' buffered FrameReader.
func BenchmarkFrameReader(b *testing.B) {
	e := cdr.NewEncoder(cdr.BigEndian)
	(&RequestHeader{RequestID: 1, ResponseExpected: true, ObjectKey: []byte("echo-1"), Operation: "echo"}).Marshal(e)
	e.WriteOctets(make([]byte, 64))
	var frames bytes.Buffer
	for i := 0; i < 64; i++ {
		if err := WriteMessage(&frames, MsgRequest, cdr.BigEndian, e.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("ReadMessage", func(b *testing.B) {
		src := &countingReader{frames: frames.Bytes(), burst: frames.Len()}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ReadMessage(src); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(src.reads)/float64(b.N), "reads/frame")
	})
	b.Run("FrameReader", func(b *testing.B) {
		src := &countingReader{frames: frames.Bytes(), burst: frames.Len()}
		fr := NewFrameReader(src)
		fr.ReuseBody(true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fr.ReadMessage(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(src.reads)/float64(b.N), "reads/frame")
	})
}
