// Package giop implements a GIOP-style message protocol: framed messages
// carrying CDR-encoded request and reply headers and bodies.
//
// The protocol mirrors the General Inter-ORB Protocol in structure — a
// fixed 12-octet header (magic, version, flags, message type, body size)
// followed by a CDR body — because the paper's QoS transport is defined by
// how it treats GIOP requests (service-request vs. command, QoS-aware vs.
// plain). Service contexts carry the QoS and command tags, exactly as the
// paper uses the CORBA request "in a dual fashion".
package giop

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sync"

	"maqs/internal/cdr"
)

// Protocol identification.
const (
	// Magic starts every message.
	Magic = "GIOP"
	// VersionMajor and VersionMinor identify the protocol revision.
	VersionMajor = 1
	VersionMinor = 0
	// HeaderSize is the fixed size of the message header in octets.
	HeaderSize = 12
	// MaxMessageSize bounds the body size accepted from a peer.
	MaxMessageSize = 64 << 20 // 64 MiB
)

// MsgType enumerates GIOP message types.
type MsgType uint8

// Message types.
const (
	MsgRequest MsgType = iota
	MsgReply
	MsgCancelRequest
	MsgLocateRequest
	MsgLocateReply
	MsgCloseConnection
	MsgMessageError
)

var msgTypeNames = [...]string{
	"Request", "Reply", "CancelRequest", "LocateRequest",
	"LocateReply", "CloseConnection", "MessageError",
}

// String returns the GIOP name of the message type.
func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// ReplyStatus enumerates the outcome field of a Reply message.
type ReplyStatus uint32

// Reply statuses.
const (
	ReplyNoException ReplyStatus = iota
	ReplyUserException
	ReplySystemException
	ReplyLocationForward
)

var replyStatusNames = [...]string{
	"NO_EXCEPTION", "USER_EXCEPTION", "SYSTEM_EXCEPTION", "LOCATION_FORWARD",
}

// String returns the GIOP name of the reply status.
func (s ReplyStatus) String() string {
	if int(s) < len(replyStatusNames) {
		return replyStatusNames[s]
	}
	return fmt.Sprintf("ReplyStatus(%d)", uint32(s))
}

// LocateStatus enumerates the outcome field of a LocateReply message.
type LocateStatus uint32

// Locate statuses.
const (
	LocateUnknownObject LocateStatus = iota
	LocateObjectHere
	LocateObjectForward
)

// Message is a decoded GIOP message: its type, byte order and raw body.
type Message struct {
	Type  MsgType
	Order cdr.ByteOrder
	Body  []byte
}

// Decoder returns a CDR decoder positioned at the start of the body.
// Alignment is measured from the start of the body, matching Encoder
// output (the 12-octet header is not part of the CDR stream).
func (m *Message) Decoder() *cdr.Decoder {
	return cdr.NewDecoder(m.Body, m.Order)
}

// putHeader renders the fixed 12-octet GIOP header into dst[:HeaderSize].
func putHeader(dst []byte, t MsgType, order cdr.ByteOrder, size int, more bool) {
	copy(dst, Magic)
	dst[4] = VersionMajor
	dst[5] = VersionMinor
	dst[6] = byte(order) & 1
	if more {
		dst[6] |= flagMoreFragments
	}
	dst[7] = byte(t)
	if order == cdr.LittleEndian {
		dst[8], dst[9], dst[10], dst[11] = byte(size), byte(size>>8), byte(size>>16), byte(size>>24)
	} else {
		dst[8], dst[9], dst[10], dst[11] = byte(size>>24), byte(size>>16), byte(size>>8), byte(size)
	}
}

// framePool recycles the scratch buffers WriteMessage and writeFrame use to
// coalesce header and body into a single Write. Buffers above the cap are
// dropped rather than pooled (see cdr's pooling rationale).
var framePool = sync.Pool{New: func() any {
	framePoolMisses.Add(1)
	b := make([]byte, 0, 4096)
	return &b
}}

const maxPooledFrame = 64 << 10

// WriteMessage frames body as a GIOP message of the given type and writes
// it to w as a single Write call: one syscall per message, and no torn
// frames if the underlying transport interleaves writers.
func WriteMessage(w io.Writer, t MsgType, order cdr.ByteOrder, body []byte) error {
	return writeFrame(w, t, order, body, false)
}

// AcquireFrameEncoder returns a pooled CDR encoder with the 12-octet GIOP
// header already reserved: marshal the message body into it as usual (CDR
// alignment starts at the body, exactly as with a plain encoder), then hand
// it to WriteFrame. Release the encoder after WriteFrame returns.
func AcquireFrameEncoder(order cdr.ByteOrder) *cdr.Encoder {
	e := cdr.AcquireEncoder(order)
	e.Skip(HeaderSize)
	return e
}

// WriteFrame finalises the message built in e (an encoder from
// AcquireFrameEncoder) and writes it to w. The common case patches the
// header into the reserved prefix and issues exactly one Write — no copy,
// no allocation. Bodies larger than maxFragment (when > 0) are split into
// fragment frames, each itself a single write. WriteFrame does not release
// e; the caller does.
func WriteFrame(w io.Writer, t MsgType, e *cdr.Encoder, maxFragment int) error {
	frame := e.Bytes()
	body := frame[HeaderSize:]
	if maxFragment > 0 && len(body) > maxFragment {
		return WriteMessageFragmented(w, t, e.Order(), body, maxFragment)
	}
	if len(body) > MaxMessageSize {
		return fmt.Errorf("giop: message body %d exceeds limit", len(body))
	}
	putHeader(frame, t, e.Order(), len(body), false)
	observeFrameSize(len(frame))
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("giop: writing message: %w", err)
	}
	return nil
}

// ReadMessage reads one framed message from r. It reads exactly the
// frame's octets and nothing past them, so consecutive calls on one stream
// see consecutive frames; a long-lived connection should use a FrameReader.
func ReadMessage(r io.Reader) (*Message, error) {
	var hdr [HeaderSize]byte
	t, order, more, size, err := readHeader(r, hdr[:])
	if err != nil {
		return nil, err
	}
	if more {
		return nil, fmt.Errorf("giop: unexpected fragmented message")
	}
	body, err := appendBody(r, nil, int(size))
	if err != nil {
		return nil, fmt.Errorf("giop: reading body: %w", err)
	}
	return &Message{Type: t, Order: order, Body: body}, nil
}

// ReadMessageReassembled reads one logical message, transparently
// reassembling fragmented frames. Non-fragmented streams behave exactly
// like ReadMessage; like it, it never reads past the message's last frame.
func ReadMessageReassembled(r io.Reader) (*Message, error) {
	var hdr [HeaderSize]byte
	return readReassembled(r, hdr[:])
}

// readReassembled implements ReadMessageReassembled over a caller-supplied
// header scratch buffer, into a freshly allocated body.
func readReassembled(r io.Reader, hdr []byte) (*Message, error) {
	t, order, body, err := readLogical(r, hdr, nil)
	if err != nil {
		return nil, err
	}
	return &Message{Type: t, Order: order, Body: body}, nil
}

// readBufferSize is the size of a FrameReader's read buffer. One Read on
// the stream fills it, and every header and body already inside is served
// from it without another call. Pipelined ~100-octet echo frames read as
// rarely at 4 KiB as at 16 KiB, but frames carrying 1–4 KiB module
// payloads took 0.88, 0.59 and 0.46 reads per call at 4, 8 and 16 KiB
// (docs/PERFORMANCE.md). Bodies larger than the buffer are read straight
// into the body slice.
const readBufferSize = 16 << 10

// FrameReader reads framed messages from one long-lived stream through a
// fixed read buffer, reusing its header scratch across reads. It must
// only be used from one goroutine at a time (the per-connection read
// loop), and it owns the stream: the buffer may hold octets of frames
// not yet returned, so nothing else may read from r.
type FrameReader struct {
	r     *bufio.Reader
	hdr   [HeaderSize]byte
	reuse bool
	body  []byte
	msg   Message
}

// maxRetainedBody caps the body scratch a reusing FrameReader keeps
// between reads; a single oversized message must not pin its buffer for
// the connection's lifetime.
const maxRetainedBody = 64 << 10

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, readBufferSize)}
}

// ReuseBody switches the reader into body-reuse mode: ReadMessage returns
// a *Message (and Body) that is only valid until the next ReadMessage
// call, in exchange for zero steady-state allocations per message. The
// per-connection read loops enable this and copy out whatever outlives
// the loop iteration; everything decoded from headers already copies.
func (fr *FrameReader) ReuseBody(on bool) { fr.reuse = on }

// ReadMessage reads one logical message, transparently reassembling
// fragmented frames. In ReuseBody mode the returned message aliases the
// reader's scratch buffer and is invalidated by the next call.
func (fr *FrameReader) ReadMessage() (*Message, error) {
	if !fr.reuse {
		return readReassembled(fr.r, fr.hdr[:])
	}
	if cap(fr.body) > maxRetainedBody {
		fr.body = nil
	}
	t, order, body, err := readLogical(fr.r, fr.hdr[:], fr.body[:0])
	if err != nil {
		return nil, err
	}
	fr.body = body
	fr.msg = Message{Type: t, Order: order, Body: body}
	return &fr.msg, nil
}

// readLogical reads one logical message — a frame and any continuation
// fragments — appending its body to body and returning the extended slice.
func readLogical(r io.Reader, hdr, body []byte) (MsgType, cdr.ByteOrder, []byte, error) {
	t, order, more, size, err := readHeader(r, hdr)
	if err != nil {
		return 0, 0, nil, err
	}
	if !more && t == MsgFragment {
		return 0, 0, nil, fmt.Errorf("giop: fragment without a preceding message")
	}
	if body, err = appendBody(r, body, int(size)); err != nil {
		return 0, 0, nil, fmt.Errorf("giop: reading body: %w", err)
	}
	for more {
		ft, forder, fmore, fsize, err := readHeader(r, hdr)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("giop: reading continuation fragment: %w", err)
		}
		if ft != MsgFragment {
			return 0, 0, nil, fmt.Errorf("giop: expected Fragment, found %v", ft)
		}
		if forder != order {
			return 0, 0, nil, fmt.Errorf("giop: fragment byte order changed mid-message")
		}
		if total := len(body) + int(fsize); total > MaxMessageSize {
			return 0, 0, nil, fmt.Errorf("giop: reassembled message %d exceeds limit", total)
		}
		if body, err = appendBody(r, body, int(fsize)); err != nil {
			return 0, 0, nil, fmt.Errorf("giop: reading continuation fragment: %w", err)
		}
		more = fmore
	}
	return t, order, body, nil
}

// bodyChunk bounds how far a body's capacity may run ahead of the octets
// that have arrived: the size field is the peer's claim, not evidence.
const bodyChunk = 32 << 10

// appendBody reads exactly n octets from r onto dst. Capacity grows only as
// octets arrive — at most bodyChunk ahead of them, then by doubling — so a
// header that claims MaxMessageSize and is cut off costs what arrived, not
// what it claimed. A body that fits dst's capacity costs no allocation, and
// r is never asked for octets past the body's end.
func appendBody(r io.Reader, dst []byte, n int) ([]byte, error) {
	want := len(dst) + n
	for len(dst) < want {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, min(max(len(dst), bodyChunk), want-len(dst)))
		}
		k, err := r.Read(dst[len(dst):min(cap(dst), want)])
		dst = dst[:len(dst)+k]
		if err != nil && len(dst) < want {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return dst, err
		}
	}
	return dst, nil
}

// readHeader reads and validates one frame header into hdr (len >=
// HeaderSize) and decodes its fields.
func readHeader(r io.Reader, hdr []byte) (t MsgType, order cdr.ByteOrder, more bool, size uint32, err error) {
	hdr = hdr[:HeaderSize]
	if _, err = io.ReadFull(r, hdr); err != nil {
		return 0, 0, false, 0, err
	}
	if string(hdr[:4]) != Magic {
		return 0, 0, false, 0, fmt.Errorf("giop: bad magic %q", hdr[:4])
	}
	if hdr[4] != VersionMajor || hdr[5] != VersionMinor {
		return 0, 0, false, 0, fmt.Errorf("giop: unsupported version %d.%d", hdr[4], hdr[5])
	}
	order = cdr.ByteOrder(hdr[6] & 1)
	more = hdr[6]&flagMoreFragments != 0
	t = MsgType(hdr[7])
	if order == cdr.LittleEndian {
		size = uint32(hdr[8]) | uint32(hdr[9])<<8 | uint32(hdr[10])<<16 | uint32(hdr[11])<<24
	} else {
		size = uint32(hdr[8])<<24 | uint32(hdr[9])<<16 | uint32(hdr[10])<<8 | uint32(hdr[11])
	}
	if size > MaxMessageSize {
		return 0, 0, false, 0, fmt.Errorf("giop: message body %d exceeds limit", size)
	}
	return t, order, more, size, nil
}
