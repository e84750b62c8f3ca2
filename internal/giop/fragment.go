package giop

import (
	"fmt"
	"io"

	"maqs/internal/cdr"
)

// MsgFragment continues a fragmented message (GIOP's mechanism for
// bounding individual frames). The header flags octet carries the
// "more fragments follow" bit alongside the byte-order bit.
const MsgFragment MsgType = 7

// flagMoreFragments marks a frame that is continued by a Fragment.
const flagMoreFragments = 0x02

// WriteMessageFragmented frames body like WriteMessage but splits it into
// frames of at most maxFragment body octets: the first frame carries the
// message type, subsequent frames are Fragment messages, and all but the
// last set the more-fragments flag. maxFragment <= 0 disables splitting.
func WriteMessageFragmented(w io.Writer, t MsgType, order cdr.ByteOrder, body []byte, maxFragment int) error {
	if maxFragment <= 0 || len(body) <= maxFragment {
		return WriteMessage(w, t, order, body)
	}
	offset := 0
	first := true
	for {
		end := offset + maxFragment
		more := end < len(body)
		if !more {
			end = len(body)
		}
		msgType := t
		if !first {
			msgType = MsgFragment
		}
		if err := writeFrame(w, msgType, order, body[offset:end], more); err != nil {
			return err
		}
		if !more {
			return nil
		}
		offset = end
		first = false
	}
}

// writeFrame writes one frame with the given more-fragments flag. Header
// and body are coalesced into a pooled scratch buffer and issued as a
// single Write: one syscall per frame, and no torn frames if the transport
// ever interleaves writers.
func writeFrame(w io.Writer, t MsgType, order cdr.ByteOrder, body []byte, more bool) error {
	if len(body) > MaxMessageSize {
		return fmt.Errorf("giop: fragment body %d exceeds limit", len(body))
	}
	framePoolGets.Add(1)
	bp := framePool.Get().(*[]byte)
	buf := *bp
	if cap(buf) < HeaderSize+len(body) {
		buf = make([]byte, 0, HeaderSize+len(body))
	}
	buf = buf[:HeaderSize]
	putHeader(buf, t, order, len(body), more)
	buf = append(buf, body...)
	observeFrameSize(len(buf))
	_, err := w.Write(buf)
	if cap(buf) <= maxPooledFrame {
		*bp = buf[:0]
		framePool.Put(bp)
	} else {
		framePoolOversize.Add(1)
	}
	if err != nil {
		return fmt.Errorf("giop: writing frame: %w", err)
	}
	return nil
}
