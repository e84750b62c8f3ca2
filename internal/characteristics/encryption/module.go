package encryption

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"hash"
	"sync"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/orb"
	"maqs/internal/qos"
	"maqs/internal/qos/transport"
)

// session is one binding's key material and the cipher state keyed with
// it. deriveKeys builds it whole, once per handshake or rekey; the data
// path only reads it. A rekey stores a new session rather than mutating
// this one, so calls in flight keep a consistent view.
type session struct {
	enc [32]byte // AES-256 key
	mac [32]byte // HMAC-SHA256 key

	block cipher.Block // AES-256 keyed with enc
	macs  sync.Pool    // *macState keyed with mac
}

// sessionKeys is the handle the module stores per binding and passes to
// seal and open.
type sessionKeys = *session

// macState is a pooled HMAC-SHA256 state with the scratch it needs to
// avoid allocating per message.
type macState struct {
	h   hash.Hash
	id  []byte // the binding ID, copied in so Write does not allocate
	sum [sha256.Size]byte
}

// deriveKeys computes the session keys from the X25519 shared secret and
// the binding ID (domain-separated SHA-256; both sides compute the same),
// and keys the session's cipher.
func deriveKeys(shared []byte, bindingID string) sessionKeys {
	k := new(session)
	k.enc = sha256.Sum256(append(append([]byte("maqs-enc|"), shared...), bindingID...))
	k.mac = sha256.Sum256(append(append([]byte("maqs-mac|"), shared...), bindingID...))
	block, err := aes.NewCipher(k.enc[:])
	if err != nil {
		panic(err) // unreachable: the key is always 32 bytes
	}
	k.block = block
	return k
}

// macFor returns a MAC state keyed for the session and primed with the
// binding ID; release it with k.macs.Put.
func (k *session) macFor(bindingID string) *macState {
	st, ok := k.macs.Get().(*macState)
	if ok {
		st.h.Reset()
	} else {
		st = &macState{h: hmac.New(sha256.New, k.mac[:])}
	}
	st.id = append(st.id[:0], bindingID...)
	st.h.Write(st.id)
	return st
}

// Stats counts the module's activity.
type Stats struct {
	// Handshakes counts completed key exchanges.
	Handshakes uint64
	// Sealed and Opened count protected payloads in each direction.
	Sealed, Opened uint64
	// AuthFailures counts integrity check rejections.
	AuthFailures uint64
}

// Module is the "secure" transport module.
type Module struct {
	mu    sync.Mutex
	keys  map[string]sessionKeys // by binding ID
	stats Stats
	// pending holds the client's in-flight handshakes by binding ID, so
	// concurrent first calls of a binding share one key exchange.
	pending map[string]*handshakeCall
	// transport gives the client side access to the ORB for the
	// handshake command.
	transport *transport.Transport
}

var _ transport.Module = (*Module)(nil)

// NewModule constructs the module; it takes no configuration. It is the
// transport factory for ModuleName.
func NewModule(t *transport.Transport, _ map[string]string) (transport.Module, error) {
	return &Module{keys: make(map[string]sessionKeys), pending: make(map[string]*handshakeCall), transport: t}, nil
}

// Name implements transport.Module.
func (m *Module) Name() string { return ModuleName }

// Close implements transport.Module, dropping every session: key
// material, cipher and MAC states go with it.
func (m *Module) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.keys)
	return nil
}

// Stats snapshots the module counters.
func (m *Module) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

func (m *Module) lookup(bindingID string) (sessionKeys, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k, ok := m.keys[bindingID]
	return k, ok
}

func (m *Module) store(bindingID string, k sessionKeys) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.keys[bindingID] = k
	m.stats.Handshakes++
}

// seal protects a payload: 16-byte CTR IV || ciphertext || 32-byte HMAC
// over bindingID || iv || ciphertext.
func (m *Module) seal(k sessionKeys, bindingID string, p []byte) ([]byte, error) {
	out := make([]byte, aes.BlockSize+len(p)+sha256.Size)
	iv := out[:aes.BlockSize]
	if _, err := rand.Read(iv); err != nil {
		return nil, fmt.Errorf("encryption: reading IV: %w", err)
	}
	body := out[:aes.BlockSize+len(p)]
	cipher.NewCTR(k.block, iv).XORKeyStream(body[aes.BlockSize:], p)
	mac := k.macFor(bindingID)
	mac.h.Write(body)
	mac.h.Sum(body[len(body):len(body)]) // appends into the tag's place in out
	k.macs.Put(mac)
	m.mu.Lock()
	m.stats.Sealed++
	m.mu.Unlock()
	return out, nil
}

// open reverses seal, verifying the HMAC first.
func (m *Module) open(k sessionKeys, bindingID string, p []byte) ([]byte, error) {
	if len(p) < aes.BlockSize+sha256.Size {
		return nil, fmt.Errorf("encryption: frame too short (%d bytes)", len(p))
	}
	body := p[:len(p)-sha256.Size]
	tag := p[len(p)-sha256.Size:]
	mac := k.macFor(bindingID)
	mac.h.Write(body)
	ok := subtle.ConstantTimeCompare(tag, mac.h.Sum(mac.sum[:0])) == 1
	k.macs.Put(mac)
	if !ok {
		m.mu.Lock()
		m.stats.AuthFailures++
		m.mu.Unlock()
		return nil, fmt.Errorf("encryption: integrity check failed")
	}
	out := make([]byte, len(body)-aes.BlockSize)
	cipher.NewCTR(k.block, body[:aes.BlockSize]).XORKeyStream(out, body[aes.BlockSize:])
	m.mu.Lock()
	m.stats.Opened++
	m.mu.Unlock()
	return out, nil
}

// handshakeCall is one in-flight client handshake; done closes once keys
// and err are set.
type handshakeCall struct {
	done chan struct{}
	keys sessionKeys
	err  error
}

// clientKeys returns the binding's session keys, running the handshake if
// there are none. Only one handshake per binding is in flight: concurrent
// callers wait for its result instead of starting their own, whose keys
// would replace each other on both sides. A failed handshake fails its
// waiters too; the binding's next call starts a new one.
func (m *Module) clientKeys(ctx context.Context, inv *orb.Invocation, bindingID string) (sessionKeys, error) {
	m.mu.Lock()
	if k, ok := m.keys[bindingID]; ok {
		m.mu.Unlock()
		return k, nil
	}
	if c, ok := m.pending[bindingID]; ok {
		m.mu.Unlock()
		select {
		case <-c.done:
			return c.keys, c.err
		case <-ctx.Done():
			return nil, fmt.Errorf("encryption: waiting for handshake: %w", ctx.Err())
		}
	}
	c := &handshakeCall{done: make(chan struct{})}
	m.pending[bindingID] = c
	m.mu.Unlock()

	c.keys, c.err = m.handshake(ctx, inv, bindingID)
	m.mu.Lock()
	delete(m.pending, bindingID)
	m.mu.Unlock()
	close(c.done)
	return c.keys, c.err
}

// handshake performs the client side of the X25519 exchange through the
// server module's dynamic interface.
func (m *Module) handshake(ctx context.Context, inv *orb.Invocation, bindingID string) (sessionKeys, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("encryption: generating key: %w", err)
	}
	ctl := transport.NewController(m.transport.ORB(), inv.Target)
	e := cdr.NewEncoder(m.transport.ORB().Order())
	e.WriteString(bindingID)
	e.WriteOctets(priv.PublicKey().Bytes())
	d, err := ctl.ModuleCommand(ctx, ModuleName, "handshake", e.Bytes())
	if err != nil {
		return nil, fmt.Errorf("encryption: handshake: %w", err)
	}
	peerPubBytes, err := d.ReadOctets()
	if err != nil {
		return nil, fmt.Errorf("encryption: reading peer key: %w", err)
	}
	peerPub, err := ecdh.X25519().NewPublicKey(peerPubBytes)
	if err != nil {
		return nil, fmt.Errorf("encryption: bad peer key: %w", err)
	}
	shared, err := priv.ECDH(peerPub)
	if err != nil {
		return nil, fmt.Errorf("encryption: deriving shared secret: %w", err)
	}
	keys := deriveKeys(shared, bindingID)
	m.store(bindingID, keys)
	return keys, nil
}

// Send implements transport.Module: establish keys if needed, seal the
// request, open the reply.
func (m *Module) Send(ctx context.Context, inv *orb.Invocation, next transport.Next) (*orb.Outcome, error) {
	tag, tagged, err := qos.TagFromContexts(inv.Contexts)
	if err != nil || !tagged {
		return nil, fmt.Errorf("encryption: request without QoS tag: %v", err)
	}
	keys, err := m.clientKeys(ctx, inv, tag.BindingID)
	if err != nil {
		return nil, err
	}
	wrapped := inv.Clone()
	if wrapped.Args, err = m.seal(keys, tag.BindingID, inv.Args); err != nil {
		return nil, err
	}
	out, err := next(ctx, wrapped)
	if err != nil {
		return nil, err
	}
	if out.Status != giop.ReplyNoException {
		return out, nil
	}
	if out.Data, err = m.open(keys, tag.BindingID, out.Data); err != nil {
		return nil, err
	}
	return out, nil
}

// ServerFilter implements transport.Module.
func (m *Module) ServerFilter() orb.IncomingFilter { return (*serverFilter)(m) }

type serverFilter Module

func (f *serverFilter) Inbound(req *orb.ServerRequest) error {
	m := (*Module)(f)
	tag, tagged, err := qos.TagFromContexts(req.Contexts)
	if err != nil || !tagged {
		return fmt.Errorf("encryption: request without QoS tag: %v", err)
	}
	keys, ok := m.lookup(tag.BindingID)
	if !ok {
		return orb.NewSystemException(orb.ExcBadQoS, 70,
			"no session keys for binding %q (handshake missing)", tag.BindingID)
	}
	args, err := m.open(keys, tag.BindingID, req.Args)
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
	m := (*Module)(f)
	tag, tagged, err := qos.TagFromContexts(req.Contexts)
	if err != nil || !tagged {
		return nil, fmt.Errorf("encryption: reply without QoS tag: %v", err)
	}
	keys, ok := m.lookup(tag.BindingID)
	if !ok {
		return nil, fmt.Errorf("encryption: no session keys for binding %q", tag.BindingID)
	}
	return m.seal(keys, tag.BindingID, body)
}

// Dynamic implements transport.Module: the handshake endpoint and a
// rekey operation ("on the fly change of encryption keys").
func (m *Module) Dynamic() *orb.DynamicServant {
	octets := cdr.SequenceOf(cdr.TCOctet)
	return &orb.DynamicServant{Ops: map[string]orb.DynamicOp{
		"handshake": {
			Params: []*cdr.TypeCode{cdr.TCString, octets},
			Result: octets,
			Handler: func(args []cdr.Any) (cdr.Any, error) {
				bindingID := args[0].Value.(string)
				peerPubBytes := args[1].Value.([]byte)
				peerPub, err := ecdh.X25519().NewPublicKey(peerPubBytes)
				if err != nil {
					return cdr.Any{}, orb.NewSystemException(orb.ExcBadParam, 71, "bad client key: %v", err)
				}
				priv, err := ecdh.X25519().GenerateKey(rand.Reader)
				if err != nil {
					return cdr.Any{}, fmt.Errorf("encryption: generating key: %w", err)
				}
				shared, err := priv.ECDH(peerPub)
				if err != nil {
					return cdr.Any{}, orb.NewSystemException(orb.ExcBadParam, 72, "deriving shared secret: %v", err)
				}
				m.store(bindingID, deriveKeys(shared, bindingID))
				return cdr.Octets(priv.PublicKey().Bytes()), nil
			},
		},
		"drop_session": {
			Params: []*cdr.TypeCode{cdr.TCString},
			Result: cdr.TCBoolean,
			Handler: func(args []cdr.Any) (cdr.Any, error) {
				bindingID := args[0].Value.(string)
				m.mu.Lock()
				_, existed := m.keys[bindingID]
				delete(m.keys, bindingID)
				m.mu.Unlock()
				return cdr.Bool(existed), nil
			},
		},
	}}
}
