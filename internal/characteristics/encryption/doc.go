// Package encryption implements the paper's "privacy through encryption"
// QoS characteristic.
//
// Like compression it spans both layers of the mechanism hierarchy: a
// thin application-layer characteristic assigns the "secure" transport
// module to each binding, and the module encrypts request and reply
// payloads with AES-256-CTR plus an HMAC-SHA256 integrity tag.
//
// Session keys are established per binding through the module's dynamic
// interface: the client module performs an X25519 handshake with the
// server module before the first protected request (one per binding,
// however many first calls race for it) — a direct rendition
// of the paper's "QoS to QoS" communication ("on the fly change of
// encryption keys ... should use the underlying middleware").
package encryption
