// Package bridge implements the VNET/P bridge (paper Sect. 4.5): the
// host-kernel component that encapsulates routed Ethernet frames in UDP
// (or hands them to the local network raw), fragments encapsulated packets
// that exceed the physical MTU, and reassembles on receive.
//
// codec.go is the pure wire format, shared by the simulated bridge
// (bridge.go) and the real-socket overlay (internal/overlay).
package bridge

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"vnetp/internal/ethernet"
)

// Encapsulation header layout (16 bytes), VNET/U-compatible in spirit:
//
//	magic(2) | version(1) | flags(1) | id(4) | fragOff(4) | totalLen(4)
//
// followed by a slice of the marshalled inner Ethernet frame.
//
// Version 2 widened fragOff and totalLen from 16 to 32 bits: with the
// 64 KB overlay MTU (ethernet.MaxMTU = 65535) a maximum-size frame
// marshals to 65549 bytes, which wrapped the v1 uint16 length fields and
// corrupted exactly the jumbo frames the large MTU exists for. v1
// datagrams are rejected with ErrBadVersion.
const (
	EncapMagic     = 0x564e // "VN"
	EncapVersion   = 2
	EncapHeaderLen = 16

	// EncapTraceLen is the size of the optional trace extension that
	// follows the fixed header when flagTrace is set:
	//
	//	traceID(8) | origin(2) | traceFlags(2)
	//
	// traceID names one sampled packet's journey across the overlay,
	// origin is a 16-bit hash of the node that started the trace, and
	// traceFlags carries sampling metadata (bit 0: explicit per-flow
	// trigger rather than 1-in-N sampling). The extension lets a trace
	// started on the transmit node continue on the receive node, so one
	// trace ID spans both halves of a hop (internal/trace.LiveTracer).
	EncapTraceLen = 12

	// EncapSealLen is the size of the optional seal extension that
	// follows the fixed header (and the trace extension, when both are
	// present) when flagSealed is set:
	//
	//	tenantID(4) | nonce(8)
	//
	// The fragment payload after a sealed header is AEAD ciphertext of
	// the inner-frame slice plus a SealOverhead-byte authentication tag;
	// the entire wire header (fixed part and extensions) is authenticated
	// as associated data, so flags, ids, offsets, tenant, and nonce are
	// all tamper-evident even though they travel in the clear.
	EncapSealLen = 12

	// SealOverhead is the AEAD tag size appended to each sealed
	// fragment's payload (AES-GCM, internal/seal.Overhead).
	SealOverhead = 16

	flagMoreFrags  = 0x01
	flagProbe      = 0x02
	flagProbeReply = 0x04
	flagTrace      = 0x08
	flagSealed     = 0x10
)

// TraceExt is the optional per-datagram trace extension (EncapTraceLen
// bytes on the wire, present when the header's trace flag is set).
type TraceExt struct {
	ID     uint64 // trace id, shared by every fragment and both nodes of a hop
	Origin uint16 // hash of the originating node's name
	Flags  uint16 // bit 0: explicitly triggered (per-MAC flow), else sampled
}

// TraceTriggered is the TraceExt.Flags bit marking an explicit per-flow
// trigger (TRACE START FLOW) rather than 1-in-N sampling.
const TraceTriggered uint16 = 0x01

// SealExt is the optional per-datagram seal extension (EncapSealLen
// bytes on the wire, present when the header's sealed flag is set). The
// nonce reuses the traceID shape — origin(16) << 48 | seq(48) — so each
// sending node's nonce stream is unique without coordination.
type SealExt struct {
	Tenant uint32 // tenant whose key sealed this fragment
	Nonce  uint64 // per-sender counter nonce, origin<<48 | seq48
}

// LinkSealer seals one link's outbound fragments for one tenant. It is
// implemented by internal/seal.Sealer; bridge declares the interface so
// the codec stays free of crypto dependencies.
type LinkSealer interface {
	// Tenant reports the tenant ID stamped into the seal extension.
	Tenant() uint32
	// NextNonce reserves a fresh nonce for one fragment.
	NextNonce() uint64
	// Seal encrypts plaintext in place (the slice must have Overhead
	// spare capacity) binding additional as associated data, and returns
	// the ciphertext (len(plaintext)+SealOverhead bytes).
	Seal(nonce uint64, additional, plaintext []byte) []byte
}

// EncapHeader describes one encapsulation fragment. Probe datagrams (the
// link-health heartbeats) travel on the same channel with the probe flags
// set; their payload is the probe body, not an inner-frame slice.
type EncapHeader struct {
	ID         uint32 // per-sender packet id, shared by all fragments
	FragOff    uint32 // byte offset of this fragment's payload
	TotalLen   uint32 // total inner-frame length
	MoreFrags  bool
	Probe      bool // liveness probe request
	ProbeReply bool // liveness probe echo

	// Trace is the optional trace extension, valid when HasTrace is set.
	Trace    TraceExt
	HasTrace bool

	// Seal is the optional seal extension, valid when HasSeal is set.
	// When present the fragment payload is AEAD ciphertext (inner-frame
	// slice + SealOverhead tag) rather than plaintext.
	Seal    SealExt
	HasSeal bool
}

// WireLen reports the marshalled header size, including any extensions
// present.
func (h *EncapHeader) WireLen() int {
	n := EncapHeaderLen
	if h.HasTrace {
		n += EncapTraceLen
	}
	if h.HasSeal {
		n += EncapSealLen
	}
	return n
}

var (
	ErrBadMagic   = errors.New("bridge: bad encapsulation magic")
	ErrBadVersion = errors.New("bridge: unsupported encapsulation version")
	ErrTruncated  = errors.New("bridge: truncated encapsulation header")
	ErrFragBounds = errors.New("bridge: fragment outside packet bounds")
)

// Marshal appends the header to b.
func (h *EncapHeader) Marshal(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, EncapMagic)
	flags := byte(0)
	if h.MoreFrags {
		flags |= flagMoreFrags
	}
	if h.Probe {
		flags |= flagProbe
	}
	if h.ProbeReply {
		flags |= flagProbeReply
	}
	if h.HasTrace {
		flags |= flagTrace
	}
	if h.HasSeal {
		flags |= flagSealed
	}
	b = append(b, EncapVersion, flags)
	b = binary.BigEndian.AppendUint32(b, h.ID)
	b = binary.BigEndian.AppendUint32(b, h.FragOff)
	b = binary.BigEndian.AppendUint32(b, h.TotalLen)
	if h.HasTrace {
		b = binary.BigEndian.AppendUint64(b, h.Trace.ID)
		b = binary.BigEndian.AppendUint16(b, h.Trace.Origin)
		b = binary.BigEndian.AppendUint16(b, h.Trace.Flags)
	}
	if h.HasSeal {
		b = binary.BigEndian.AppendUint32(b, h.Seal.Tenant)
		b = binary.BigEndian.AppendUint64(b, h.Seal.Nonce)
	}
	return b
}

// EncapIsControl peeks at a datagram's flag byte and reports whether it
// is a probe or probe-reply (control) datagram, without a full parse.
// Receive-path producers use it to steer control traffic off the data
// dispatchers; malformed datagrams report false and are rejected by the
// full ParseEncap downstream.
func EncapIsControl(b []byte) bool {
	return len(b) >= 4 && b[3]&(flagProbe|flagProbeReply) != 0
}

// ParseEncap splits an encapsulated datagram into header and fragment
// payload (aliasing b). It allocates the returned header; the receive
// path parses into a caller-owned header with ParseEncapInto instead.
func ParseEncap(b []byte) (*EncapHeader, []byte, error) {
	h := new(EncapHeader)
	payload, err := ParseEncapInto(h, b)
	if err != nil {
		return nil, nil, err
	}
	return h, payload, nil
}

// ParseEncapInto is ParseEncap into a caller-owned header: every field
// of *h is overwritten, so one header can be reused across datagrams.
// It returns the fragment payload (aliasing b). On error *h is left in
// an unspecified state.
func ParseEncapInto(h *EncapHeader, b []byte) ([]byte, error) {
	if len(b) < EncapHeaderLen {
		return nil, ErrTruncated
	}
	if binary.BigEndian.Uint16(b) != EncapMagic {
		return nil, ErrBadMagic
	}
	if b[2] != EncapVersion {
		return nil, ErrBadVersion
	}
	*h = EncapHeader{
		MoreFrags:  b[3]&flagMoreFrags != 0,
		Probe:      b[3]&flagProbe != 0,
		ProbeReply: b[3]&flagProbeReply != 0,
		ID:         binary.BigEndian.Uint32(b[4:]),
		FragOff:    binary.BigEndian.Uint32(b[8:]),
		TotalLen:   binary.BigEndian.Uint32(b[12:]),
	}
	hdrLen := EncapHeaderLen
	if b[3]&flagTrace != 0 {
		if len(b) < hdrLen+EncapTraceLen {
			return nil, ErrTruncated
		}
		h.HasTrace = true
		h.Trace.ID = binary.BigEndian.Uint64(b[hdrLen:])
		h.Trace.Origin = binary.BigEndian.Uint16(b[hdrLen+8:])
		h.Trace.Flags = binary.BigEndian.Uint16(b[hdrLen+10:])
		hdrLen += EncapTraceLen
	}
	if b[3]&flagSealed != 0 {
		if len(b) < hdrLen+EncapSealLen {
			return nil, ErrTruncated
		}
		h.HasSeal = true
		h.Seal.Tenant = binary.BigEndian.Uint32(b[hdrLen:])
		h.Seal.Nonce = binary.BigEndian.Uint64(b[hdrLen+4:])
		hdrLen += EncapSealLen
	}
	payload := b[hdrLen:]
	// A sealed payload is ciphertext: it carries a SealOverhead tag on
	// top of the inner-frame slice, so bounds-check the plaintext size.
	dataLen := len(payload)
	if h.HasSeal {
		if dataLen < SealOverhead {
			return nil, ErrTruncated
		}
		dataLen -= SealOverhead
	}
	if int(h.FragOff)+dataLen > int(h.TotalLen) {
		return nil, ErrFragBounds
	}
	return payload, nil
}

// Encapsulate marshals f and splits it into UDP-payload-sized datagrams,
// each at most maxPayload bytes (header included). It returns the ready
// UDP payloads. maxPayload <= EncapHeaderLen panics: no forward progress
// would be possible.
func Encapsulate(f *ethernet.Frame, id uint32, maxPayload int) ([][]byte, error) {
	if maxPayload <= EncapHeaderLen {
		panic(fmt.Sprintf("bridge: maxPayload %d leaves no room for data", maxPayload))
	}
	inner, err := f.Marshal(nil)
	if err != nil {
		return nil, err
	}
	chunk := maxPayload - EncapHeaderLen
	var out [][]byte
	for off := 0; off < len(inner); off += chunk {
		end := off + chunk
		if end > len(inner) {
			end = len(inner)
		}
		h := EncapHeader{
			ID:        id,
			FragOff:   uint32(off),
			TotalLen:  uint32(len(inner)),
			MoreFrags: end < len(inner),
		}
		buf := make([]byte, 0, EncapHeaderLen+end-off)
		buf = h.Marshal(buf)
		buf = append(buf, inner[off:end]...)
		out = append(out, buf)
	}
	if out == nil { // zero-length inner frame cannot happen (header >= 14) but be safe
		h := EncapHeader{ID: id}
		out = [][]byte{h.Marshal(nil)}
	}
	return out, nil
}

// Encapsulator is a pooling variant of Encapsulate for the hot transmit
// path: the inner-frame marshal scratch, the fragment wire buffers, and
// the datagram slice headers for one frame all live in a single pooled
// EncapPacket, so steady-state encapsulation allocates nothing. The
// zero value is ready to use and safe for concurrent callers.
type Encapsulator struct {
	pool         sync.Pool // *EncapPacket
	hits, misses atomic.Uint64
}

// EncapPacket is one frame's encapsulation: ready-to-send datagrams
// whose backing buffers belong to the Encapsulator's pool. Callers must
// not retain Datagrams (or slices of them) past Release.
type EncapPacket struct {
	Datagrams [][]byte

	owner *Encapsulator
	inner []byte // marshalled inner frame scratch
	wire  []byte // backing storage for every datagram
}

// EncapsulateSealed marshals f and splits it into datagrams of at most
// maxPayload bytes each (header included), reusing buffers from the
// pool. A non-nil tr puts the trace extension in every datagram, so the
// receive node continues the sampled packet's trace under the same ID.
// A non-nil sl seals every fragment: the header carries the seal
// extension and the payload is encrypted in place in the pooled wire
// buffer, with the fragment's full wire header bound as associated
// data. Each extension (and the AEAD tag) shrinks the fragment payload
// budget. The returned packet must be Released once every datagram has
// been handed to (and copied or written by) the transport.
func (e *Encapsulator) EncapsulateSealed(f *ethernet.Frame, id uint32, maxPayload int, tr *TraceExt, sl LinkSealer) (*EncapPacket, error) {
	// The per-fragment fields are patched by encode, so the header with
	// its extensions is marshalled once per frame, on the stack.
	var buf [EncapHeaderLen + EncapTraceLen + EncapSealLen]byte
	var h EncapHeader
	if tr != nil {
		h.Trace = *tr
		h.HasTrace = true
	}
	if sl != nil {
		h.Seal.Tenant = sl.Tenant()
		h.HasSeal = true
	}
	return e.encode(f, id, maxPayload, h.Marshal(buf[:0]), sl)
}

// encode is the one fragment loop behind every pooled encapsulation:
// each fragment's header is a copy of prefix (the full wire header,
// per-fragment fields zero) with the more-frags bit, id, fragOff and
// totalLen patched in, and — when sl is non-nil — a fresh nonce in the
// seal extension's last 8 bytes and the payload sealed in place.
func (e *Encapsulator) encode(f *ethernet.Frame, id uint32, maxPayload int, prefix []byte, sl LinkSealer) (*EncapPacket, error) {
	hdrLen := len(prefix)
	perFragOverhead := 0
	if sl != nil {
		perFragOverhead = SealOverhead
	}
	if maxPayload <= hdrLen+perFragOverhead {
		panic(fmt.Sprintf("bridge: maxPayload %d leaves no room for data", maxPayload))
	}
	p, _ := e.pool.Get().(*EncapPacket)
	if p == nil {
		p = &EncapPacket{owner: e}
		e.misses.Add(1)
	} else {
		e.hits.Add(1)
	}
	inner, err := f.Marshal(p.inner[:0])
	if err != nil {
		e.pool.Put(p)
		return nil, err
	}
	p.inner = inner
	chunk := maxPayload - hdrLen - perFragOverhead
	nfrags := (len(inner) + chunk - 1) / chunk
	if nfrags == 0 {
		nfrags = 1
	}
	// One contiguous wire buffer holds every fragment (header + slice);
	// sizing it up front keeps the datagram sub-slices stable. Sealed
	// fragments grow by the AEAD tag, so reserve that headroom too —
	// Seal then encrypts in place without reallocating.
	need := len(inner) + nfrags*(hdrLen+perFragOverhead)
	if cap(p.wire) < need {
		p.wire = make([]byte, 0, need)
	}
	wire := p.wire[:0]
	dgs := p.Datagrams[:0]
	for i := 0; i < nfrags; i++ {
		off := i * chunk
		end := min(off+chunk, len(inner))
		start := len(wire)
		wire = append(wire, prefix...)
		hdr := wire[start:]
		if end < len(inner) {
			hdr[3] |= flagMoreFrags
		}
		binary.BigEndian.PutUint32(hdr[4:], id)
		binary.BigEndian.PutUint32(hdr[8:], uint32(off))
		binary.BigEndian.PutUint32(hdr[12:], uint32(len(inner)))
		var nonce uint64
		if sl != nil {
			nonce = sl.NextNonce()
			binary.BigEndian.PutUint64(hdr[hdrLen-8:], nonce)
		}
		payloadStart := len(wire)
		wire = append(wire, inner[off:end]...)
		if sl != nil {
			ct := sl.Seal(nonce, wire[start:payloadStart], wire[payloadStart:len(wire):need])
			wire = wire[:payloadStart+len(ct)]
		}
		dgs = append(dgs, wire[start:len(wire):len(wire)])
	}
	p.wire = wire
	p.Datagrams = dgs
	return p, nil
}

// PoolStats reports how many Encapsulate calls were served from the pool
// (hits) versus had to allocate a fresh packet (misses).
func (e *Encapsulator) PoolStats() (hits, misses uint64) {
	return e.hits.Load(), e.misses.Load()
}

// Release returns the packet's buffers to the pool. The packet and its
// datagrams must not be used (or Released again) afterwards.
func (p *EncapPacket) Release() {
	if p.owner == nil {
		return
	}
	p.Datagrams = p.Datagrams[:0]
	p.owner.pool.Put(p)
}

// FragmentCount reports how many datagrams Encapsulate would produce for
// an inner frame of innerLen bytes. Used by the simulated bridge, which
// fragments by size accounting without materializing bytes.
func FragmentCount(innerLen, maxPayload int) int {
	chunk := maxPayload - EncapHeaderLen
	if chunk <= 0 {
		panic("bridge: maxPayload leaves no room for data")
	}
	n := (innerLen + chunk - 1) / chunk
	if n == 0 {
		n = 1
	}
	return n
}

// span is a half-open received byte range [off, end).
type span struct {
	off, end int
}

// partial accumulates fragments of one inner frame. Received bytes are
// tracked as merged ranges, not a raw counter: a duplicated fragment must
// not count twice, or a datagram could "complete" with a hole in it.
type partial struct {
	buf     []byte
	spans   []span // disjoint, non-adjacent, sorted received ranges
	total   int
	sawLast bool
	gen     uint64 // sweep generation of the last fragment (EvictStale)

	// inline backs spans: in-order fragments keep one merged range and
	// a single reordering two, so neither grows the slice.
	inline [2]span
}

// addSpan records [off, end) as received, merging it in place with
// every range it overlaps or touches.
func (p *partial) addSpan(off, end int) {
	if end <= off {
		return
	}
	s := p.spans
	i := 0
	for i < len(s) && s[i].end < off {
		i++
	}
	j := i
	for j < len(s) && s[j].off <= end {
		off = min(off, s[j].off)
		end = max(end, s[j].end)
		j++
	}
	if i == j {
		s = append(s, span{})
		copy(s[i+1:], s[i:])
	} else {
		s = append(s[:i+1], s[j:]...)
	}
	s[i] = span{off, end}
	p.spans = s
}

// complete reports whether every byte of [0, total) has arrived.
func (p *partial) complete() bool {
	return len(p.spans) == 1 && p.spans[0].off == 0 && p.spans[0].end == p.total
}

// reasmKey names one inner frame under reassembly. A sealed stream is
// scoped by its tenant, so plaintext and sealed fragments from one
// sender (or two tenants' sealed streams) never interleave.
type reasmKey struct {
	sender string
	sealed bool
	tenant uint32
	id     uint32
}

// Reassembler reconstructs inner Ethernet frames from encapsulation
// fragments. Fragments may arrive in any order; packets are keyed by
// (sender key, seal tenant, id). Stale partial packets are evicted by
// generation sweeps (EvictStale) rather than wall-clock timers so the
// type works in both simulated and real time.
type Reassembler struct {
	partials map[reasmKey]*partial
	curGen   uint64
	free     []*partial // retired partials, reused by the next frame

	// Reassembled counts completed frames; Dropped counts evictions.
	Reassembled, Dropped uint64
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{partials: make(map[reasmKey]*partial)}
}

// Add processes one encapsulated datagram from sender. When the datagram
// completes an inner frame, the frame is parsed and returned; otherwise
// (more fragments pending) it returns (nil, nil).
func (r *Reassembler) Add(sender string, datagram []byte) (*ethernet.Frame, error) {
	var h EncapHeader
	payload, err := ParseEncapInto(&h, datagram)
	if err != nil {
		return nil, err
	}
	return r.AddParsed(sender, &h, payload)
}

// AddParsed is Add for a datagram the caller already split with
// ParseEncap or ParseEncapInto (the overlay parses first to intercept
// probe datagrams). For a sealed datagram payload is the opened
// plaintext; h's seal tenant scopes the reassembly stream.
//
// AddParsed never retains or aliases payload: the returned frame owns
// its bytes, so the caller may reuse the datagram's buffer as soon as
// the call returns.
func (r *Reassembler) AddParsed(sender string, h *EncapHeader, payload []byte) (*ethernet.Frame, error) {
	// Fast path: unfragmented packet.
	if h.FragOff == 0 && !h.MoreFrags {
		if len(payload) != int(h.TotalLen) {
			return nil, ErrFragBounds
		}
		buf := make([]byte, len(payload))
		copy(buf, payload)
		return ethernet.Unmarshal(buf)
	}
	k := reasmKey{sender: sender, id: h.ID}
	if h.HasSeal {
		k.sealed, k.tenant = true, h.Seal.Tenant
	}
	p := r.partials[k]
	if p == nil {
		p = r.newPartial(int(h.TotalLen))
		r.partials[k] = p
	}
	if p.total != int(h.TotalLen) {
		r.retire(k, p)
		return nil, ErrFragBounds
	}
	copy(p.buf[h.FragOff:], payload)
	p.addSpan(int(h.FragOff), int(h.FragOff)+len(payload))
	if !h.MoreFrags {
		p.sawLast = true
	}
	p.gen = r.curGen
	if p.sawLast && p.complete() {
		buf := p.buf // the frame keeps the buffer; only the partial is reused
		r.retire(k, p)
		r.Reassembled++
		return ethernet.Unmarshal(buf)
	}
	return nil, nil
}

// maxFreePartials bounds the free list, so a burst of abandoned
// reassemblies does not pin its partials for the Reassembler's lifetime.
const maxFreePartials = 64

// newPartial starts a reassembly of total bytes, reusing a retired
// partial when one is free. Its buffer is always fresh: a completed
// frame owns the buffer it was reassembled in.
func (r *Reassembler) newPartial(total int) *partial {
	var p *partial
	if n := len(r.free); n > 0 {
		p = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		p = new(partial)
	}
	p.buf = make([]byte, total)
	p.total = total
	p.spans = p.inline[:0]
	return p
}

// retire removes k's partial and keeps p for reuse, dropping its buffer.
func (r *Reassembler) retire(k reasmKey, p *partial) {
	delete(r.partials, k)
	if len(r.free) < maxFreePartials {
		*p = partial{}
		r.free = append(r.free, p)
	}
}

// EvictStale drops partial packets not touched since the previous call.
// Call it periodically (e.g. once per second of real or simulated time).
func (r *Reassembler) EvictStale() int {
	evicted := 0
	for k, p := range r.partials {
		if p.gen < r.curGen {
			r.retire(k, p)
			evicted++
			r.Dropped++
		}
	}
	r.curGen++
	return evicted
}

// Pending reports the number of partially reassembled packets.
func (r *Reassembler) Pending() int { return len(r.partials) }
