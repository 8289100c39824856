package bridge

import "vnetp/internal/ethernet"

// EncapTemplate is a prebuilt encapsulation header: the full wire
// header marshalled once — magic, version, flags (sealed bit included),
// and the seal extension's tenant field — with the per-fragment fields
// (moreFrags bit, id, fragOff, totalLen, nonce) zeroed. Encoding through
// a template skips the once-per-frame header marshal EncapsulateSealed
// pays. A template never carries the trace extension.
//
// Templates are immutable after construction and safe to share across
// goroutines.
type EncapTemplate struct {
	prefix []byte // marshalled header, per-fragment fields zero
	sealed bool
	tenant uint32
}

// NewEncapTemplate builds the header template for a link sealed by sl
// (nil for a plaintext link). Only sl's tenant ID is captured — the
// sealer itself stays with the caller, which passes it back to
// EncapsulateTemplate for nonce draws and the AEAD itself.
func NewEncapTemplate(sl LinkSealer) *EncapTemplate {
	h := EncapHeader{}
	t := &EncapTemplate{}
	if sl != nil {
		h.HasSeal = true
		h.Seal.Tenant = sl.Tenant()
		t.sealed = true
		t.tenant = sl.Tenant()
	}
	t.prefix = h.Marshal(nil)
	return t
}

// WireLen reports the template's header size on the wire.
func (t *EncapTemplate) WireLen() int { return len(t.prefix) }

// Sealed reports whether the template carries the seal extension.
func (t *EncapTemplate) Sealed() bool { return t.sealed }

// Tenant reports the tenant ID baked into a sealed template (0 for
// plaintext templates).
func (t *EncapTemplate) Tenant() uint32 { return t.tenant }

// EncapsulateTemplate encapsulates through a prebuilt template:
// semantically identical to EncapsulateSealed(f, id, maxPayload, nil,
// sl) — the produced datagrams are byte-for-byte equal given the same id
// and nonce draws — with the header marshalled once at template build
// instead of once per frame. sl must be non-nil exactly when the
// template is sealed, and must seal for the template's tenant.
func (e *Encapsulator) EncapsulateTemplate(f *ethernet.Frame, id uint32, maxPayload int, tmpl *EncapTemplate, sl LinkSealer) (*EncapPacket, error) {
	if tmpl.sealed != (sl != nil) {
		panic("bridge: template/sealer mismatch")
	}
	return e.encode(f, id, maxPayload, tmpl.prefix, sl)
}
