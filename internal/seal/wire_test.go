package seal

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vnetp/internal/bridge"
	"vnetp/internal/ethernet"
	"vnetp/internal/race"
)

// refNonce is the reference GCM nonce construction: tenantID || nonce,
// built independently of any associated data.
func refNonce(tenantID uint32, nonce uint64) []byte {
	nb := make([]byte, NonceLen)
	binary.BigEndian.PutUint32(nb, tenantID)
	binary.BigEndian.PutUint64(nb[4:], nonce)
	return nb
}

// wireAAD marshals a sealed wire header for (tenant, nonce): the
// associated data the datapath binds, ending in the seal extension.
func wireAAD(tenantID uint32, nonce uint64) []byte {
	h := bridge.EncapHeader{ID: 1, TotalLen: 64, HasSeal: true,
		Seal: bridge.SealExt{Tenant: tenantID, Nonce: nonce}}
	return h.Marshal(nil)
}

// TestSealWireHeaderMatchesReferenceNonce is the wire-compatibility
// differential: every fragment EncapsulateSealed produces — its nonce
// taken from the header it binds — is byte-identical to sealing the same
// plaintext under the same header with the reference nonce, and the
// receive side opens it.
func TestSealWireHeaderMatchesReferenceNonce(t *testing.T) {
	a := mustKeyring(t, 0x0a0a, 7)
	b := mustKeyring(t, 0x0b0b, 7)
	s, err := a.Sealer(7)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newAEAD(subkey(testKey(7), 0x0a0a))
	if err != nil {
		t.Fatal(err)
	}
	f := &ethernet.Frame{Dst: ethernet.LocalMAC(1), Src: ethernet.LocalMAC(2),
		Type: ethernet.TypeTest, Payload: bytes.Repeat([]byte{0x5a, 0xa5, 0x3c}, 2700)}
	inner, err := f.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*bridge.TraceExt{nil, {ID: 42, Origin: 3}} {
		var enc bridge.Encapsulator
		pkt, err := enc.EncapsulateSealed(f, 9, 1400, tr, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkt.Datagrams) < 6 {
			t.Fatalf("%d datagrams, want a fragmented frame", len(pkt.Datagrams))
		}
		for i, d := range pkt.Datagrams {
			h, ct, err := bridge.ParseEncap(d)
			if err != nil {
				t.Fatal(err)
			}
			aad := d[:h.WireLen()]
			pt := inner[h.FragOff : int(h.FragOff)+len(ct)-Overhead]
			want := ref.Seal(nil, refNonce(h.Seal.Tenant, h.Seal.Nonce), pt, aad)
			if !bytes.Equal(ct, want) {
				t.Fatalf("trace=%v fragment %d: ciphertext differs from the reference nonce construction", tr != nil, i)
			}
			got, err := b.Open(h.Seal.Tenant, h.Seal.Nonce, aad, clone(ct))
			if err != nil {
				t.Fatalf("trace=%v fragment %d: Open: %v", tr != nil, i, err)
			}
			if !bytes.Equal(got, pt) {
				t.Fatalf("trace=%v fragment %d: plaintext mismatch", tr != nil, i)
			}
		}
		pkt.Release()
	}
}

// TestSealWireHeaderTamperRejects: a header whose seal extension no
// longer spells the claimed (tenant, nonce) still seals and opens under
// the reference nonce, so a flipped extension bit fails authentication
// rather than silently selecting another nonce.
func TestSealWireHeaderTamperRejects(t *testing.T) {
	a := mustKeyring(t, 0x0a0a, 7)
	s, _ := a.Sealer(7)
	nonce := s.NextNonce()
	aad := wireAAD(7, nonce)
	ct := s.Seal(nonce, aad, pad([]byte("sealed fragment")))
	for bit := 0; bit < NonceLen*8; bit++ {
		bad := clone(aad)
		bad[len(bad)-NonceLen+bit/8] ^= 1 << (bit % 8)
		if r := rejectReason(t, errOf(mustKeyring(t, 0x0b0b, 7).Open(7, nonce, bad, clone(ct)))); r != RejectAuth {
			t.Fatalf("seal extension bit %d flipped: reason %q, want auth", bit, r)
		}
	}
	if _, err := mustKeyring(t, 0x0b0b, 7).Open(7, nonce, aad, clone(ct)); err != nil {
		t.Fatalf("genuine header: %v", err)
	}
}

// TestSealOpenAllocsWireAAD pins Seal and Open at zero allocations when
// the associated data is a sealed wire header: the GCM nonce is a view
// of the header, so nothing escapes through the AEAD interface.
func TestSealOpenAllocsWireAAD(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	a := mustKeyring(t, 0x0a0a, 7)
	b := mustKeyring(t, 0x0b0b, 7)
	s, _ := a.Sealer(7)
	buf := pad(bytes.Repeat([]byte{1}, 1300))
	nonce := s.NextNonce()
	aad := wireAAD(7, nonce)
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Seal(nonce, aad, buf[:1300])
	}); allocs != 0 {
		t.Fatalf("Seal on a wire header allocates %v/op, want 0", allocs)
	}

	const runs = 1000
	type sealed struct {
		nonce   uint64
		aad, ct []byte
	}
	msgs := make([]sealed, runs+1) // AllocsPerRun makes one warm-up call
	for i := range msgs {
		n := s.NextNonce()
		aad := wireAAD(7, n)
		msgs[i] = sealed{n, aad, s.Seal(n, aad, pad(bytes.Repeat([]byte{byte(i)}, 1300)))}
	}
	i := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		m := msgs[i]
		i++
		if _, err := b.Open(7, m.nonce, m.aad, m.ct); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Open on a wire header allocates %v/op, want 0", allocs)
	}
}
