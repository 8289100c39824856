package seal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzSealOpen pins the seal layer's fail-closed contract under
// adversarial inputs: a seal/open round trip is the identity; flipped
// ciphertext bits, truncations, wrong tenant IDs, and replayed nonces
// all reject with a typed RejectError and never return partial
// plaintext; Open never panics on arbitrary garbage; and associated
// data shaped like a sealed wire header (ending in tenant || nonce)
// seals exactly as the reference nonce construction does.
func FuzzSealOpen(f *testing.F) {
	f.Add([]byte("inner ethernet frame bytes"), []byte("VN\x02\x10hdr"), uint16(3), uint8(4), uint8(0))
	f.Add([]byte{}, []byte{}, uint16(0), uint8(0), uint8(1))
	f.Add([]byte("x"), []byte("aad"), uint16(128), uint8(16), uint8(2))
	f.Add(bytes.Repeat([]byte{0xaa}, 1500), []byte("jumbo"), uint16(900), uint8(1), uint8(3))
	key7 := testKey(7)
	key9 := testKey(9)
	f.Fuzz(func(t *testing.T, payload, aad []byte, flip uint16, cut, mode uint8) {
		sender := NewKeyring(0x0a0a)
		if err := sender.AddTenant(7, key7); err != nil {
			t.Fatal(err)
		}
		recv := func() *Keyring {
			k := NewKeyring(0x0b0b)
			k.AddTenant(7, key7)
			k.AddTenant(9, key9)
			return k
		}
		s, err := sender.Sealer(7)
		if err != nil {
			t.Fatal(err)
		}
		nonce := s.NextNonce()
		ct := s.Seal(nonce, aad, pad(clone(payload)))
		if len(ct) != len(payload)+Overhead {
			t.Fatalf("ciphertext length %d, want %d", len(ct), len(payload)+Overhead)
		}

		// Round-trip identity, then the same nonce must reject as a replay.
		b := recv()
		pt, err := b.Open(7, nonce, aad, clone(ct))
		if err != nil {
			t.Fatalf("genuine open: %v", err)
		}
		if !bytes.Equal(pt, payload) {
			t.Fatalf("round trip mismatch: %x != %x", pt, payload)
		}
		if _, err := b.Open(7, nonce, aad, clone(ct)); RejectReasonOf(err) != RejectReplay {
			t.Fatalf("replayed nonce: got %v, want replay reject", err)
		}

		// One flipped bit anywhere in ciphertext or tag fails closed.
		bad := clone(ct)
		bad[int(flip)%len(bad)] ^= 1 << (flip % 8)
		if !bytes.Equal(bad, ct) { // flipping bit twice onto itself cannot happen, but stay exact
			if _, err := recv().Open(7, nonce, aad, bad); RejectReasonOf(err) != RejectAuth {
				t.Fatalf("tampered ciphertext: got %v, want auth reject", err)
			}
		}

		// Any truncation fails closed (shorter than a tag: truncated;
		// otherwise the tag no longer matches: auth).
		if n := int(cut) % (len(ct) + 1); n < len(ct) {
			_, err := recv().Open(7, nonce, aad, clone(ct[:n]))
			if r := RejectReasonOf(err); r != RejectTruncated && r != RejectAuth {
				t.Fatalf("truncated to %d: got %v", n, err)
			}
		}

		// Wrong tenant: a configured-but-different key rejects as auth, an
		// unconfigured ID as unknown_tenant. Never plaintext either way.
		if _, err := recv().Open(9, nonce, aad, clone(ct)); RejectReasonOf(err) != RejectAuth {
			t.Fatalf("wrong tenant key: got %v, want auth reject", err)
		}
		if _, err := recv().Open(uint32(flip)+100, nonce, aad, clone(ct)); RejectReasonOf(err) != RejectUnknownTenant {
			t.Fatalf("unknown tenant: got %v, want unknown_tenant reject", err)
		}

		// Garbage in, no panic out: arbitrary bytes as ciphertext with an
		// arbitrary nonce must reject (mode steers the nonce shape).
		var gn uint64
		if len(payload) >= 8 {
			gn = binary.BigEndian.Uint64(payload)
		}
		gn ^= uint64(mode) << 40
		if _, err := recv().Open(7, gn, payload, clone(aad)); err == nil && len(aad) >= Overhead {
			t.Fatalf("garbage ciphertext accepted")
		}

		// Wire-shaped associated data: aad followed by the seal extension
		// tenantID || nonce, the way every datapath header ends. The GCM
		// nonce is then read from the header; the ciphertext must match
		// the reference construction byte for byte and open cleanly.
		wire := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(clone(aad), 7), nonce)
		wct := s.Seal(nonce, wire, pad(clone(payload)))
		if want := s.aead.Seal(nil, refNonce(7, nonce), payload, wire); !bytes.Equal(wct, want) {
			t.Fatalf("wire-shaped AAD: ciphertext differs from the reference nonce construction")
		}
		if pt, err := recv().Open(7, nonce, wire, clone(wct)); err != nil || !bytes.Equal(pt, payload) {
			t.Fatalf("wire-shaped AAD: open = %x, %v", pt, err)
		}
	})
}
