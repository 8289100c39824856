package bridge

import (
	"bytes"
	"errors"
	"testing"

	"vnetp/internal/ethernet"
)

// FuzzEncapDecode throws arbitrary bytes at the wire-format decoder and
// pins the codec's safety contract: ParseEncap never panics, v1
// datagrams (the pre-widening format) are rejected with exactly
// ErrBadVersion, a clean v2 header survives a marshal round-trip, and
// any payload the decoder accepts also survives a full encapsulate →
// reassemble cycle (both the allocating and the pooled encoder).
func FuzzEncapDecode(f *testing.F) {
	seed := &ethernet.Frame{
		Dst: ethernet.LocalMAC(1), Src: ethernet.LocalMAC(2),
		Type: ethernet.TypeTest, Payload: []byte("seed corpus payload"),
	}
	if dgs, err := Encapsulate(seed, 7, 32); err == nil {
		for _, d := range dgs {
			f.Add(d)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x56, 0x4e, 0x01, 0x00}) // v1, truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := ParseEncap(data) // must never panic
		if err != nil {
			if len(data) >= EncapHeaderLen && data[0] == 0x56 && data[1] == 0x4e && data[2] == 1 {
				if !errors.Is(err, ErrBadVersion) {
					t.Fatalf("v1 datagram: got %v, want ErrBadVersion", err)
				}
			}
			return
		}
		// Accepted datagram: re-marshalling the parsed header must
		// reproduce the wire header — trace extension included — whenever
		// no unknown flag bits were set (Marshal cannot represent unknown
		// bits).
		if data[3]&^(flagMoreFrags|flagProbe|flagProbeReply|flagTrace|flagSealed) == 0 {
			if re := h.Marshal(nil); !bytes.Equal(re, data[:h.WireLen()]) {
				t.Fatalf("header round-trip: % x != % x", re, data[:h.WireLen()])
			}
		}

		// Encode side: treat the accepted payload as an inner-frame
		// payload and require encapsulate → reassemble identity at a
		// fuzz-chosen fragment size, through both encoders.
		if len(payload) == 0 || len(payload) > ethernet.MaxMTU {
			return
		}
		inner := &ethernet.Frame{
			Dst: ethernet.LocalMAC(3), Src: ethernet.LocalMAC(4),
			Type: ethernet.TypeTest, Payload: payload,
		}
		maxPayload := EncapHeaderLen + 1 + int(h.ID%512)
		dgs, err := Encapsulate(inner, h.ID, maxPayload)
		if err != nil {
			t.Fatal(err)
		}
		var enc Encapsulator
		pkt, err := enc.EncapsulateSealed(inner, h.ID, maxPayload, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkt.Datagrams) != len(dgs) {
			t.Fatalf("pooled encoder produced %d datagrams, allocating produced %d",
				len(pkt.Datagrams), len(dgs))
		}
		for i := range dgs {
			if !bytes.Equal(pkt.Datagrams[i], dgs[i]) {
				t.Fatalf("pooled datagram %d differs from allocating encoder's", i)
			}
		}
		pkt.Release()
		r := NewReassembler()
		var got *ethernet.Frame
		for _, d := range dgs {
			out, err := r.Add("fuzz", d)
			if err != nil {
				t.Fatalf("own fragment rejected: %v", err)
			}
			if out != nil {
				got = out
			}
		}
		if got == nil {
			t.Fatal("complete fragment set did not reassemble")
		}
		if !bytes.Equal(got.Payload, payload) || got.Dst != inner.Dst || got.Src != inner.Src {
			t.Fatal("reassembled frame differs from input")
		}
		if r.Pending() != 0 {
			t.Fatalf("%d partials leaked after completion", r.Pending())
		}
	})
}

// FuzzReassembler drives the reassembler with a fuzz-chosen feed order
// over one fragmented packet — duplicates, arbitrary order, and
// synthetic overlapping fragments — and pins the span-accounting
// invariants: a packet completes only once every byte has genuinely
// arrived (duplicates never double-count toward completion), the
// reassembled bytes equal the original, and eviction leaves no partial
// state behind.
func FuzzReassembler(f *testing.F) {
	f.Add([]byte("some payload long enough to fragment several times over"), []byte{3, 0, 1, 0x87, 2, 2, 5})
	f.Add([]byte("x"), []byte{0})
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz"), []byte{0x90, 1, 1, 0, 2})
	f.Fuzz(func(t *testing.T, payload, script []byte) {
		if len(payload) == 0 || len(payload) > 4096 {
			return
		}
		inner := &ethernet.Frame{
			Dst: ethernet.LocalMAC(5), Src: ethernet.LocalMAC(6),
			Type: ethernet.TypeTest, Payload: payload,
		}
		innerBytes, err := inner.Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		chunk := 1 + len(payload)/4 // forces >= 2 fragments for multi-byte payloads
		dgs, err := Encapsulate(inner, 42, EncapHeaderLen+chunk)
		if err != nil {
			t.Fatal(err)
		}

		r := NewReassembler()
		covered := make([]bool, len(innerBytes))
		sawLast := false
		allCovered := func() bool {
			for _, c := range covered {
				if !c {
					return false
				}
			}
			return true
		}
		feed := func(d []byte, off, end int, last bool) *ethernet.Frame {
			t.Helper()
			out, err := r.Add("s", d)
			if err != nil {
				t.Fatalf("well-formed fragment rejected: %v", err)
			}
			for i := off; i < end; i++ {
				covered[i] = true
			}
			if last {
				sawLast = true
			}
			if out != nil {
				// The core double-count invariant: completion implies the
				// spans truly cover the packet and the tail was seen.
				if !allCovered() || !sawLast {
					t.Fatal("completed with a hole (duplicate or overlap double-counted)")
				}
				if !bytes.Equal(out.Payload, payload) {
					t.Fatal("reassembled payload differs")
				}
			}
			return out
		}
		fragRange := func(idx int) (off, end int, last bool) {
			off = idx * chunk
			end = off + chunk
			if end > len(innerBytes) {
				end = len(innerBytes)
			}
			return off, end, idx == len(dgs)-1
		}

		var done *ethernet.Frame
		for _, b := range script {
			if done != nil {
				break
			}
			if b&0x80 != 0 && len(innerBytes) > 1 {
				// Synthetic overlapping fragment: correct bytes at an
				// offset straddling fragment boundaries, never the last.
				off := int(b&0x7f) % (len(innerBytes) - 1)
				end := off + chunk
				if end > len(innerBytes) {
					end = len(innerBytes)
				}
				h := EncapHeader{ID: 42, FragOff: uint32(off),
					TotalLen: uint32(len(innerBytes)), MoreFrags: true}
				done = feed(append(h.Marshal(nil), innerBytes[off:end]...), off, end, false)
				continue
			}
			idx := int(b) % len(dgs)
			off, end, last := fragRange(idx)
			done = feed(dgs[idx], off, end, last)
		}
		// Top up with every fragment in order: the packet must complete.
		for idx := 0; done == nil && idx < len(dgs); idx++ {
			off, end, last := fragRange(idx)
			done = feed(dgs[idx], off, end, last)
		}
		if done == nil {
			t.Fatal("full fragment set never completed")
		}
		if r.Reassembled == 0 {
			t.Fatal("Reassembled counter not incremented")
		}
		// Leak check: any partial state left behind (e.g. a post-
		// completion duplicate re-opening the key) must age out in two
		// generation sweeps and leave the table empty.
		if len(dgs) > 1 {
			feedStale, _ := r.Add("s", dgs[0])
			if feedStale != nil && len(dgs) > 1 {
				t.Fatal("lone stale fragment completed a packet")
			}
		}
		r.EvictStale()
		r.EvictStale()
		if r.Pending() != 0 {
			t.Fatalf("%d partials leaked past eviction", r.Pending())
		}
	})
}
