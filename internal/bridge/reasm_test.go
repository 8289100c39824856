package bridge

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vnetp/internal/ethernet"
	"vnetp/internal/race"
)

// addSpanSorted is the reference span merge addSpan replaced: append,
// sort by offset, then coalesce overlapping and adjacent ranges.
func addSpanSorted(spans []span, off, end int) []span {
	if end <= off {
		return spans
	}
	spans = append(spans, span{off, end})
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
	merged := spans[:0]
	for _, s := range spans {
		if n := len(merged); n > 0 && s.off <= merged[n-1].end {
			if s.end > merged[n-1].end {
				merged[n-1].end = s.end
			}
			continue
		}
		merged = append(merged, s)
	}
	return merged
}

// TestAddSpanMatchesSortMerge checks the in-place merge against the
// sort-and-merge reference after every insertion, over random span
// sequences mixing out-of-order, duplicated, overlapping, adjacent and
// empty ranges.
func TestAddSpanMatchesSortMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		total := 1 + rng.Intn(200)
		p := &partial{total: total}
		p.spans = p.inline[:0]
		var ref []span
		var seen []span
		for step := 0; step < 1+rng.Intn(40); step++ {
			var off, end int
			switch k := rng.Intn(5); {
			case k == 0 && len(seen) > 0: // exact duplicate
				s := seen[rng.Intn(len(seen))]
				off, end = s.off, s.end
			case k == 1 && len(seen) > 0: // adjacent to an earlier range
				s := seen[rng.Intn(len(seen))]
				if rng.Intn(2) == 0 {
					off, end = s.end, s.end+1+rng.Intn(8)
				} else {
					off, end = s.off-1-rng.Intn(8), s.off
				}
			case k == 2: // empty or inverted: must be ignored
				off = rng.Intn(total)
				end = off - rng.Intn(3)
			default: // arbitrary, overlapping whatever is there
				off = rng.Intn(total)
				end = off + 1 + rng.Intn(total/4+1)
			}
			off, end = max(off, 0), min(end, total)
			seen = append(seen, span{off, end})
			p.addSpan(off, end)
			ref = addSpanSorted(ref, off, end)
			if len(p.spans) != len(ref) || (len(ref) > 0 && !reflect.DeepEqual(p.spans, ref)) {
				t.Fatalf("trial %d step %d: add [%d,%d) gave %v, reference %v",
					trial, step, off, end, p.spans, ref)
			}
		}
		if got, want := p.complete(), len(ref) == 1 && ref[0] == (span{0, total}); got != want {
			t.Fatalf("trial %d: complete() = %v with spans %v (total %d)", trial, got, ref, total)
		}
	}
}

// TestReassemblerScopesSealedStreams pins the reassembly key: fragments
// sharing a sender and packet ID but differing in seal state or seal
// tenant belong to different frames and never complete each other.
func TestReassemblerScopesSealedStreams(t *testing.T) {
	inner := &ethernet.Frame{Dst: ethernet.LocalMAC(1), Src: ethernet.LocalMAC(2),
		Type: ethernet.TypeTest, Payload: bytes.Repeat([]byte{0x33}, 100)}
	dgs, err := Encapsulate(inner, 5, EncapHeaderLen+60)
	if err != nil {
		t.Fatal(err)
	}
	if len(dgs) != 2 {
		t.Fatalf("want 2 fragments, got %d", len(dgs))
	}
	parse := func(d []byte, sealed bool, tenant uint32) (*EncapHeader, []byte) {
		h, payload, err := ParseEncap(d)
		if err != nil {
			t.Fatal(err)
		}
		h.HasSeal, h.Seal.Tenant = sealed, tenant
		return h, payload
	}
	r := NewReassembler()
	first := []struct {
		sealed bool
		tenant uint32
	}{{false, 0}, {true, 7}, {true, 8}}
	for _, s := range first {
		h, payload := parse(dgs[0], s.sealed, s.tenant)
		if f, err := r.AddParsed("peer", h, payload); f != nil || err != nil {
			t.Fatalf("first fragment returned (%v, %v)", f, err)
		}
	}
	if r.Pending() != 3 {
		t.Fatalf("pending = %d, want 3 separate streams", r.Pending())
	}
	for i, s := range first {
		h, payload := parse(dgs[1], s.sealed, s.tenant)
		f, err := r.AddParsed("peer", h, payload)
		if err != nil || f == nil || !bytes.Equal(f.Payload, inner.Payload) {
			t.Fatalf("stream %d: completion = (%v, %v)", i, f, err)
		}
		if r.Pending() != len(first)-1-i {
			t.Fatalf("stream %d: pending = %d", i, r.Pending())
		}
	}
}

// TestReceiveParseAllocs pins the caller-owned header parse at zero
// allocations, for plain and for traced+sealed headers.
func TestReceiveParseAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	plain := (&EncapHeader{ID: 1, TotalLen: 64}).Marshal(nil)
	plain = append(plain, make([]byte, 64)...)
	ext := (&EncapHeader{ID: 2, TotalLen: 64, HasTrace: true, Trace: TraceExt{ID: 9},
		HasSeal: true, Seal: SealExt{Tenant: 7, Nonce: 3}}).Marshal(nil)
	ext = append(ext, make([]byte, 64+SealOverhead)...)
	var h EncapHeader
	for _, d := range [][]byte{plain, ext} {
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := ParseEncapInto(&h, d); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("ParseEncapInto allocates %v/op, want 0", allocs)
		}
	}
}

// sixFragmentAllocs is the measured cost of reassembling one sealed
// six-fragment frame: the reassembled buffer and the delivered Frame
// (retired partials are reused).
const sixFragmentAllocs = 2

// TestReassembleSealedAllocs pins AddParsed's allocations over a
// six-fragment sealed frame (opened outside the measured loop).
func TestReassembleSealedAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	sl, rx := sealedPair(t)
	frame := &ethernet.Frame{Dst: ethernet.LocalMAC(1), Src: ethernet.LocalMAC(2),
		Type: ethernet.TypeTest, Payload: bytes.Repeat([]byte{0x5a}, 8000)}
	var enc Encapsulator
	pkt, err := enc.EncapsulateSealed(frame, 11, 1500, nil, sl)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt.Datagrams) != 6 {
		t.Fatalf("want 6 fragments, got %d", len(pkt.Datagrams))
	}
	var hs []*EncapHeader
	var pts [][]byte
	for _, d := range pkt.Datagrams {
		h, pt := unsealDatagram(t, rx, append([]byte(nil), d...))
		hs, pts = append(hs, h), append(pts, pt)
	}
	r := NewReassembler()
	allocs := testing.AllocsPerRun(200, func() {
		var out *ethernet.Frame
		for i, h := range hs {
			f, err := r.AddParsed("peer", h, pts[i])
			if err != nil {
				t.Fatal(err)
			}
			out = f
		}
		if out == nil {
			t.Fatal("frame did not complete")
		}
	})
	if allocs != sixFragmentAllocs {
		t.Fatalf("AddParsed over a six-fragment sealed frame allocates %v, pinned at %d", allocs, sixFragmentAllocs)
	}
}

// TestAddParsedNeverAliasesPayload overwrites every datagram buffer as
// soon as AddParsed returns — as the overlay does when it recycles a
// receive slot — over unfragmented and fragmented frames, with
// reassemblies interleaved and partials retired by completion, size
// mismatch and eviction in between. Every delivered frame must still
// carry its own bytes.
func TestAddParsedNeverAliasesPayload(t *testing.T) {
	r := NewReassembler()
	var enc Encapsulator
	frameOf := func(seq, size int) *ethernet.Frame {
		p := make([]byte, size)
		for i := range p {
			p[i] = byte(seq + i)
		}
		return &ethernet.Frame{Dst: ethernet.LocalMAC(1), Src: ethernet.LocalMAC(2),
			Type: ethernet.TypeTest, Payload: p}
	}
	add := func(d []byte) *ethernet.Frame {
		t.Helper()
		scratch := append([]byte(nil), d...)
		f, err := r.Add("peer", scratch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range scratch {
			scratch[i] = 0xee
		}
		return f
	}
	for seq, size := range []int{64, 5000, 1300, 8000, 200, 3000} {
		want := frameOf(seq, size)
		pkt, err := enc.EncapsulateSealed(want, uint32(seq), 1400, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got *ethernet.Frame
		for i, d := range pkt.Datagrams {
			if i == 1 {
				// Interleave a frame that never completes (evicted
				// later) and one that mismatches its own size, so
				// partials retire mid-stream.
				for _, id := range []uint32{900, 950} {
					stray := (&EncapHeader{ID: id + uint32(seq), TotalLen: 100, MoreFrags: true}).Marshal(nil)
					add(append(stray, make([]byte, 10)...))
				}
				bad := (&EncapHeader{ID: 950 + uint32(seq), TotalLen: 50, FragOff: 20, MoreFrags: true}).Marshal(nil)
				if _, err := r.Add("peer", append(bad, make([]byte, 10)...)); err != ErrFragBounds {
					t.Fatalf("size mismatch: err = %v", err)
				}
			}
			if f := add(d); f != nil {
				got = f
			}
		}
		pkt.Release()
		if got == nil || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d (%d B) corrupted after its datagrams were overwritten", seq, size)
		}
		if seq%2 == 1 {
			r.EvictStale()
			r.EvictStale()
		}
	}
	if r.Pending() != 0 {
		t.Fatalf("pending = %d", r.Pending())
	}
}
