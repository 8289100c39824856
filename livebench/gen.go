package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"time"

	"vnetp"
)

// Payload layout. Every frame the benchmark sends carries a 24-byte
// header the receiver checks, followed by seed-derived pattern bytes:
//
//	[0:8)   sequence number (starts at 1; 0 marks a free slot)
//	[8:12)  pool slot the frame was drawn from
//	[12]    stream tag (tagStream, tagEcho, tagAggressor, tagProbe)
//	[16:24) check word: mix64(seed, seq, tag)
//	[24:)   pattern bytes fixed by the seed
const (
	hdrLen = 24

	tagStream    = 1 // stream frame, or the victim's ping
	tagEcho      = 2 // the victim's echo
	tagAggressor = 3 // noisy_neighbor's second tenant
	tagProbe     = 4 // the one frame each setup delivers
)

// inputs is everything the seed fixes: payload bytes, MAC assignment and
// order, the tenant key and the churn schedule's jitter.
type inputs struct {
	seed    int64
	pattern []byte // full payload image; the header bytes are overwritten per frame
	macA    vnetp.MAC
	macB    vnetp.MAC
	flows   []vnetp.MAC // guest source MACs behind node A, in send order
	churn   vnetp.MAC   // destination of the unrelated route the churn writes
	key     []byte      // sealed tenant's AES-256-GCM key
	rng     *rand.Rand  // churn jitter; owned by the one goroutine that writes routes
}

func newInputs(seed int64, size, nflows int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, pattern: make([]byte, size), key: make([]byte, 32)}
	rng.Read(in.pattern)
	rng.Read(in.key)
	seen := map[uint32]bool{}
	mac := func() vnetp.MAC {
		for {
			id := rng.Uint32()
			if !seen[id] {
				seen[id] = true
				return vnetp.LocalMAC(id)
			}
		}
	}
	in.macA, in.macB, in.churn = mac(), mac(), mac()
	if nflows <= 1 {
		in.flows = []vnetp.MAC{in.macA}
	} else {
		in.flows = make([]vnetp.MAC, nflows)
		for i := range in.flows {
			in.flows[i] = mac()
		}
	}
	in.rng = rand.New(rand.NewSource(seed ^ 0x5eed))
	return in
}

// flowOf is the source MAC frame seq carries.
func (in *inputs) flowOf(seq uint64) vnetp.MAC { return in.flows[seq%uint64(len(in.flows))] }

func mix64(seed int64, seq uint64, tag byte) uint64 {
	z := uint64(seed) ^ seq*0x9e3779b97f4a7c15 ^ uint64(tag)<<56
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// newFrame builds one pool frame carrying the pattern.
func (in *inputs) newFrame(src, dst vnetp.MAC) *vnetp.Frame {
	p := make([]byte, len(in.pattern))
	copy(p, in.pattern)
	return &vnetp.Frame{Dst: dst, Src: src, Type: 0x88b5, Payload: p}
}

// stamp writes the per-frame header into a pool frame's payload.
func (in *inputs) stamp(p []byte, seq uint64, slot uint32, tag byte) {
	binary.BigEndian.PutUint64(p[0:8], seq)
	binary.BigEndian.PutUint32(p[8:12], slot)
	p[12] = tag
	binary.BigEndian.PutUint64(p[16:24], mix64(in.seed, seq, tag))
}

// check parses a delivered payload, reporting ok only when its length,
// check word and pattern bytes are what the seed dictates.
func (in *inputs) check(p []byte) (seq uint64, slot uint32, tag byte, ok bool) {
	if len(p) != len(in.pattern) {
		return 0, 0, 0, false
	}
	seq = binary.BigEndian.Uint64(p[0:8])
	slot = binary.BigEndian.Uint32(p[8:12])
	tag = p[12]
	ok = binary.BigEndian.Uint64(p[16:24]) == mix64(in.seed, seq, tag) &&
		bytes.Equal(p[hdrLen:], in.pattern[hdrLen:])
	return seq, slot, tag, ok
}

// clock is the benchmark's monotonic nanosecond clock.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }
