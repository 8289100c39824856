package main

import (
	"math/rand"
	"sync/atomic"
	"time"

	"vnetp"
)

// meter is the state the load goroutines share with the measuring loop.
// Each histogram has exactly one writing goroutine and is read only
// after every load goroutine has returned.
type meter struct {
	clk    clock
	win    atomic.Int32 // index into lat; 0 is the warm-up
	traced atomic.Bool  // time Send and Recv calls (traced phase only)
	quit   chan struct{}

	entered atomic.Uint64 // frames handed to Endpoint.Send, aggressor included
	done    atomic.Uint64 // workload frames delivered (noisy_neighbor: victim round trips)

	lat        []hist // per window: Send to the Recv that returned the frame
	sendNs     hist   // around Endpoint.Send, traced phase
	recvWaitNs hist   // blocked in Endpoint.Recv, traced phase
	ctl        hist   // ADD + DEL ROUTE latency, measured windows
	lag        hist   // aggressor: Send return minus due time

	// Correctness counters.
	bad      atomic.Uint64 // payload, address or tag did not match
	dup      atomic.Uint64 // delivered twice (or, in the ping-pong, out of turn)
	leaked   atomic.Uint64 // aggressor frame seen at a victim endpoint
	sendErrs atomic.Uint64 // Endpoint.Send refused a workload frame
}

func newMeter(windows int) *meter {
	return &meter{clk: clock{base: time.Now()}, quit: make(chan struct{}), lat: make([]hist, windows+1)}
}

func (m *meter) stopping() bool {
	select {
	case <-m.quit:
		return true
	default:
		return false
	}
}

// recv wraps Endpoint.Recv, timing the wait in the traced phase.
func (m *meter) recv(ep *vnetp.Endpoint, timeout time.Duration) (*vnetp.Frame, int64, bool) {
	traced := m.traced.Load()
	var t0 int64
	if traced {
		t0 = m.clk.now()
	}
	f, ok := ep.Recv(timeout)
	now := m.clk.now()
	if ok && traced {
		m.recvWaitNs.record(now - t0)
	}
	return f, now, ok
}

// send wraps Endpoint.Send, timing it in the traced phase.
func (m *meter) send(ep *vnetp.Endpoint, f *vnetp.Frame, t0 int64) error {
	err := ep.Send(f)
	if m.traced.Load() {
		m.sendNs.record(m.clk.now() - t0)
	}
	m.entered.Add(1)
	return err
}

// stream is a closed loop of window frames in flight from src to dst:
// one goroutine sends, one receives. A pool slot's frame is reused only
// after the receiver has seen it delivered.
type stream struct {
	m        *meter
	in       *inputs
	src, dst *vnetp.Endpoint
	frames   []*vnetp.Frame
	seqOf    []atomic.Uint64 // sequence in flight per slot; 0 when free
	sentAt   []atomic.Int64
	free     chan uint32 // holds every free slot: capacity = window
	churn    *churner    // flow_churn's route writer, else nil

	sent, recvd atomic.Uint64
}

func newStream(m *meter, in *inputs, src, dst *vnetp.Endpoint, window int) *stream {
	s := &stream{
		m: m, in: in, src: src, dst: dst,
		frames: make([]*vnetp.Frame, window),
		seqOf:  make([]atomic.Uint64, window),
		sentAt: make([]atomic.Int64, window),
		free:   make(chan uint32, window),
	}
	for i := range s.frames {
		s.frames[i] = in.newFrame(in.macA, in.macB)
		s.free <- uint32(i)
	}
	return s
}

func (s *stream) sender() {
	seq := uint64(1)
	for {
		var slot uint32
		select {
		case slot = <-s.free:
		case <-s.m.quit:
			return
		}
		seq++
		f := s.frames[slot]
		f.Src = s.in.flowOf(seq)
		s.in.stamp(f.Payload, seq, slot, tagStream)
		s.seqOf[slot].Store(seq)
		t0 := s.m.clk.now()
		s.sentAt[slot].Store(t0)
		if err := s.m.send(s.src, f, t0); err != nil {
			s.m.sendErrs.Add(1)
			s.seqOf[slot].Store(0)
			s.free <- slot
			continue
		}
		s.sent.Add(1)
		if s.churn != nil {
			s.churn.tick(t0)
		}
	}
}

// receiver runs until the sender has stopped and every frame it sent has
// arrived, or nothing has arrived for two seconds after that.
func (s *stream) receiver(senderDone <-chan struct{}) {
	idle := 0
	for {
		f, now, ok := s.m.recv(s.dst, 50*time.Millisecond)
		if !ok {
			select {
			case <-senderDone:
				if idle++; s.recvd.Load() >= s.sent.Load() || idle > 40 {
					return
				}
			default:
			}
			continue
		}
		idle = 0
		seq, slot, tag, ok := s.in.check(f.Payload)
		if !ok || tag != tagStream || int(slot) >= len(s.frames) ||
			f.Dst != s.in.macB || f.Src != s.in.flowOf(seq) {
			s.m.bad.Add(1)
			continue
		}
		if !s.seqOf[slot].CompareAndSwap(seq, 0) {
			s.m.dup.Add(1)
			continue
		}
		s.m.lat[s.m.win.Load()].record(now - s.sentAt[slot].Load())
		s.recvd.Add(1)
		s.m.done.Add(1)
		s.free <- slot
	}
}

// churner writes an unrelated route through the control language every
// 15-25 ms (seed-jittered), from inside the sender's loop so the load
// stays on two goroutines.
type churner struct {
	m        *meter
	n        *vnetp.Node
	add, del string
	rng      *rand.Rand
	next     int64
	writes   uint64
	err      error
}

func (c *churner) tick(now int64) {
	if now < c.next || c.err != nil {
		return
	}
	d, err := routeWrite(c.n, c.add, c.del)
	if err != nil {
		c.err = err
		return
	}
	if c.m.win.Load() > 0 {
		c.m.ctl.record(d)
	}
	c.writes++
	c.next = c.m.clk.now() + int64(15*time.Millisecond) + c.rng.Int63n(int64(10*time.Millisecond))
}

// victimTimeout is how long the victim waits for a ping or echo before
// it sends the same frame again, and victimTries how often it sends one
// before the round trip counts as failed. The flood can overflow node B's
// shared dispatcher rings and lose a victim frame (README.md); a
// retransmission turns that loss into a late round trip, counted in
// loss_pct and visible in the latency tail, instead of a failed one.
const (
	victimTimeout = 50 * time.Millisecond
	victimTries   = 40
)

// victim is noisy_neighbor's tenant-0 ping-pong with one frame in flight:
// one goroutine sends the ping from A, receives it at B, sends the echo
// from B and receives it at A. A round trip started before the quit is
// finished after it.
type victim struct {
	m                  *meter
	in                 *inputs
	epA, epB           *vnetp.Endpoint
	attempted, echoes  uint64 // round trips started and completed
	sends, retransmits uint64 // victim frames handed to Send, and how many of them were resends
	stale              uint64 // frames of an earlier round trip: late originals or their resends
	gotA, gotB         uint64 // every frame Recv returned, per endpoint
}

func (v *victim) run() {
	ping := v.in.newFrame(v.in.macA, v.in.macB)
	echo := v.in.newFrame(v.in.macB, v.in.macA)
	seq := uint64(1)
	for !v.m.stopping() {
		seq++
		v.attempted++
		v.in.stamp(ping.Payload, seq, 0, tagStream)
		t0 := v.m.clk.now()
		if !v.leg(v.epA, v.epB, ping, &v.gotB, seq, tagStream, t0) {
			continue
		}
		v.in.stamp(echo.Payload, seq, 0, tagEcho)
		if !v.leg(v.epB, v.epA, echo, &v.gotA, seq, tagEcho, v.m.clk.now()) {
			continue
		}
		v.echoes++
		v.m.lat[v.m.win.Load()].record(v.m.clk.now() - t0)
		v.m.done.Add(1)
	}
}

// leg sends f from one endpoint until it arrives at the other, resending
// it after each victimTimeout; false when victimTries sends all timed out.
func (v *victim) leg(from, to *vnetp.Endpoint, f *vnetp.Frame, got *uint64, seq uint64, tag byte, t0 int64) bool {
	for try := 0; try < victimTries; try++ {
		if try > 0 {
			v.retransmits++
			t0 = v.m.clk.now()
		}
		v.sends++
		if err := v.m.send(from, f, t0); err != nil {
			v.m.sendErrs.Add(1)
		}
		if v.await(to, got, seq, tag, f.Src, f.Dst) {
			return true
		}
	}
	return false
}

// await receives until frame seq with tag arrives; false on a timeout.
func (v *victim) await(ep *vnetp.Endpoint, got *uint64, seq uint64, tag byte, src, dst vnetp.MAC) bool {
	for {
		f, _, ok := v.m.recv(ep, victimTimeout)
		if !ok {
			return false
		}
		*got++
		if v.classify(f, seq, tag, src, dst) {
			return true
		}
	}
}

// classify checks one frame a victim endpoint received while round trip
// seq waits for tag; true when it is that frame.
func (v *victim) classify(f *vnetp.Frame, seq uint64, tag byte, src, dst vnetp.MAC) bool {
	s, _, tg, ok := v.in.check(f.Payload)
	switch {
	case !ok:
		v.m.bad.Add(1)
	case tg == tagAggressor:
		v.m.leaked.Add(1)
	case tg != tag || f.Src != src || f.Dst != dst || s > seq:
		v.m.bad.Add(1)
	case s < seq:
		v.stale++
	default:
		return true
	}
	return false
}

// drain takes the frames still arriving after the last round trip: late
// originals and resends, each of an earlier round trip.
func (v *victim) drain() {
	next := v.attempted + 2 // beyond every sequence sent
	for _, d := range []struct {
		ep       *vnetp.Endpoint
		got      *uint64
		tag      byte
		src, dst vnetp.MAC
	}{
		{v.epB, &v.gotB, tagStream, v.in.macA, v.in.macB},
		{v.epA, &v.gotA, tagEcho, v.in.macB, v.in.macA},
	} {
		for {
			f, ok := d.ep.TryRecv()
			if !ok {
				break
			}
			*d.got++
			if v.classify(f, next, d.tag, d.src, d.dst) {
				v.m.bad.Add(1)
			}
		}
	}
}

// lostFrames is how many victim frames Send refused or the overlay did
// not deliver.
func (v *victim) lostFrames() uint64 {
	if got := v.gotA + v.gotB; got < v.sends {
		return v.sends - got
	}
	return 0
}

// aggressorPool is how many frames the aggressor cycles through: more
// than a link TX ring holds, so a frame is reused only long after the
// overlay has let go of it (it is never delivered, so delivery cannot
// release it).
const aggressorPool = 4096

// aggressor sends open-loop at a fixed rate into an endpoint that is
// never drained. Each frame is timed from when it was due.
type aggressor struct {
	m    *meter
	in   *inputs
	ep   *vnetp.Endpoint
	rate int
	sent uint64
	errs uint64
	span int64 // ns from first due time to the last send
}

func (g *aggressor) run() {
	frames := make([]*vnetp.Frame, aggressorPool)
	for i := range frames {
		frames[i] = g.in.newFrame(g.in.macA, g.in.macB)
	}
	period := int64(time.Second) / int64(g.rate)
	start := g.m.clk.now()
	for i := int64(0); !g.m.stopping(); i++ {
		due := start + i*period
		now := g.m.clk.now()
		if d := due - now; d > 0 {
			time.Sleep(time.Duration(d))
		}
		f := frames[i%aggressorPool]
		g.in.stamp(f.Payload, uint64(i)+1, uint32(i%aggressorPool), tagAggressor)
		if err := g.ep.Send(f); err != nil {
			g.errs++
		}
		g.m.entered.Add(1)
		g.sent++
		end := g.m.clk.now()
		if g.m.win.Load() > 0 {
			g.m.lag.record(end - due)
		}
		g.span = end - start
	}
}
