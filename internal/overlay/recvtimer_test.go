// Endpoint.Recv timer-safety tests. Recv reuses stopped timers, so a
// stale tick from one wait must never cut a later wait short. Timer
// channel semantics follow the importing module's go version (and
// GODEBUG=asynctimerchan), so `make timers` runs these under both
// settings.
package overlay

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vnetp/internal/ethernet"
)

// bareEndpoint is an endpoint with only its delivery ring: Recv and
// TryRecv touch nothing else.
func bareEndpoint(depth int) *Endpoint {
	return &Endpoint{rx: make(chan *ethernet.Frame, depth)}
}

func TestRecvTimeout(t *testing.T) {
	ep := bareEndpoint(1)
	const timeout = 20 * time.Millisecond
	start := time.Now()
	f, ok := ep.Recv(timeout)
	if el := time.Since(start); f != nil || ok || el < timeout {
		t.Fatalf("Recv on an empty ring = (%v, %v) after %v, want (nil, false) after >= %v", f, ok, el, timeout)
	}
}

func TestRecvAfterTimeout(t *testing.T) {
	ep := bareEndpoint(1)
	for i := 0; i < 100; i++ {
		if _, ok := ep.Recv(time.Microsecond); ok {
			t.Fatal("Recv on an empty ring returned a frame")
		}
		want := &ethernet.Frame{Payload: []byte{byte(i)}}
		ep.rx <- want
		if got, ok := ep.Recv(time.Second); !ok || got != want {
			t.Fatalf("round %d: Recv after a timeout = (%v, %v), want the queued frame", i, got, ok)
		}
	}
}

// TestRecvShortTimeoutsNeverEarly runs 10k back-to-back short waits
// while a feeder drops frames in at random moments, so many waits end
// with a frame racing the timer's fire. Every wait that times out must
// have lasted at least its timeout: a recycled timer carrying a stale
// tick would return early. Several receivers run at once, so timers
// also pass between goroutines through the shared pool.
func TestRecvShortTimeoutsNeverEarly(t *testing.T) {
	const (
		receivers = 4
		waits     = 10000
		timeout   = 50 * time.Microsecond
	)
	stop := make(chan struct{})
	var feeders, recvs sync.WaitGroup
	var timeouts atomic.Int64
	for r := 0; r < receivers; r++ {
		ep := bareEndpoint(1)
		feeders.Add(1)
		go func() {
			defer feeders.Done()
			f := &ethernet.Frame{}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(time.Duration(20+i%60) * time.Microsecond)
				select {
				case ep.rx <- f:
				default:
				}
			}
		}()
		recvs.Add(1)
		go func() {
			defer recvs.Done()
			for i := 0; i < waits; i++ {
				start := time.Now()
				if _, ok := ep.Recv(timeout); !ok {
					timeouts.Add(1)
					if el := time.Since(start); el < timeout {
						t.Errorf("wait %d timed out after %v, want >= %v", i, el, timeout)
						return
					}
				}
			}
		}()
	}
	recvs.Wait()
	close(stop)
	feeders.Wait()
	if timeouts.Load() == 0 {
		t.Fatal("no wait timed out: the test exercised no timer")
	}
}
