package main

import (
	"fmt"
	"net"
	"time"
)

// native is the raw-UDP reference: the same datagram sizes over two
// plain net.UDPConn sockets on loopback, as a closed-loop stream and as
// a ping-pong, with no overlay in between.
type native struct {
	fps    float64 // frames/s, a frame being one overlay frame's datagrams
	rttP50 float64 // µs
}

func listenLoopback() (*net.UDPConn, error) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	// The same socket buffers a node asks for.
	c.SetReadBuffer(4 << 20)
	c.SetWriteBuffer(4 << 20)
	return c, nil
}

func runNative(sizes []int, window int, d time.Duration) (native, error) {
	var out native
	a, err := listenLoopback()
	if err != nil {
		return out, err
	}
	defer a.Close()
	b, err := listenLoopback()
	if err != nil {
		return out, err
	}
	defer b.Close()
	aAddr := a.LocalAddr().(*net.UDPAddr).AddrPort()
	bAddr := b.LocalAddr().(*net.UDPAddr).AddrPort()
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	txBuf, rxBuf := make([]byte, max), make([]byte, 65536)

	// Stream: window frames in flight; the receiver frees a slot per
	// completed frame.
	slots := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		slots <- struct{}{}
	}
	quit := make(chan struct{})
	senderDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-slots:
			case <-quit:
				senderDone <- nil
				return
			}
			for _, s := range sizes {
				if _, err := a.WriteToUDPAddrPort(txBuf[:s], bAddr); err != nil {
					senderDone <- err
					return
				}
			}
		}
	}()
	var frames int
	start := time.Now()
	deadline := start.Add(d / 2)
	for got := 0; time.Now().Before(deadline); {
		b.SetReadDeadline(time.Now().Add(time.Second))
		if _, _, err := b.ReadFromUDPAddrPort(rxBuf); err != nil {
			close(quit)
			<-senderDone
			return out, fmt.Errorf("native stream: %w", err)
		}
		if got++; got == len(sizes) {
			got = 0
			frames++
			slots <- struct{}{}
		}
	}
	out.fps = float64(frames) / time.Since(start).Seconds()
	close(quit)
	if err := <-senderDone; err != nil {
		return out, fmt.Errorf("native stream: %w", err)
	}
	// Drain what the stream left in flight before the ping-pong.
	for {
		b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if _, _, err := b.ReadFromUDPAddrPort(rxBuf); err != nil {
			break
		}
	}

	// Ping-pong of the first datagram size, one goroutine playing both
	// ends as the victim does.
	var h hist
	a.SetReadDeadline(time.Now().Add(5 * time.Second))
	b.SetReadDeadline(time.Now().Add(5 * time.Second))
	for end := time.Now().Add(d / 2); time.Now().Before(end); {
		t0 := time.Now()
		if _, err := a.WriteToUDPAddrPort(txBuf[:sizes[0]], bAddr); err != nil {
			return out, err
		}
		if _, _, err := b.ReadFromUDPAddrPort(rxBuf); err != nil {
			return out, fmt.Errorf("native ping: %w", err)
		}
		if _, err := b.WriteToUDPAddrPort(txBuf[:sizes[0]], aAddr); err != nil {
			return out, err
		}
		if _, _, err := a.ReadFromUDPAddrPort(rxBuf); err != nil {
			return out, fmt.Errorf("native pong: %w", err)
		}
		h.record(int64(time.Since(t0)))
	}
	out.rttP50 = h.quantile(0.5) / 1e3
	return out, nil
}
