//go:build linux && (amd64 || arm64)

package overlay

import (
	"net"
	"syscall"
	"testing"
	"unsafe"
)

// legacyUDPAddrOf is the sockaddr decoder addrPortOf replaced, kept as
// the reference: it allocated a net.IP and a *net.UDPAddr per datagram.
func legacyUDPAddrOf(sa *syscall.RawSockaddrInet6) *net.UDPAddr {
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		ip := make(net.IP, 4)
		copy(ip, sa4.Addr[:])
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		return &net.UDPAddr{IP: ip, Port: int(p[0])<<8 | int(p[1])}
	case syscall.AF_INET6:
		ip := make(net.IP, 16)
		copy(ip, sa.Addr[:])
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		addr := &net.UDPAddr{IP: ip, Port: int(p[0])<<8 | int(p[1])}
		if sa.Scope_id != 0 {
			if ifi, err := net.InterfaceByIndex(int(sa.Scope_id)); err == nil {
				addr.Zone = ifi.Name
			}
		}
		return addr
	}
	return &net.UDPAddr{}
}

// TestAddrPortOfMatchesLegacy pins that the allocation-free decoder
// yields the same sender key (and so the same shard, link attribution
// and drop scopes) as the old one for every sockaddr shape the kernel
// writes: IPv4, IPv6, IPv4-mapped IPv6 (a [::] bind), and link-local
// IPv6 with a known or unknown scope id. A v4-mapped address never
// carries a scope id, so that combination is not covered.
func TestAddrPortOfMatchesLegacy(t *testing.T) {
	v4 := func(a [4]byte, port uint16) syscall.RawSockaddrInet6 {
		var sa syscall.RawSockaddrInet6
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&sa))
		sa4.Family = syscall.AF_INET
		sa4.Addr = a
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		p[0], p[1] = byte(port>>8), byte(port)
		return sa
	}
	v6 := func(s string, port uint16, scope uint32) syscall.RawSockaddrInet6 {
		sa := syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Scope_id: scope}
		copy(sa.Addr[:], net.ParseIP(s).To16())
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0], p[1] = byte(port>>8), byte(port)
		return sa
	}
	lo, err := net.InterfaceByName("lo")
	loIndex := uint32(1)
	if err == nil {
		loIndex = uint32(lo.Index)
	}
	cases := map[string]syscall.RawSockaddrInet6{
		"v4":             v4([4]byte{127, 0, 0, 1}, 7000),
		"v4 high port":   v4([4]byte{10, 1, 2, 3}, 65535),
		"v6":             v6("2001:db8::1", 443, 0),
		"v6 loopback":    v6("::1", 1, 0),
		"v4-mapped":      v6("::ffff:127.0.0.1", 7001, 0),
		"link-local lo":  v6("fe80::1", 9, loIndex),
		"unknown scope":  v6("fe80::2", 9, 1<<30),
		"unknown family": {Family: syscall.AF_UNIX},
		"v4 any":         v4([4]byte{}, 0),
		"v4-mapped high": v6("::ffff:192.0.2.200", 65000, 0),
	}
	for name, sa := range cases {
		sa := sa
		got, want := addrPortOf(&sa), legacyUDPAddrOf(&sa)
		if name == "unknown family" {
			if got.IsValid() {
				t.Fatalf("%s: decoded %v, want the invalid zero value", name, got)
			}
			continue
		}
		if got.String() != want.String() {
			t.Fatalf("%s: key %q, legacy key %q", name, got.String(), want.String())
		}
		if int(got.Port()) != want.Port || !net.IP(got.Addr().AsSlice()).Equal(want.IP) || got.Addr().Zone() != want.Zone {
			t.Fatalf("%s: decoded %v, legacy %v", name, got, want)
		}
	}
}
