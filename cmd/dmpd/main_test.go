package main

import (
	"net/http"
	"testing"
)

// TestNewHTTPServerTimeouts pins the connection deadlines: a server without
// ReadHeaderTimeout lets a client that never finishes its headers hold a
// connection open indefinitely.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	hs := newHTTPServer("127.0.0.1:0", h)
	if hs.Addr != "127.0.0.1:0" || hs.Handler != h {
		t.Fatalf("addr/handler not wired: %q %v", hs.Addr, hs.Handler)
	}
	if hs.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v (> 0)", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v (> 0)", hs.IdleTimeout, idleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout/WriteTimeout = %v/%v, want 0: long sweeps answer late", hs.ReadTimeout, hs.WriteTimeout)
	}
}
