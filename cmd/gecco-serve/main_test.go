package main

import (
	"net/http"
	"testing"
)

// Every server gecco-serve starts comes from newServer, so this pins the
// connection timeouts for all of them — and that no read or write timeout
// cuts a long-lived /stream exchange.
func TestNewServerTimeouts(t *testing.T) {
	srv := newServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("ReadHeaderTimeout/IdleTimeout = %v/%v, want %v/%v",
			srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatal("timeouts must be positive")
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout/WriteTimeout = %v/%v, want none", srv.ReadTimeout, srv.WriteTimeout)
	}
}
