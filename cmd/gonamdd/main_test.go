package main

import (
	"net/http"
	"testing"
)

// TestNewHTTPServerTimeouts: the daemon's server drops clients that
// stall while sending headers, and never times out a response, since the
// event and metrics streams are long-lived.
func TestNewHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, want > 0", srv.ReadHeaderTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v: streaming responses need it unset", srv.WriteTimeout)
	}
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Fatalf("server not built from its arguments: addr %q, handler %v", srv.Addr, srv.Handler)
	}
}
