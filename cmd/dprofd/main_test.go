package main

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRunBadFlag(t *testing.T) {
	// -cache was the deprecated alias of -cache-entries; it is gone.
	for _, args := range [][]string{{"-no-such-flag"}, {"-cache", "512"}} {
		var out, errOut strings.Builder
		if code := run(context.Background(), args, &out, &errOut); code != 2 {
			t.Fatalf("%v: exit code = %d, want 2\nstderr:\n%s", args, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "flag provided but not defined") {
			t.Errorf("%v: stderr missing flag error:\n%s", args, errOut.String())
		}
	}
}

// TestHTTPServerTimeouts: a client that never finishes its headers, or an
// idle keep-alive connection, cannot hold a connection forever; responses
// have no write deadline, so streams and long simulations are not cut off.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (unbounded)", hs.WriteTimeout)
	}
}

func TestRunBadAddr(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-addr", "256.0.0.1:bogus"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "dprofd:") {
		t.Errorf("stderr missing listen error:\n%s", errOut.String())
	}
}

// TestRunRejectsUnwritableStoreDir: a store directory that cannot be
// created fails at startup with a clear error, not on the first write.
func TestRunRejectsUnwritableStoreDir(t *testing.T) {
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-store-dir", filepath.Join(f, "store")}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"dprofd:", "store"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errOut.String())
		}
	}
}

// TestRunStoreMaxBytesRequiresStoreDir: a byte budget without a store to
// bound is a usage error, caught before the server starts.
func TestRunStoreMaxBytesRequiresStoreDir(t *testing.T) {
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-store-max-bytes", "1048576"}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-store-dir") {
		t.Errorf("stderr missing -store-dir hint:\n%s", errOut.String())
	}
}

func TestRunPeersRequireSelf(t *testing.T) {
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-peers", "http://a:7071,http://b:7071"}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-self") {
		t.Errorf("stderr missing -self hint:\n%s", errOut.String())
	}
}

func TestRunRejectsMalformedPeer(t *testing.T) {
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-self", "http://a:7071", "-peers", "http://a:7071,not-a-url"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "replica") {
		t.Errorf("stderr missing replica error:\n%s", errOut.String())
	}
}

// TestRunStartsAndShutsDown drives the full lifecycle: listen on an
// ephemeral port, then a context cancellation triggers the graceful path.
func TestRunStartsAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var out, errOut strings.Builder
	done := make(chan int, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, &out, &errOut) }()

	// Give ListenAndServe a moment to bind, then shut down.
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code = %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after context cancellation")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("stdout missing shutdown message:\n%s", out.String())
	}
}
