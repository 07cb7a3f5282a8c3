package storage

import (
	"bytes"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

func TestIsHTTPURL(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"http://example.com/data", true},
		{"https://example.com/data", true},
		{"HTTP://example.com/data", true},
		{"ftp://example.com/data", false},
		{"/var/data/bullion", false},
		{"relative/dir", false},
		{"", false},
	}
	for _, c := range cases {
		if got := IsHTTPURL(c.in); got != c.want {
			t.Errorf("IsHTTPURL(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// serveDir stands up the reference handler over a local directory and
// returns the backend, the directory, and the server URL.
func serveDir(t *testing.T) (Backend, string, string) {
	t.Helper()
	dir := t.TempDir()
	local, err := NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHTTPHandler(local))
	t.Cleanup(srv.Close)
	return local, dir, srv.URL
}

// TestHTTPChangedUnderRead: the ETag pinned at open must fence off any
// reads that would otherwise observe a replaced object — the backend
// surfaces ErrChangedUnderRead instead of torn bytes.
func TestHTTPChangedUnderRead(t *testing.T) {
	const name = "part-000001-000.bln"
	local, dir, url := serveDir(t)
	writeViaBackend(t, local, name, conformanceData())

	h, err := NewHTTP(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := h.ReadAt(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := make([]byte, 64)
	if n, err := f.ReadAt(p, 0); n != 64 || err != nil {
		t.Fatalf("pre-replace read = (%d, %v)", n, err)
	}

	// Replace the object with different-size content; the handler's
	// ETag covers size, so the pin no longer matches.
	if err := os.WriteFile(filepath.Join(dir, name), []byte("entirely new and shorter"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(p, 0); !errors.Is(err, ErrChangedUnderRead) {
		t.Fatalf("post-replace read err = %v, want ErrChangedUnderRead", err)
	}
	if IsRetryable(err) {
		t.Fatal("ErrChangedUnderRead must not be retryable: retrying cannot restore the old object")
	}

	// A fresh open re-pins against the new object and reads cleanly.
	f2, size, err := h.ReadAt(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	want := []byte("entirely new and shorter")
	if size != int64(len(want)) {
		t.Fatalf("re-opened size = %d, want %d", size, len(want))
	}
	got := make([]byte, len(want))
	if n, err := f2.ReadAt(got, 0); n != len(want) || err != nil || !bytes.Equal(got, want) {
		t.Fatalf("re-opened read = (%d, %v, %q)", n, err, got[:n])
	}
}

// TestHTTPNoETagReadsUnpinned: a server that emits no ETag leaves
// nothing to pin, so range reads carry no If-Match and keep reading
// through a replacement — the fence follows what the server sends.
func TestHTTPNoETagReadsUnpinned(t *testing.T) {
	const name = "part-000001-000.bln"
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), conformanceData(), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.FileServer(http.Dir(dir))) // sets no ETag
	t.Cleanup(srv.Close)

	h, err := NewHTTP(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := h.ReadAt(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if tag := f.(ETagged).ETag(); tag != "" {
		t.Fatalf("pinned ETag %q from a server that sends none", tag)
	}
	replacement := make([]byte, len(conformanceData())) // same size: the range math still lines up
	for i := range replacement {
		replacement[i] = byte(255 - i)
	}
	if err := os.WriteFile(filepath.Join(dir, name), replacement, 0o644); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 100)
	if n, err := f.ReadAt(p, 200); n != 100 || err != nil || !bytes.Equal(p, replacement[200:300]) {
		t.Fatalf("unpinned post-replace read = (%d, %v), want the replacement's bytes", n, err)
	}
}

func TestHTTPHandlerRejectsWrites(t *testing.T) {
	local, _, url := serveDir(t)
	writeViaBackend(t, local, "CURRENT", []byte("1"))

	for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
		req, err := http.NewRequest(method, url+"/CURRENT", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s status = %d, want 405", method, resp.StatusCode)
		}
	}
	// Path traversal and malformed names never reach the filesystem.
	resp, err := http.Get(url + "/../../etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("traversal request must not succeed")
	}
}

// TestHTTPServerErrorsClassified: 5xx responses surface as retryable
// StatusError; the policy layer is allowed to try again.
func TestHTTPServerErrorsClassified(t *testing.T) {
	var failing bool
	local, _, _ := serveDir(t)
	writeViaBackend(t, local, "part-000001-000.bln", conformanceData())
	inner := NewHTTPHandler(local)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	h, err := NewHTTP(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := h.ReadAt("part-000001-000.bln")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	failing = true
	_, rerr := f.ReadAt(make([]byte, 16), 0)
	var se *StatusError
	if !errors.As(rerr, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want StatusError 503", rerr)
	}
	if !IsRetryable(rerr) {
		t.Fatal("503 must be retryable")
	}

	failing = false
	if n, err := f.ReadAt(make([]byte, 16), 0); n != 16 || err != nil {
		t.Fatalf("recovered read = (%d, %v)", n, err)
	}
}

func TestHTTPReadOnlySurface(t *testing.T) {
	local, _, url := serveDir(t)
	writeViaBackend(t, local, "CURRENT", []byte("1"))
	h, err := NewHTTP(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Create("x"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Create err = %v, want ErrReadOnly", err)
	}
	if err := h.Rename("a", "b"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Rename err = %v, want ErrReadOnly", err)
	}
	if err := h.Remove("a"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Remove err = %v, want ErrReadOnly", err)
	}
	if _, err := h.List(); !errors.Is(err, ErrListUnsupported) {
		t.Fatalf("List err = %v, want ErrListUnsupported", err)
	}
	if _, _, err := h.ReadAt("missing.bln"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing open err = %v, want fs.ErrNotExist", err)
	}
}
