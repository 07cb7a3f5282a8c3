package storage

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/url"
	"strings"
	"sync"
)

// IsHTTPURL reports whether path names a remote HTTP(S) dataset — the
// dispatch test OpenDataset and the CLI use to pick this backend.
func IsHTTPURL(path string) bool {
	if len(path) > 8 { // scheme matching is case-insensitive (RFC 3986)
		path = strings.ToLower(path[:8])
	}
	return strings.HasPrefix(path, "http://") || strings.HasPrefix(path, "https://")
}

// HTTPOptions configures an HTTP range-read backend.
type HTTPOptions struct {
	// Client overrides the HTTP client. The default bounds connection
	// reuse: MaxIdleConnsPerHost = DefaultHTTPMaxIdleConns keep-alive
	// connections per host, so a wide concurrent scan recycles a small
	// warm pool instead of opening one socket per member read.
	Client *http.Client
}

// DefaultHTTPMaxIdleConns is the default keep-alive pool size per host.
const DefaultHTTPMaxIdleConns = 16

// HTTPBackend is a read-only Backend over HTTP(S) Range requests: one
// base URL standing for the dataset directory, each file a sibling
// object fetched with GET + Range. It is how a dataset published behind
// any plain HTTP server (object-store gateway, nginx, httptest) is
// scanned without copying it locally.
//
// Immutability is enforced, not assumed: the first open of a file HEADs
// it to learn its size and ETag, and every subsequent range GET carries
// If-Match with that ETag. A server that replaced the object answers
// 412 Precondition Failed, which surfaces as ErrChangedUnderRead — a
// member can never change silently mid-scan. Servers that emit no ETag
// degrade to unpinned reads.
//
// All mutating operations return ErrReadOnly and List returns
// ErrListUnsupported (HTTP has no directory enumeration); SyncDir is a
// no-op — there is nothing volatile on the client side to make durable.
type HTTPBackend struct {
	base   *url.URL
	client *http.Client

	// pins caches each file's HEAD-discovered size and ETag so reopening
	// a member (fsck after scan, a second scanner) costs no extra probe
	// and keeps reading the same pinned object version.
	mu   sync.Mutex
	pins map[string]httpPin
}

type httpPin struct {
	size int64
	etag string
}

// NewHTTP returns a read-only backend over the dataset published at
// baseURL (the "directory": file names are appended as one path
// segment).
func NewHTTP(baseURL string, opts *HTTPOptions) (*HTTPBackend, error) {
	if !IsHTTPURL(baseURL) {
		return nil, fmt.Errorf("storage: %q is not an http(s) URL", baseURL)
	}
	u, err := url.Parse(strings.TrimSuffix(baseURL, "/"))
	if err != nil {
		return nil, fmt.Errorf("storage: parsing %q: %w", baseURL, err)
	}
	h := &HTTPBackend{base: u, pins: map[string]httpPin{}}
	if opts != nil {
		h.client = opts.Client
	}
	if h.client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 4 * DefaultHTTPMaxIdleConns
		tr.MaxIdleConnsPerHost = DefaultHTTPMaxIdleConns
		h.client = &http.Client{Transport: tr}
	}
	return h, nil
}

// Root returns the base URL; two backends over the same URL address the
// same remote state.
func (h *HTTPBackend) Root() string { return h.base.String() }

func (h *HTTPBackend) urlFor(name string) (string, error) {
	if err := ValidateName(name); err != nil {
		return "", err
	}
	u := *h.base
	u.Path = u.Path + "/" + name
	return u.String(), nil
}

// ReadAt opens the named remote file: a HEAD request discovers its size
// and pins its ETag. The returned handle is safe for concurrent reads —
// every ReadAt is an independent range request on the shared client.
func (h *HTTPBackend) ReadAt(name string) (File, int64, error) {
	target, err := h.urlFor(name)
	if err != nil {
		return nil, 0, err
	}
	h.mu.Lock()
	pin, ok := h.pins[name]
	h.mu.Unlock()
	if !ok {
		pin, err = h.head(name, target)
		if err != nil {
			return nil, 0, err
		}
		h.mu.Lock()
		h.pins[name] = pin
		h.mu.Unlock()
	}
	return &httpFile{b: h, name: name, url: target, pin: pin}, pin.size, nil
}

// invalidate drops the cached pin after a read proved it stale, so the
// next open re-probes the replaced object instead of inheriting a pin
// that can only keep failing.
func (h *HTTPBackend) invalidate(name string) {
	h.mu.Lock()
	delete(h.pins, name)
	h.mu.Unlock()
}

// head probes the named object's size and ETag.
func (h *HTTPBackend) head(name, target string) (httpPin, error) {
	req, err := http.NewRequest(http.MethodHead, target, nil)
	if err != nil {
		return httpPin{}, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return httpPin{}, fmt.Errorf("storage: HEAD %s: %w", name, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusNotFound:
		return httpPin{}, fmt.Errorf("storage: open %s: %w", name, fs.ErrNotExist)
	default:
		return httpPin{}, &StatusError{Name: name, Status: resp.StatusCode}
	}
	if resp.ContentLength < 0 {
		return httpPin{}, fmt.Errorf("storage: HEAD %s: server sent no Content-Length", name)
	}
	return httpPin{size: resp.ContentLength, etag: resp.Header.Get("ETag")}, nil
}

// Create is unsupported: the backend is read-only.
func (h *HTTPBackend) Create(string) (File, error) { return nil, ErrReadOnly }

// Rename is unsupported: the backend is read-only.
func (h *HTTPBackend) Rename(string, string) error { return ErrReadOnly }

// Remove is unsupported: the backend is read-only.
func (h *HTTPBackend) Remove(string) error { return ErrReadOnly }

// SyncDir is a no-op: a read-only client holds nothing volatile.
func (h *HTTPBackend) SyncDir() error { return nil }

// List returns ErrListUnsupported: HTTP exposes named objects, not a
// namespace. Recovery sweeps and orphan scans degrade gracefully.
func (h *HTTPBackend) List() ([]string, error) { return nil, ErrListUnsupported }

// httpFile is one pinned remote object. Reads are stateless range
// requests, so one handle serves any number of concurrent readers.
type httpFile struct {
	b    *HTTPBackend
	name string
	url  string
	pin  httpPin
}

func (f *httpFile) ReadAt(p []byte, off int64) (int, error) {
	return f.ReadAtContext(context.Background(), p, off)
}

// ReadAtContext fetches bytes [off, off+len(p)) with a single range
// GET, If-Match pinned to the open-time ETag. Cancelling ctx aborts the
// request — the hook hedged reads use to cancel the losing leg.
func (f *httpFile) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("storage: %s: negative offset", f.name)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if off >= f.pin.size {
		return 0, io.EOF
	}
	end := off + int64(len(p)) - 1
	if max := f.pin.size - 1; end > max {
		end = max
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, end))
	if f.pin.etag != "" {
		req.Header.Set("If-Match", f.pin.etag)
	}
	resp, err := f.b.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("storage: GET %s: %w", f.name, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	want := int(end - off + 1)
	switch resp.StatusCode {
	case http.StatusPartialContent:
		if got := resp.ContentLength; got >= 0 && got != int64(want) {
			// A shorter-than-requested range means the object shrank under
			// its pin (possible only unpinned or with a weak server).
			f.b.invalidate(f.name)
			return 0, fmt.Errorf("storage: GET %s: range [%d,%d] answered with %d bytes: %w",
				f.name, off, end, got, ErrChangedUnderRead)
		}
	case http.StatusOK:
		// Server ignored Range (tiny files, naive servers): the body is the
		// whole object — skip to off and read our window.
		if _, err := io.CopyN(io.Discard, resp.Body, off); err != nil {
			return 0, fmt.Errorf("storage: GET %s: discarding to offset %d: %w", f.name, off, err)
		}
	case http.StatusRequestedRangeNotSatisfiable:
		return 0, io.EOF
	case http.StatusPreconditionFailed:
		f.b.invalidate(f.name)
		return 0, fmt.Errorf("storage: %s: %w", f.name, ErrChangedUnderRead)
	case http.StatusNotFound:
		return 0, fmt.Errorf("storage: GET %s: %w", f.name, fs.ErrNotExist)
	default:
		return 0, &StatusError{Name: f.name, Status: resp.StatusCode}
	}
	n, err := io.ReadFull(resp.Body, p[:want])
	if err != nil {
		// A body truncated mid-transfer is the classic transient network
		// failure (connection reset, server restart): mark it retryable.
		return n, Transient(fmt.Errorf("storage: GET %s: body ended after %d of %d bytes: %w",
			f.name, n, want, err))
	}
	if want < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// ETag returns the object version pinned at open ("" when the server
// emits no ETag or pinning is disabled) — see storage.ETagged.
func (f *httpFile) ETag() string { return f.pin.etag }

func (f *httpFile) Write([]byte) (int, error)          { return 0, ErrReadOnly }
func (f *httpFile) WriteAt([]byte, int64) (int, error) { return 0, ErrReadOnly }
func (f *httpFile) Sync() error                        { return ErrReadOnly }
func (f *httpFile) Close() error                       { return nil }
