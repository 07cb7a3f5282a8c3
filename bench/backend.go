package main

import (
	"context"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"bullion/internal/storage"
)

// ioCounters is what the storage wrapper counts. Counting is atomic adds
// only; times come from the tracer's spans in the traced run.
type ioCounters struct {
	readOps, readBytes, writeBytes, syncs atomic.Int64
}

type ioSnapshot struct {
	readOps, readBytes, writeBytes, syncs int64
}

func (c *ioCounters) snapshot() ioSnapshot {
	return ioSnapshot{c.readOps.Load(), c.readBytes.Load(), c.writeBytes.Load(), c.syncs.Load()}
}

func (a ioSnapshot) sub(b ioSnapshot) ioSnapshot {
	return ioSnapshot{a.readOps - b.readOps, a.readBytes - b.readBytes,
		a.writeBytes - b.writeBytes, a.syncs - b.syncs}
}

// countingBackend wraps a storage.Backend: every byte the dataset layer
// reads or writes is counted here, and every call is a span when tracing
// is on. It is the only place the benchmark observes the storage layer.
type countingBackend struct {
	under storage.Backend
	c     *ioCounters
	tr    *tracer
}

func (b *countingBackend) ReadAt(name string) (storage.File, int64, error) {
	defer b.tr.leaf("storage.open", levelStorage)()
	f, size, err := b.under.ReadAt(name)
	if err != nil {
		return nil, 0, err
	}
	return &countingFile{under: f, b: b}, size, nil
}

func (b *countingBackend) Create(name string) (storage.File, error) {
	defer b.tr.leaf("storage.create", levelStorage)()
	f, err := b.under.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{under: f, b: b}, nil
}

func (b *countingBackend) Rename(oldName, newName string) error {
	defer b.tr.leaf("storage.rename", levelStorage)()
	return b.under.Rename(oldName, newName)
}

func (b *countingBackend) Remove(name string) error {
	defer b.tr.leaf("storage.remove", levelStorage)()
	return b.under.Remove(name)
}

func (b *countingBackend) SyncDir() error {
	defer b.tr.leaf("storage.syncdir", levelStorage)()
	b.c.syncs.Add(1)
	return b.under.SyncDir()
}

func (b *countingBackend) List() ([]string, error) {
	defer b.tr.leaf("storage.list", levelStorage)()
	return b.under.List()
}

func (b *countingBackend) Root() string { return b.under.Root() }

// ResilienceStats forwards the wrapped backend's retry and hedge counters
// (zero for a local backend), so the dataset layer still finds them.
func (b *countingBackend) ResilienceStats() storage.ResilienceStats {
	if r, ok := b.under.(interface {
		ResilienceStats() storage.ResilienceStats
	}); ok {
		return r.ResilienceStats()
	}
	return storage.ResilienceStats{}
}

type countingFile struct {
	under storage.File
	b     *countingBackend
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	defer f.b.tr.leaf("storage.read", levelStorage)()
	n, err := f.under.ReadAt(p, off)
	f.b.c.readOps.Add(1)
	f.b.c.readBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	defer f.b.tr.leaf("storage.write", levelStorage)()
	n, err := f.under.WriteAt(p, off)
	f.b.c.writeBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Write(p []byte) (int, error) {
	defer f.b.tr.leaf("storage.write", levelStorage)()
	n, err := f.under.Write(p)
	f.b.c.writeBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	defer f.b.tr.leaf("storage.sync", levelStorage)()
	f.b.c.syncs.Add(1)
	return f.under.Sync()
}

func (f *countingFile) Close() error {
	defer f.b.tr.leaf("storage.close", levelStorage)()
	return f.under.Close()
}

// ETag forwards the version pin of remote files; the cache keys on it.
func (f *countingFile) ETag() string {
	if e, ok := f.under.(storage.ETagged); ok {
		return e.ETag()
	}
	return ""
}

// loopbackDelay is the fixed service time the loopback server adds to
// every request, standing in for a network round trip.
const loopbackDelay = time.Millisecond

// loopback serves a dataset directory over HTTP on 127.0.0.1 from inside
// the benchmark process.
type loopback struct {
	url          string
	srv          *http.Server
	done         chan struct{}
	requests     atomic.Int64
	dataRequests atomic.Int64
	client       *http.Client
}

// startLoopback serves dir; conns bounds the client's connections.
func startLoopback(dir string, conns int, tr *tracer) (*loopback, error) {
	local, err := storage.NewLocal(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	inner := storage.NewHTTPHandler(local)
	lb.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer tr.leaf("http.request", levelServer)()
		lb.requests.Add(1)
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/part-") {
			lb.dataRequests.Add(1)
		}
		time.Sleep(loopbackDelay)
		inner.ServeHTTP(w, r)
	})}
	go func() {
		defer close(lb.done)
		lb.srv.Serve(ln) // returns when stop shuts the server down
	}()
	lb.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}
	return lb, nil
}

// backend returns a fresh remote backend over the loopback URL, built the
// way dataset.Open builds one for an http URL (range reads behind the
// default resilience policy), but on the benchmark's bounded client.
func (lb *loopback) backend() (*storage.Resilient, error) {
	h, err := storage.NewHTTP(lb.url, &storage.HTTPOptions{Client: lb.client})
	if err != nil {
		return nil, err
	}
	return storage.NewResilient(h, nil), nil
}

func (lb *loopback) stop() {
	lb.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if lb.srv.Shutdown(ctx) != nil {
		lb.srv.Close()
	}
	<-lb.done
}
