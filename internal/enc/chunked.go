package enc

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"slices"
	"sync"
)

// DEFLATE chunk streams, the tail of the ChunkedBytes scheme. The
// selector trial-encodes ChunkedBytes on byte-string streams below
// MaxDepth, so the compressor state behind it is pooled: flate.NewWriter
// allocates about 1 MB of match-finder tables, which would otherwise
// dominate both the CPU and the allocation profile of every write.
// Writer.Reset is documented as equivalent to NewWriter, so output never
// depends on reuse. The decode side reuses its readers through
// flate.Resetter and reserves at most one chunk ahead of the bytes it has
// inflated, whatever length the stream declares.

// ChunkSize is the raw-byte chunk granularity of ChunkedBytes, matching
// the paper's 256 KB (Table 2). Each chunk compresses independently so
// partial reads stay cheap.
const ChunkSize = 256 << 10

// flateEncoder is one pooled compressor plus the buffer it compresses a
// chunk into. The writer only ever points at its own buffer, so a pooled
// encoder holds no caller memory and needs no reset before Put (a Reset
// clears ~640 KB of hash tables; one per chunk is enough).
type flateEncoder struct {
	fw  *flate.Writer
	buf bytes.Buffer
}

var flateEncoderPool = sync.Pool{
	New: func() any {
		e := &flateEncoder{}
		e.fw, _ = flate.NewWriter(io.Discard, flate.DefaultCompression)
		return e
	},
}

// flateDecoder is one pooled decompressor, the reader it inflates from and
// the limit it is read through.
type flateDecoder struct {
	src bytes.Reader
	fr  io.ReadCloser // a flate.Resetter
	lim io.LimitedReader
}

var flateDecoderPool = sync.Pool{
	New: func() any {
		d := &flateDecoder{}
		d.fr = flate.NewReader(&d.src)
		return d
	},
}

// appendFlateChunks compresses raw in ChunkSize chunks with DEFLATE (the
// stdlib substitute for zstd: go.mod stays dependency-free) and appends:
//
//	nChunks(uvarint) { compressedLen(uvarint) compressedBytes }*
func appendFlateChunks(dst, raw []byte) ([]byte, error) {
	nChunks := (len(raw) + ChunkSize - 1) / ChunkSize
	dst = binary.AppendUvarint(dst, uint64(nChunks))
	e := flateEncoderPool.Get().(*flateEncoder)
	defer flateEncoderPool.Put(e)
	for c := 0; c < nChunks; c++ {
		lo := c * ChunkSize
		hi := min(lo+ChunkSize, len(raw))
		e.buf.Reset()
		e.fw.Reset(&e.buf)
		if _, err := e.fw.Write(raw[lo:hi]); err != nil {
			return nil, err
		}
		if err := e.fw.Close(); err != nil {
			return nil, err
		}
		dst = binary.AppendUvarint(dst, uint64(e.buf.Len()))
		dst = append(dst, e.buf.Bytes()...)
	}
	return dst, nil
}

// readFlateChunks decompresses a chunk sequence whose total decompressed
// size must be exactly want. The chunk count follows from want, and each
// chunk is read through a limit of one byte past what it may hold, so the
// output never grows more than one chunk ahead of the bytes actually
// inflated: neither a lying length nor a decompression bomb can drive an
// allocation.
func readFlateChunks(src []byte, want int) ([]byte, error) {
	if want < 0 {
		return nil, corruptf("chunked: negative size %d", want)
	}
	nChunks, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, corruptf("chunked: bad chunk count")
	}
	if nChunks != uint64((want+ChunkSize-1)/ChunkSize) {
		return nil, corruptf("chunked: %d chunks for %d bytes", nChunks, want)
	}
	src = src[sz:]
	d := flateDecoderPool.Get().(*flateDecoder)
	defer func() {
		d.src.Reset(nil)
		flateDecoderPool.Put(d)
	}()
	var out []byte
	for c := uint64(0); c < nChunks; c++ {
		clen, sz := binary.Uvarint(src)
		if sz <= 0 || clen > uint64(len(src)-sz) {
			return nil, corruptf("chunked: bad chunk %d length", c)
		}
		src = src[sz:]
		d.src.Reset(src[:clen])
		if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
			return nil, corruptf("chunked: chunk %d: %v", c, err)
		}
		// A chunk holds at most ChunkSize raw bytes, and no more than are
		// still missing.
		limit := min(want-len(out), ChunkSize)
		d.lim = io.LimitedReader{R: d.fr, N: int64(limit) + 1}
		// The spare byte lets the read that reports EOF (or one byte too
		// many) land without growing a correctly sized buffer.
		start := len(out)
		out = slices.Grow(out, limit+1)
		var err error
		if out, err = readAllInto(out, &d.lim); err != nil {
			return nil, corruptf("chunked: chunk %d: %v", c, err)
		}
		if len(out)-start > limit {
			return nil, corruptf("chunked: chunk %d inflates past %d bytes", c, limit)
		}
		src = src[clen:]
	}
	if len(out) != want {
		return nil, corruptf("chunked: decompressed %d bytes, want %d", len(out), want)
	}
	return out, nil
}

// readAllInto appends r's bytes to b until EOF, filling b's spare capacity
// before growing it.
func readAllInto(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 1)
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
